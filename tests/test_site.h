#ifndef VTRANS_TESTS_TEST_SITE_H_
#define VTRANS_TESTS_TEST_SITE_H_

/**
 * @file
 * Synthetic probe sites for tests and microbenchmarks. A synthetic site
 * is declared (once) by name and appended to the registry after every
 * table site (trace/sites.h), so it never moves a table site's address.
 * Instrumented workload code uses table sites (VT_SITE) instead.
 */

#include "trace/probe.h"

/**
 * Declares (once) a synthetic code site bound to a local reference.
 * Usage: VT_TEST_SITE(site, "test.events", 32, 4, Block);
 */
#define VT_TEST_SITE(var, name, bytes, instrs, kindtag) \
    static ::vtrans::trace::CodeSite& var = \
        ::vtrans::trace::registry().define( \
            name, bytes, instrs, ::vtrans::trace::SiteKind::kindtag)

#endif // VTRANS_TESTS_TEST_SITE_H_
