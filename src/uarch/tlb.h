#ifndef VTRANS_UARCH_TLB_H_
#define VTRANS_UARCH_TLB_H_

/**
 * @file
 * A set-associative TLB model (4-way, LRU, 4 KiB pages) — the practical
 * approximation of the fully-associative structures real cores use.
 * Table IV's fe_op doubles the iTLB from 128 to 256 entries.
 */

#include <cstdint>

#include "common/status.h"
#include "uarch/lru.h"

namespace vtrans::uarch {

/** 4-way set-associative LRU TLB over 4 KiB pages. */
class Tlb
{
  public:
    static constexpr uint32_t kWays = 4;

    explicit Tlb(uint32_t entries)
        : entries_(entries),
          sets_(
              [entries] {
                  VT_ASSERT(entries > 0 && entries % kWays == 0,
                            "TLB entries must be a positive multiple of ",
                            kWays);
                  const uint32_t sets = entries / kWays;
                  VT_ASSERT((sets & (sets - 1)) == 0,
                            "TLB set count must be 2^k");
                  return sets;
              }(),
              kWays)
    {
    }

    /** Looks up the page of `addr`, filling on miss. @return hit?
     *  Consecutive accesses to one page (one per instrumented basic
     *  block — by far the common case) skip the set scan. */
    bool access(uint64_t addr) { return accessPage(addr >> 12); }

    /** access() with the page number already computed (per-site fetch
     *  plans precompute it once per site). Same bookkeeping. */
    bool accessPage(uint64_t page) { return sets_.access(page); }

    void reset() { sets_.reset(); }

    uint64_t accesses() const { return sets_.accesses(); }
    uint64_t misses() const { return sets_.misses(); }
    uint32_t entries() const { return entries_; }

  private:
    uint32_t entries_;
    LruSets sets_;
};

} // namespace vtrans::uarch

#endif // VTRANS_UARCH_TLB_H_
