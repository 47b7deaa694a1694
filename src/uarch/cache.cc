#include "uarch/cache.h"

#include <memory>

#include "common/status.h"

namespace vtrans::uarch {

namespace {

bool
isPowerOfTwo(uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(std::string name, const CacheParams& params)
    : name_(std::move(name)), params_(params),
      line_shift_(static_cast<uint32_t>(__builtin_ctz(params.line_bytes))),
      sets_(
          [&] {
              VT_ASSERT(isPowerOfTwo(params.line_bytes),
                        "line size must be 2^k");
              VT_ASSERT(params.assoc > 0, "associativity must be positive");
              VT_ASSERT(params.size_bytes % (params.line_bytes * params.assoc)
                            == 0,
                        "cache size must be a whole number of sets: ", name_);
              const uint32_t sets =
                  params.size_bytes / (params.line_bytes * params.assoc);
              VT_ASSERT(isPowerOfTwo(sets), "set count must be 2^k: ", name_);
              return sets;
          }(),
          params.assoc)
{
}

OuterLevels::OuterLevels(const CacheParams& l2, const CacheParams& l3,
                         uint32_t l4_size)
    : l2_("L2", l2), l3_("L3", l3)
{
    if (l4_size > 0) {
        CacheParams p;
        p.size_bytes = l4_size;
        p.assoc = 16;
        l4_ = std::make_unique<Cache>("L4", p);
    }
}

} // namespace vtrans::uarch
