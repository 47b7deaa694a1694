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
    : name_(std::move(name)), params_(params)
{
    VT_ASSERT(isPowerOfTwo(params_.line_bytes), "line size must be 2^k");
    VT_ASSERT(params_.assoc > 0, "associativity must be positive");
    VT_ASSERT(params_.size_bytes % (params_.line_bytes * params_.assoc)
                  == 0,
              "cache size must be a whole number of sets: ", name_);
    sets_ = params_.size_bytes / (params_.line_bytes * params_.assoc);
    VT_ASSERT(isPowerOfTwo(sets_), "set count must be 2^k: ", name_);
    line_shift_ = static_cast<uint32_t>(__builtin_ctz(params_.line_bytes));
    set_mask_ = sets_ - 1;
    tag_shift_ = static_cast<uint32_t>(__builtin_ctz(sets_));
    ways_.resize(static_cast<size_t>(sets_) * params_.assoc);
}

bool
Cache::scanLine(uint64_t line)
{
    // accesses_/tick_ were already bumped by the inline accessLine().
    const uint32_t set = static_cast<uint32_t>(line) & set_mask_;
    const uint64_t tag = line >> tag_shift_;

    Way* base = &ways_[static_cast<size_t>(set) * params_.assoc];
    // One fused pass: look for the tag while tracking the victim a
    // second pass would pick — the first invalid way if any, else the
    // first way with the minimum lru (strict < keeps the earliest).
    // Replacement is decided only on a miss, and the hit arm returns
    // without touching lru state, so the fused scan picks the identical
    // victim the two-pass version did.
    Way* invalid = nullptr;
    Way* lru_way = base;
    for (uint32_t w = 0; w < params_.assoc; ++w) {
        Way& way = base[w];
        if (!way.valid) {
            if (invalid == nullptr) {
                invalid = &way;
            }
            continue;
        }
        if (way.tag == tag) {
            way.lru = tick_;
            mru_line_ = line;
            mru_way_ = &way;
            return true;
        }
        if (way.lru < lru_way->lru) {
            lru_way = &way;
        }
    }
    Way* victim = invalid != nullptr ? invalid : lru_way;
    ++misses_;
    victim->valid = true;
    victim->tag = tag;
    victim->lru = tick_;
    mru_line_ = line;
    mru_way_ = victim;
    return false;
}

bool
Cache::contains(uint64_t addr) const
{
    const uint64_t line = addr >> line_shift_;
    const uint32_t set = static_cast<uint32_t>(line) & set_mask_;
    const uint64_t tag = line >> tag_shift_;
    const Way* base = &ways_[static_cast<size_t>(set) * params_.assoc];
    for (uint32_t w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            return true;
        }
    }
    return false;
}

void
Cache::reset()
{
    for (auto& way : ways_) {
        way.valid = false;
    }
    mru_line_ = kNoLine;
    mru_way_ = nullptr;
    tick_ = 0;
    accesses_ = 0;
    misses_ = 0;
}

CacheHierarchy::CacheHierarchy(const CacheParams& l1d,
                               const CacheParams& l1i, const CacheParams& l2,
                               const CacheParams& l3, uint32_t l4_size,
                               const LatencyParams& lat)
    : l1d_("L1d", l1d),
      l1i_("L1i", l1i),
      l2_("L2", l2),
      l3_("L3", l3),
      lat_(lat)
{
    if (l4_size > 0) {
        CacheParams p;
        p.size_bytes = l4_size;
        p.assoc = 16;
        l4_ = std::make_unique<Cache>("L4", p);
    }
}

AccessResult
CacheHierarchy::missPath(uint64_t addr)
{
    // Shared L2 -> L3 -> (L4) -> memory walk after an L1 miss.
    AccessResult r;
    if (l2_.access(addr)) {
        r.latency = lat_.l2;
        return r;
    }
    r.l2_miss = true;
    if (l3_.access(addr)) {
        r.latency = lat_.l3;
        return r;
    }
    r.l3_miss = true;
    if (l4_ != nullptr) {
        if (l4_->access(addr)) {
            r.latency = lat_.l4;
            return r;
        }
        r.l4_miss = true;
    }
    r.latency = lat_.memory;
    return r;
}

AccessResult
CacheHierarchy::dataMiss(uint64_t addr)
{
    AccessResult r = missPath(addr);
    r.l1_miss = true;
    r.latency += lat_.l1;
    return r;
}

AccessResult
CacheHierarchy::fetchMiss(uint64_t addr)
{
    AccessResult r = missPath(addr);
    r.l1_miss = true;
    r.latency += lat_.l1;
    return r;
}

void
CacheHierarchy::reset()
{
    l1d_.reset();
    l1i_.reset();
    l2_.reset();
    l3_.reset();
    if (l4_ != nullptr) {
        l4_->reset();
    }
}

} // namespace vtrans::uarch
