#ifndef VTRANS_UARCH_CACHE_H_
#define VTRANS_UARCH_CACHE_H_

/**
 * @file
 * Set-associative caches with LRU replacement and a multi-level hierarchy,
 * modelling the Intel Xeon E3 memory system of the paper's test machine
 * (§III: 32K L1i + 32K L1d, 256K L2, 8M L3) and the enlarged variants of
 * Table IV (incl. an L4 for be_op1).
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "uarch/lru.h"

namespace vtrans::uarch {

/** Geometry of one cache level. */
struct CacheParams
{
    uint32_t size_bytes = 32 * 1024;
    uint32_t assoc = 8;
    uint32_t line_bytes = 64;
};

/**
 * One set-associative cache level with true-LRU replacement over a
 * packed tag store (uarch/lru.h). Tag-only (no data): the simulator
 * needs hit/miss, not contents.
 *
 * Lookups take an MRU fast path: the streaming re-references that
 * dominate the codec's access pattern skip the set scan with the same
 * bookkeeping as its hit arm, so every statistic and every replacement
 * decision is bit-identical.
 */
class Cache
{
  public:
    Cache(std::string name, const CacheParams& params);

    /** Looks up the line containing `addr`, filling on miss.
     *  @return true on hit. */
    bool access(uint64_t addr) { return sets_.access(addr >> line_shift_); }

    /** access() with the line number already computed (callers holding a
     *  precomputed fetch plan skip the shift). */
    bool accessLine(uint64_t line) { return sets_.access(line); }

    /** Hit-arm bookkeeping for `line` if way `slot` still holds it (see
     *  LruSets::touchIfResident); false, with no bookkeeping, if not. */
    bool
    touchIfResident(uint64_t line, uint32_t slot)
    {
        return sets_.touchIfResident(line, slot);
    }

    /** Index of the way holding the line just accessed. */
    uint32_t mruSlot() const { return sets_.mruSlot(); }

    /** Way 0 of the set `line` maps to: a safe initial fetch-plan slot. */
    uint32_t setBaseSlot(uint64_t line) const { return sets_.setBaseSlot(line); }

    /** True if `line` is within the simulated address range. */
    bool fitsLine(uint64_t line) const { return sets_.fits(line); }

    /** Probes without updating LRU or filling (testing aid). */
    bool contains(uint64_t addr) const
    {
        return sets_.contains(addr >> line_shift_);
    }

    /** Invalidates everything. */
    void reset() { sets_.reset(); }

    const std::string& name() const { return name_; }
    uint64_t accesses() const { return sets_.accesses(); }
    uint64_t misses() const { return sets_.misses(); }
    uint32_t sets() const { return sets_.sets(); }
    uint32_t assoc() const { return params_.assoc; }
    uint32_t lineBytes() const { return params_.line_bytes; }
    uint32_t lineShift() const { return line_shift_; }

  private:
    std::string name_;
    CacheParams params_;
    uint32_t line_shift_; ///< log2(line_bytes): addr -> line without divide.
    LruSets sets_;
};

/** Access latencies (cycles) of each level of the hierarchy. */
struct LatencyParams
{
    int l1 = 4;
    int l2 = 12;
    int l3 = 38;
    int l4 = 55;
    int memory = 230;
    int itlb_miss = 30;
};

/** The level that served an L1 miss (OuterLevels::walk). */
enum MissLevel : uint32_t
{
    kServedL2 = 0,
    kServedL3 = 1,
    kServedL4 = 2,
    kServedMemory = 3,
};

/** Cycles an L1 miss served at `level` adds beyond the L1 latency. */
inline int
missLatency(uint32_t level, const LatencyParams& lat)
{
    const int by_level[] = {lat.l2, lat.l3, lat.l4, lat.memory};
    return by_level[level];
}

/**
 * The levels behind the split L1s: a unified L2, L3 and optional L4
 * (the core model shares an instance among the classes whose L1s and
 * outer geometry coincide; DESIGN.md §13).
 * Inclusive-enough behaviour for MPKI purposes: each miss falls through
 * to the next level and fills every level on the way back.
 */
class OuterLevels
{
  public:
    /** @param l4_size 0 disables the L4 level (the baseline config). */
    OuterLevels(const CacheParams& l2, const CacheParams& l3,
                uint32_t l4_size);

    /** Walks an L1 miss of `addr` down the levels; returns the MissLevel
     *  that served it. */
    uint32_t
    walk(uint64_t addr)
    {
        if (l2_.access(addr)) {
            return kServedL2;
        }
        if (l3_.access(addr)) {
            return kServedL3;
        }
        if (l4_ != nullptr && l4_->access(addr)) {
            return kServedL4;
        }
        return kServedMemory;
    }

    bool hasL4() const { return l4_ != nullptr; }

  private:
    Cache l2_;
    Cache l3_;
    std::unique_ptr<Cache> l4_;
};

} // namespace vtrans::uarch

#endif // VTRANS_UARCH_CACHE_H_
