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

namespace vtrans::uarch {

/** Geometry of one cache level. */
struct CacheParams
{
    uint32_t size_bytes = 32 * 1024;
    uint32_t assoc = 8;
    uint32_t line_bytes = 64;
};

/**
 * One set-associative cache level with true-LRU replacement.
 * Tag-only (no data): the simulator needs hit/miss, not contents.
 *
 * Lookups take an MRU fast path: the line and way of the most recent
 * access are cached, so the streaming re-references that dominate the
 * codec's access pattern skip the set scan entirely. The fast path
 * performs the identical counter and LRU updates as the full scan, so
 * every statistic and every replacement decision is bit-identical.
 */
class Cache
{
  public:
    Cache(std::string name, const CacheParams& params);

    /**
     * Looks up the line containing `addr`, filling on miss.
     * @return true on hit.
     *
     * The MRU check is inline so L1-hit streams pay no out-of-line call;
     * the set scan and fill live in scanLine() (cache.cc).
     */
    bool
    access(uint64_t addr)
    {
        return accessLine(addr >> line_shift_);
    }

    /** access() with the line number already computed (callers holding a
     *  precomputed fetch plan skip the shift). */
    bool
    accessLine(uint64_t line)
    {
        ++accesses_;
        ++tick_;
        if (line == mru_line_) {
            // Same line as the previous access: it is resident in
            // mru_way_ (just hit or just filled there, and nothing
            // evicted it since — any eviction goes through accessLine(),
            // which retargets the MRU). Identical bookkeeping to the
            // scan's hit arm.
            mru_way_->lru = tick_;
            return true;
        }
        return scanLine(line);
    }

    /**
     * Hit-arm bookkeeping for `line` if it is still resident in way
     * `slot` (a value previously obtained from mruSlot() right after an
     * access to the same line). Returns false — performing *no*
     * bookkeeping — when the slot has since been refilled with another
     * line, in which case the caller falls back to accessLine().
     *
     * Exactness: a slot recorded for `line` always lies in `line`'s set,
     * and at most one way of a set can hold a given tag, so a valid tag
     * match here identifies the same way the full scan would hit; the
     * counter/LRU/MRU updates below mirror that hit arm exactly.
     */
    bool
    touchIfResident(uint64_t line, uint32_t slot)
    {
        Way& way = ways_[slot];
        if (!way.valid || way.tag != (line >> tag_shift_)) {
            return false;
        }
        ++accesses_;
        ++tick_;
        way.lru = tick_;
        mru_line_ = line;
        mru_way_ = &way;
        return true;
    }

    /** Index of the way holding the line just accessed (valid until the
     *  next miss fills over it; touchIfResident() re-validates). */
    uint32_t
    mruSlot() const
    {
        return static_cast<uint32_t>(mru_way_ - ways_.data());
    }

    /** Way index of way 0 of the set `line` maps to — the safe initial
     *  value for a fetch-plan slot (same-set, so a tag match in
     *  touchIfResident() is sound). */
    uint32_t
    setBaseSlot(uint64_t line) const
    {
        return (static_cast<uint32_t>(line) & set_mask_) * params_.assoc;
    }

    /** Probes without updating LRU or filling (testing aid). */
    bool contains(uint64_t addr) const;

    /** Invalidates everything. */
    void reset();

    const std::string& name() const { return name_; }
    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }
    uint32_t sets() const { return sets_; }
    uint32_t assoc() const { return params_.assoc; }
    uint32_t lineBytes() const { return params_.line_bytes; }
    uint32_t lineShift() const { return line_shift_; }

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t lru = 0;
        bool valid = false;
    };

    /** Set scan + fill after an MRU miss (the cold half of accessLine). */
    bool scanLine(uint64_t line);

    /// Sentinel for "no MRU line cached" (never a real line number).
    static constexpr uint64_t kNoLine = UINT64_MAX;

    std::string name_;
    CacheParams params_;
    uint32_t sets_;
    uint32_t line_shift_;  ///< log2(line_bytes): addr -> line without divide.
    uint32_t set_mask_;    ///< sets_ - 1, precomputed.
    uint32_t tag_shift_;   ///< log2(sets_), precomputed.
    std::vector<Way> ways_; ///< sets_ x assoc, row-major (stable storage).
    uint64_t mru_line_ = kNoLine; ///< Line of the most recent access.
    Way* mru_way_ = nullptr;      ///< Its resident way.
    uint64_t tick_ = 0;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
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

/** Result of a hierarchy access: total latency plus the miss path. */
struct AccessResult
{
    int latency = 0;
    bool l1_miss = false;
    bool l2_miss = false;
    bool l3_miss = false;
    bool l4_miss = false;
};

/**
 * The full data/instruction hierarchy: split L1s, unified L2/L3 and an
 * optional L4. Inclusive-enough behaviour for MPKI purposes: each miss
 * falls through to the next level and fills every level on the way back.
 */
class CacheHierarchy
{
  public:
    /**
     * @param l4_size 0 disables the L4 level (the baseline config).
     */
    CacheHierarchy(const CacheParams& l1d, const CacheParams& l1i,
                   const CacheParams& l2, const CacheParams& l3,
                   uint32_t l4_size, const LatencyParams& lat);

    /** A data-side access (loads and stores: write-allocate). The L1-hit
     *  arm — by far the common case — is inline; misses walk the shared
     *  levels out of line. */
    AccessResult
    dataAccess(uint64_t addr)
    {
        if (l1d_.access(addr)) {
            return {lat_.l1, false, false, false, false};
        }
        return dataMiss(addr);
    }

    /** An instruction-fetch access. */
    AccessResult
    fetchAccess(uint64_t addr)
    {
        if (l1i_.access(addr)) {
            return {lat_.l1, false, false, false, false};
        }
        return fetchMiss(addr);
    }

    /** fetchAccess() with the L1i line number already computed (per-site
     *  fetch plans precompute it once per site). */
    AccessResult
    fetchLineAccess(uint64_t line)
    {
        if (l1i_.accessLine(line)) {
            return {lat_.l1, false, false, false, false};
        }
        return fetchMiss(line << l1i_.lineShift());
    }

    Cache& l1d() { return l1d_; }
    Cache& l1i() { return l1i_; }
    Cache& l2() { return l2_; }
    Cache& l3() { return l3_; }
    bool hasL4() const { return l4_ != nullptr; }
    Cache& l4() { return *l4_; }
    const LatencyParams& latencies() const { return lat_; }

    void reset();

  private:
    AccessResult missPath(uint64_t addr);

    /** L1d-miss continuation of dataAccess (L2 -> L3 -> L4 -> memory). */
    AccessResult dataMiss(uint64_t addr);

    /** L1i-miss continuation of fetchAccess/fetchLineAccess. */
    AccessResult fetchMiss(uint64_t addr);

    Cache l1d_;
    Cache l1i_;
    Cache l2_;
    Cache l3_;
    std::unique_ptr<Cache> l4_;
    LatencyParams lat_;
};

} // namespace vtrans::uarch

#endif // VTRANS_UARCH_CACHE_H_
