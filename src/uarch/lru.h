#ifndef VTRANS_UARCH_LRU_H_
#define VTRANS_UARCH_LRU_H_

/**
 * @file
 * The tag store every set-associative structure of the core model shares
 * (caches, iTLB, BTB): true-LRU replacement over sets x ways of packed
 * 8-byte entries — a 32-bit tag and a 32-bit LRU stamp.
 *
 * A key (cache line, page or branch key) maps to set `key & (sets - 1)`
 * and tag `key >> log2(sets)`. An invalid way holds tag kNoTag and stamp
 * 0; a valid way's stamp is at least 1. Picking the first way with the
 * smallest stamp therefore picks the first invalid way if there is one,
 * else the first least-recently-used one — the replacement choice of the
 * 64-bit-stamp scan this store replaced.
 *
 * Stamps come from a per-store counter, and replacement only ever compares
 * stamps within one set, so only their order matters. A re-access of the
 * most recently used key leaves its stamp alone: it already holds the
 * largest stamp of its set. When the counter reaches its limit (2^32 - 1
 * by default) every set's valid stamps are renumbered 1..n in their
 * existing order and the counter restarts above them. Each decision
 * therefore matches what one unbounded 64-bit stamp per access would give.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace vtrans::uarch {

class LruSets
{
  public:
    static constexpr uint32_t kNoTag = UINT32_MAX;
    static constexpr uint32_t kStampLimit = UINT32_MAX;

    /** `sets` must be a power of two. `stamp_limit` only exists so a
     *  test can force the renumbering; it must exceed `ways` + 1. */
    LruSets(uint32_t sets, uint32_t ways, uint32_t stamp_limit = kStampLimit)
        : ways_(ways), set_mask_(sets - 1),
          tag_shift_(static_cast<uint32_t>(__builtin_ctz(sets))),
          stamp_limit_(stamp_limit),
          entries_(static_cast<size_t>(sets) * ways)
    {
        VT_ASSERT(sets > 0 && (sets & (sets - 1)) == 0,
                  "set count must be 2^k");
        VT_ASSERT(ways > 0, "associativity must be positive");
        VT_ASSERT(stamp_limit > ways + 1, "stamp limit below the set size");
    }

    /** Looks `key` up, filling on a miss. @return hit?
     *
     *  The key of the previous access takes an inline fast path: it is
     *  still resident (only a miss evicts, and a miss retargets the MRU)
     *  and already the most recent way of its set. */
    bool
    access(uint64_t key)
    {
        ++accesses_;
        if (key == mru_key_) {
            return true;
        }
        return scan(key, nextStamp());
    }

    /**
     * Hit-arm bookkeeping for `key` if way `slot` (a value obtained from
     * mruSlot() after an access to `key`, or setBaseSlot(key)) still holds
     * it; returns false — doing no bookkeeping — otherwise. A slot in
     * `key`'s own set matching its tag is the way a full scan would hit,
     * since a set holds a tag at most once.
     */
    bool
    touchIfResident(uint64_t key, uint32_t slot)
    {
        if (entries_[slot].tag != tagOf(key)) {
            return false;
        }
        ++accesses_;
        if (key != mru_key_) {
            entries_[slot].stamp = nextStamp();
            mru_key_ = key;
            mru_slot_ = slot;
        }
        return true;
    }

    /** Way index of the key just accessed. */
    uint32_t mruSlot() const { return mru_slot_; }

    /** True if `key`'s tag fits the 32-bit tag field. */
    bool fits(uint64_t key) const { return (key >> tag_shift_) < kNoTag; }

    /** Index of way 0 of `key`'s set. */
    uint32_t
    setBaseSlot(uint64_t key) const
    {
        return (static_cast<uint32_t>(key) & set_mask_) * ways_;
    }

    /** Probes without updating LRU or filling. */
    bool
    contains(uint64_t key) const
    {
        const Entry* base = &entries_[setBaseSlot(key)];
        const uint32_t tag = tagOf(key);
        for (uint32_t w = 0; w < ways_; ++w) {
            if (base[w].tag == tag) {
                return true;
            }
        }
        return false;
    }

    /** Invalidates every way and zeroes the counters. */
    void
    reset()
    {
        std::fill(entries_.begin(), entries_.end(), Entry{});
        mru_key_ = kNoKey;
        mru_slot_ = 0;
        tick_ = 0;
        accesses_ = 0;
        misses_ = 0;
    }

    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }
    uint32_t sets() const { return set_mask_ + 1; }
    uint32_t ways() const { return ways_; }

  private:
    struct Entry
    {
        uint32_t tag = kNoTag;
        uint32_t stamp = 0; ///< 0 = invalid; else the last-use stamp.
    };

    /// No key maps here: every key's tag must be below kNoTag.
    static constexpr uint64_t kNoKey = UINT64_MAX;

    uint32_t
    tagOf(uint64_t key) const
    {
        return static_cast<uint32_t>(key >> tag_shift_);
    }

    uint32_t
    nextStamp()
    {
        if (++tick_ == stamp_limit_) [[unlikely]] {
            renumber();
        }
        return tick_;
    }

    /** Set scan and fill after an MRU miss (out of line). */
    bool scan(uint64_t key, uint32_t stamp);

    /** Renumbers each set's valid stamps 1..n in order and restarts the
     *  counter above them (out of line; once per 2^32 accesses). */
    void renumber();

    uint32_t ways_;
    uint32_t set_mask_;
    uint32_t tag_shift_;
    uint32_t stamp_limit_;
    std::vector<Entry> entries_; ///< sets x ways, row-major.
    uint64_t mru_key_ = kNoKey;  ///< Key of the most recent access.
    uint32_t mru_slot_ = 0;      ///< Its way.
    uint32_t tick_ = 0;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
};

} // namespace vtrans::uarch

#endif // VTRANS_UARCH_LRU_H_
