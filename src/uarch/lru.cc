#include "uarch/lru.h"

namespace vtrans::uarch {

bool
LruSets::scan(uint64_t key, uint32_t stamp)
{
    VT_ASSERT((key >> tag_shift_) < kNoTag, "key ", key,
              " exceeds the 32-bit tag range");
    const uint32_t base = setBaseSlot(key);
    const uint32_t tag = tagOf(key);
    Entry* set = &entries_[base];
    // One fused pass: look for the tag while tracking the first way with
    // the smallest stamp (strict < keeps the earliest), which is the first
    // invalid way if any (stamp 0), else the least recently used.
    uint32_t victim = 0;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (set[w].tag == tag) {
            set[w].stamp = stamp;
            mru_key_ = key;
            mru_slot_ = base + w;
            return true;
        }
        if (set[w].stamp < set[victim].stamp) {
            victim = w;
        }
    }
    ++misses_;
    set[victim] = {tag, stamp};
    mru_key_ = key;
    mru_slot_ = base + victim;
    return false;
}

void
LruSets::renumber()
{
    std::vector<uint32_t> order(ways_);
    for (size_t base = 0; base < entries_.size(); base += ways_) {
        Entry* set = &entries_[base];
        for (uint32_t w = 0; w < ways_; ++w) {
            order[w] = w;
        }
        std::sort(order.begin(), order.end(), [set](uint32_t a, uint32_t b) {
            return set[a].stamp < set[b].stamp;
        });
        uint32_t rank = 0;
        for (uint32_t w : order) {
            if (set[w].stamp != 0) {
                set[w].stamp = ++rank;
            }
        }
    }
    tick_ = ways_ + 1;
}

} // namespace vtrans::uarch
