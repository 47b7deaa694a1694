#include "uarch/branch.h"

#include <algorithm>

#include "common/status.h"

namespace vtrans::uarch {

namespace {

/** Saturating 2-bit counter update. */
inline void
train2bit(uint8_t& ctr, bool taken)
{
    if (taken) {
        if (ctr < 3) {
            ++ctr;
        }
    } else if (ctr > 0) {
        --ctr;
    }
}

} // namespace

// ---- Pentium-M-style hybrid ------------------------------------------------

PentiumMPredictor::PentiumMPredictor()
    : bimodal_(kTableSize, 2), gshare_(kTableSize, 2),
      chooser_(kTableSize, 2)
{
}

uint32_t
PentiumMPredictor::bimodalIndex(uint64_t pc) const
{
    return static_cast<uint32_t>(pc >> 2) & kIndexMask;
}

uint32_t
PentiumMPredictor::gshareIndex(uint64_t pc) const
{
    return (static_cast<uint32_t>(pc >> 2) ^ ghr_) & kIndexMask;
}

bool
PentiumMPredictor::predict(uint64_t pc)
{
    const uint32_t bi = bimodalIndex(pc);
    const uint32_t gi = gshareIndex(pc);
    last_pc_ = pc;
    last_bi_ = bi;
    last_gi_ = gi;
    const bool bim = bimodal_[bi] >= 2;
    const bool gsh = gshare_[gi] >= 2;
    const bool use_gshare = chooser_[bi] >= 2;
    return use_gshare ? gsh : bim;
}

void
PentiumMPredictor::update(uint64_t pc, bool taken)
{
    // The core model always pairs update() with the predict() just made
    // for the same pc; reuse its indices (ghr_ has not shifted yet).
    const bool paired = pc == last_pc_;
    const uint32_t bi = paired ? last_bi_ : bimodalIndex(pc);
    const uint32_t gi = paired ? last_gi_ : gshareIndex(pc);
    const bool bim_correct = (bimodal_[bi] >= 2) == taken;
    const bool gsh_correct = (gshare_[gi] >= 2) == taken;
    if (bim_correct != gsh_correct) {
        train2bit(chooser_[bi], gsh_correct);
    }
    train2bit(bimodal_[bi], taken);
    train2bit(gshare_[gi], taken);
    ghr_ = ((ghr_ << 1) | (taken ? 1 : 0)) & 0xfff;
    last_pc_ = kNoPc; // gshare index is stale once the history shifts.
}

bool
PentiumMPredictor::predictAndUpdate(uint64_t pc, bool taken)
{
    // Qualified calls devirtualize and inline within this TU; the
    // predict-side index/table reads feed the update arm directly, with
    // the exact sequence of table mutations the two-call path performs.
    const bool predicted = PentiumMPredictor::predict(pc);
    PentiumMPredictor::update(pc, taken);
    return predicted;
}

// ---- TAGE ---------------------------------------------------------------

constexpr int TagePredictor::kHistLengths[TagePredictor::kTables];
constexpr int TagePredictor::kFoldWidths[TagePredictor::kFolds];

namespace {

/** Fold bit of history bit `j` one shift later, before any word-crossing
 *  correction: its current fold bit rotated left by one. */
uint32_t
rotatedPosition(int j, int width)
{
    return static_cast<uint32_t>(((j % 64) % width + 1) % width);
}

} // namespace

TagePredictor::TagePredictor() : base_(1u << 12, 2)
{
    base_mask_ = static_cast<uint32_t>(base_.size()) - 1;
    for (auto& t : tables_) {
        t.resize(kTableSize);
    }
    for (int t = 0; t < kTables; ++t) {
        const int length = kHistLengths[t];
        for (int f = 0; f < kFolds; ++f) {
            Fold& fold = folds_[t][f];
            const int width = kFoldWidths[f];
            fold.width = static_cast<uint32_t>(width);
            fold.mask = (1u << width) - 1;
            fold.out_shift = rotatedPosition(length - 1, width);
            for (int k = 0; k < 2; ++k) {
                // Bit j = 63 or 127 crosses a word boundary on the shift
                // (to j + 1, fold bit 0) while still inside the folded
                // length; only then can the rotation misplace it.
                const int j = 64 * k + 63;
                fold.cross_shift[k] =
                    j + 1 < length ? rotatedPosition(j, width) : 0;
            }
        }
    }
}

uint32_t
TagePredictor::index(uint64_t pc, int table) const
{
    const uint64_t h = folds_[table][0].value;
    return static_cast<uint32_t>(((pc >> 2) ^ (pc >> (kTableBits + 2)) ^ h)
                                 & (kTableSize - 1));
}

uint16_t
TagePredictor::tag(uint64_t pc, int table) const
{
    const uint64_t h = folds_[table][1].value;
    const uint64_t h2 = static_cast<uint64_t>(folds_[table][2].value) << 1;
    return static_cast<uint16_t>(((pc >> 2) ^ h ^ h2) & 0xff);
}

void
TagePredictor::shiftHistory(bool taken)
{
    // A shift moves history bit j to j + 1. Inside a 64-bit word that is
    // a rotate-left-by-one of each fold. Three bits need fixing after
    // the rotate: the bit leaving the folded length (XOR it out), the
    // outcome entering at bit 0 (XOR it in), and bits 63 and 127, which
    // restart at fold bit 0 in the next word instead of rotating on.
    const uint64_t crossing[2] = {ghist_[0] >> 63, ghist_[1] >> 63};
    const uint32_t in = taken ? 1 : 0;
    for (int t = 0; t < kTables; ++t) {
        const int last = kHistLengths[t] - 1;
        const auto out =
            static_cast<uint32_t>((ghist_[last / 64] >> (last % 64)) & 1);
        for (Fold& fold : folds_[t]) {
            uint32_t v = ((fold.value << 1) | (fold.value >> (fold.width - 1)))
                         & fold.mask;
            v ^= (out << fold.out_shift) ^ in;
            for (int k = 0; k < 2; ++k) {
                if (fold.cross_shift[k] != 0 && crossing[k] != 0) {
                    v ^= (1u << fold.cross_shift[k]) | 1u;
                }
            }
            fold.value = v;
        }
    }
    const uint64_t carry3 = ghist_[2] >> 63;
    const uint64_t carry2 = ghist_[1] >> 63;
    const uint64_t carry1 = ghist_[0] >> 63;
    ghist_[3] = (ghist_[3] << 1) | carry3;
    ghist_[2] = (ghist_[2] << 1) | carry2;
    ghist_[1] = (ghist_[1] << 1) | carry1;
    ghist_[0] = (ghist_[0] << 1) | in;
}

bool
TagePredictor::predict(uint64_t pc)
{
    last_pc_ = pc;
    provider_ = -1;
    altpred_table_ = -1;

    // The match scan below and the paired update() both reuse these
    // (the history shifts only at the end of update()).
    base_idx_ = static_cast<uint32_t>(pc >> 2) & base_mask_;
    for (int t = 0; t < kTables; ++t) {
        idx_[t] = index(pc, t);
        tag_[t] = tag(pc, t);
    }

    const bool base_pred = base_[base_idx_] >= 2;
    altpred_ = base_pred;
    provider_pred_ = base_pred;

    for (int t = kTables - 1; t >= 0; --t) {
        const Entry& e = tables_[t][idx_[t]];
        if (e.tag == tag_[t]) {
            if (provider_ < 0) {
                provider_ = t;
                provider_pred_ = e.ctr >= 0;
            } else if (altpred_table_ < 0) {
                altpred_table_ = t;
                altpred_ = e.ctr >= 0;
                break;
            }
        }
    }
    if (provider_ >= 0 && altpred_table_ < 0) {
        altpred_ = base_pred;
    }
    return provider_ >= 0 ? provider_pred_ : base_pred;
}

void
TagePredictor::update(uint64_t pc, bool taken)
{
    VT_ASSERT(pc == last_pc_, "update() must follow predict() for same pc");

    const bool prediction =
        provider_ >= 0 ? provider_pred_ : (base_[base_idx_] >= 2);

    // Train the provider (or the base table).
    if (provider_ >= 0) {
        Entry& e = tables_[provider_][idx_[provider_]];
        if (taken) {
            if (e.ctr < 3) {
                ++e.ctr;
            }
        } else if (e.ctr > -4) {
            --e.ctr;
        }
        // Useful counter: provider differed from altpred and was right.
        if (provider_pred_ != altpred_) {
            if (provider_pred_ == taken) {
                if (e.useful < 3) {
                    ++e.useful;
                }
            } else if (e.useful > 0) {
                --e.useful;
            }
        }
    } else {
        train2bit(base_[base_idx_], taken);
    }

    // Allocate a longer-history entry on a mispredict.
    if (prediction != taken && provider_ < kTables - 1) {
        // Simple xorshift for the allocation tie-break.
        rng_state_ ^= rng_state_ << 13;
        rng_state_ ^= rng_state_ >> 7;
        rng_state_ ^= rng_state_ << 17;

        bool allocated = false;
        for (int t = provider_ + 1; t < kTables; ++t) {
            Entry& e = tables_[t][idx_[t]];
            if (e.useful == 0) {
                e.tag = tag_[t];
                e.ctr = taken ? 0 : -1;
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            // Decay useful bits on the candidate path.
            for (int t = provider_ + 1; t < kTables; ++t) {
                Entry& e = tables_[t][idx_[t]];
                if (e.useful > 0) {
                    --e.useful;
                }
            }
        }
    }

    shiftHistory(taken);
}

bool
TagePredictor::predictAndUpdate(uint64_t pc, bool taken)
{
    const bool predicted = TagePredictor::predict(pc);
    TagePredictor::update(pc, taken);
    return predicted;
}

std::unique_ptr<BranchPredictor>
makePredictor(const std::string& name)
{
    if (name == "pentium_m") {
        return std::make_unique<PentiumMPredictor>();
    }
    if (name == "tage") {
        return std::make_unique<TagePredictor>();
    }
    VT_FATAL("unknown branch predictor: ", name,
             " (known: pentium_m, tage)");
}

// ---- BTB ------------------------------------------------------------------

namespace {

uint32_t
btbSets(uint32_t entries, uint32_t ways)
{
    VT_ASSERT(ways > 0 && entries > 0 && entries % ways == 0,
              "BTB entries must divide into ways");
    const uint32_t sets = entries / ways;
    VT_ASSERT((sets & (sets - 1)) == 0, "BTB set count must be 2^k");
    return sets;
}

} // namespace

Btb::Btb(uint32_t entries, uint32_t ways)
    : sets_(btbSets(entries, ways), ways)
{
}

} // namespace vtrans::uarch
