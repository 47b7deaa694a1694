#ifndef VTRANS_UARCH_BRANCH_H_
#define VTRANS_UARCH_BRANCH_H_

/**
 * @file
 * Branch direction predictors. The baseline is a Pentium-M-style hybrid
 * (bimodal + global gshare + chooser), Sniper's default for Gainestown;
 * Table IV's bs_op replaces it with TAGE. A small BTB models taken-branch
 * redirect bubbles in the frontend.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "uarch/lru.h"

namespace vtrans::uarch {

/** Direction predictor interface. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predicts the direction of the branch at `pc`. */
    virtual bool predict(uint64_t pc) = 0;

    /** Trains with the resolved direction. */
    virtual void update(uint64_t pc, bool taken) = 0;

    /**
     * Fused predict-then-train: returns what predict(pc) would have
     * returned, then trains with `taken` — the core model's per-branch
     * call. The default composes the two virtuals; concrete predictors
     * override it with a single `final` implementation whose internal
     * calls devirtualize and inline, so the hot path pays one virtual
     * dispatch per branch instead of two. Behaviour (prediction and
     * post-update table state) is identical by construction.
     */
    virtual bool
    predictAndUpdate(uint64_t pc, bool taken)
    {
        const bool predicted = predict(pc);
        update(pc, taken);
        return predicted;
    }

    /** Predictor family name ("pentium_m", "tage"). */
    virtual std::string name() const = 0;
};

/**
 * Pentium-M-like hybrid: a 4K-entry bimodal table, a gshare component
 * with 12 bits of global history, and a 4K-entry chooser trained toward
 * whichever component was right.
 */
class PentiumMPredictor : public BranchPredictor
{
  public:
    PentiumMPredictor();

    bool predict(uint64_t pc) override;
    void update(uint64_t pc, bool taken) override;
    bool predictAndUpdate(uint64_t pc, bool taken) final;
    std::string name() const override { return "pentium_m"; }

  private:
    static constexpr int kTableBits = 12;
    static constexpr uint32_t kTableSize = 1u << kTableBits;
    static constexpr uint32_t kIndexMask = kTableSize - 1; ///< Precomputed.
    static constexpr uint64_t kNoPc = UINT64_MAX;

    uint32_t bimodalIndex(uint64_t pc) const;
    uint32_t gshareIndex(uint64_t pc) const;

    std::vector<uint8_t> bimodal_;
    std::vector<uint8_t> gshare_;
    std::vector<uint8_t> chooser_;
    uint32_t ghr_ = 0;

    // Indices computed by predict(), reused by the paired update() call
    // (ghr_ only shifts at the end of update, so they stay valid).
    uint64_t last_pc_ = kNoPc;
    uint32_t last_bi_ = 0;
    uint32_t last_gi_ = 0;
};

/**
 * TAGE: a bimodal base predictor plus N partially-tagged tables indexed
 * with geometrically growing global-history lengths; longest matching
 * tag wins, with useful-bit guided allocation on mispredicts.
 *
 * Each table's index and tag hash fold its history length into 10, 8
 * and 7 bits by XOR. The fold restarts at every 64-bit history word:
 * history bit j (0 = newest) lands on fold bit ((j mod 64) mod width).
 * The twelve folds are kept as registers and updated in O(1) per
 * branch (see shiftHistory()) instead of being refolded from the
 * history words.
 */
class TagePredictor : public BranchPredictor
{
  public:
    static constexpr int kTables = 4;
    static constexpr int kTableBits = 10;
    static constexpr int kHistLengths[kTables] = {5, 15, 44, 130};
    /** Fold widths: the index hash, then the two tag hashes. */
    static constexpr int kFolds = 3;
    static constexpr int kFoldWidths[kFolds] = {kTableBits, 8, 7};

    TagePredictor();

    bool predict(uint64_t pc) override;
    void update(uint64_t pc, bool taken) override;
    bool predictAndUpdate(uint64_t pc, bool taken) final;
    std::string name() const override { return "tage"; }

    /** Fold register `fold` (index into kFoldWidths) of `table`. */
    uint32_t foldRegister(int table, int fold) const
    {
        return folds_[table][fold].value;
    }

    /** Global history word `i` of 4 (bit 0 of word 0 is the newest). */
    uint64_t historyWord(int i) const { return ghist_[i]; }

  private:
    static constexpr uint32_t kTableSize = 1u << kTableBits;

    struct Entry
    {
        uint16_t tag = 0;
        int8_t ctr = 0;   ///< Signed saturating [-4, 3]; >= 0 means taken.
        uint8_t useful = 0;
    };

    /** One fold register and the constants of its O(1) update. */
    struct Fold
    {
        uint32_t value = 0;
        uint32_t width = 0;
        uint32_t mask = 0;
        uint32_t out_shift = 0; ///< Rotated position of the leaving bit.
        /// Rotated positions of history bits 63 and 127, which must move
        /// to fold bit 0 when they cross into the next word; 0 when the
        /// rotation already puts them there or the bit is not folded.
        uint32_t cross_shift[2] = {0, 0};
    };

    uint32_t index(uint64_t pc, int table) const;
    uint16_t tag(uint64_t pc, int table) const;

    /** Shifts `taken` into the history and updates every fold. */
    void shiftHistory(bool taken);

    std::vector<uint8_t> base_; ///< Bimodal 2-bit counters.
    uint32_t base_mask_;        ///< base_.size() - 1, precomputed.
    std::vector<Entry> tables_[kTables];
    uint64_t ghist_[4] = {}; ///< 256 bits of global history.
    Fold folds_[kTables][kFolds];
    uint64_t rng_state_ = 0x12345678;

    // Prediction bookkeeping between predict() and update(): the
    // per-table indices and tags reused by the paired update().
    int provider_ = -1;
    int altpred_table_ = -1;
    bool provider_pred_ = false;
    bool altpred_ = false;
    uint64_t last_pc_ = 0;
    uint32_t base_idx_ = 0;
    uint32_t idx_[kTables] = {};
    uint16_t tag_[kTables] = {};
};

/** Creates a predictor by family name. */
std::unique_ptr<BranchPredictor> makePredictor(const std::string& name);

/**
 * Branch target buffer, modelled as tag presence only: a taken branch
 * whose PC misses the BTB costs a frontend redirect bubble.
 */
class Btb
{
  public:
    static constexpr uint32_t kEntries = 2048;
    static constexpr uint32_t kWays = 4;

    Btb(uint32_t entries = kEntries, uint32_t ways = kWays);

    /** Looks up `pc`, inserting on miss. @return hit? */
    bool access(uint64_t pc) { return sets_.access(pc >> 2); }

    uint64_t accesses() const { return sets_.accesses(); }
    uint64_t misses() const { return sets_.misses(); }

  private:
    LruSets sets_;
};

} // namespace vtrans::uarch

#endif // VTRANS_UARCH_BRANCH_H_
