#ifndef VTRANS_UARCH_STEPPING_H_
#define VTRANS_UARCH_STEPPING_H_

/**
 * @file
 * The instruction-stepped core: the model as it was before the
 * event-driven fast-forward and the pipelined functional stage
 * (DESIGN.md §13), kept as a test oracle for uarch::CoreModel. It
 * dispatches one retired instruction at a time, walks every fetch and
 * data line through the full cache path, predicts and updates the branch
 * predictor in two calls, and scans the MSHRs on every missing load, all
 * on the calling thread. It shares only the window and clock helpers
 * (uarch/timing.h) with CoreModel.
 *
 * Fed the same probe stream, it must reproduce one CoreModel class's
 * CoreStats, per-site attribution and phase samples bit for bit. The
 * differential suite (tests/test_uarch.cc, CoreDifferential.*) and the
 * probe microbench's --min-model-speedup gate hold CoreModel to that.
 * Nothing else links this library.
 */

#include <memory>
#include <vector>

#include "trace/probe.h"
#include "uarch/core.h"

namespace vtrans::uarch {

class SteppingCore : public trace::ProbeSink
{
  public:
    /** One class on `layout` (null = the default layout). */
    explicit SteppingCore(const CoreParams& params,
                          std::shared_ptr<const trace::CodeLayout> layout = {});
    ~SteppingCore() override;

    SteppingCore(const SteppingCore&) = delete;
    SteppingCore& operator=(const SteppingCore&) = delete;

    // Batches replay through these (the ProbeSink default).
    void onBlock(const trace::CodeSite& site) override;
    void onBranch(const trace::CodeSite& site, bool taken) override;
    void onLoad(uint64_t addr, uint32_t bytes) override;
    void onStore(uint64_t addr, uint32_t bytes) override;

    /** Runs the clock to the last retirement and returns the stats. */
    CoreStats finish();

    // Valid after finish(), with CoreModel's meaning for one class.
    const CoreStats& stats() const;
    const std::vector<SiteUarch>& attributionPerSite() const;
    const SiteUarch& attributionUnattributed() const;
    const std::vector<PhaseSample>& phaseSamples() const;

  private:
    struct State;
    std::unique_ptr<State> s_;
};

} // namespace vtrans::uarch

#endif // VTRANS_UARCH_STEPPING_H_
