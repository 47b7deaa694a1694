#include "obs/uarch.h"

#include <atomic>
#include <vector>

namespace vtrans::obs {

namespace {
std::atomic<uint64_t> g_phase_window{0};

/** A model's per-site tallies plus the fields derived from `site`'s
 *  static shape (null for the unattributed bucket, which has no blocks
 *  or branches). */
SiteCounters
withDerived(const uarch::SiteUarch& u, const trace::CodeSite* site)
{
    SiteCounters c;
    static_cast<uarch::SiteUarch&>(c) = u;
    c.instructions = u.branches + u.loads + u.stores;
    if (site != nullptr) {
        c.instructions += u.blocks * site->instructions;
        c.code_bytes = u.blocks * site->bytes;
    }
    return c;
}

} // namespace

void
setUarchAttributionEnabled(bool enabled)
{
    setHotspotsEnabled(enabled);
}

bool
uarchAttributionEnabled()
{
    return hotspotsEnabled();
}

void
setPhaseWindow(uint64_t instructions)
{
    g_phase_window.store(instructions, std::memory_order_relaxed);
}

uint64_t
phaseWindow()
{
    return g_phase_window.load(std::memory_order_relaxed);
}

void
mergeAttribution(HotspotReport* report, const uarch::CoreModel& model,
                 size_t cls)
{
    if (report == nullptr || !model.attributionEnabled(cls)) {
        return;
    }
    const std::vector<uarch::SiteUarch>& per_site =
        model.attributionPerSite(cls);
    const auto& sites = trace::registry().sites();
    std::lock_guard<std::mutex> lock(report->mu_);
    for (size_t id = 0; id < per_site.size() && id < sites.size(); ++id) {
        const uarch::SiteUarch& u = per_site[id];
        // Every charge lands on a site its block or branch made current,
        // so a site with neither saw nothing at all.
        if (u.blocks == 0 && u.branches == 0) {
            continue;
        }
        report->by_name_[sites[id]->name].merge(withDerived(u, sites[id]));
    }
    report->unattributed_.merge(
        withDerived(model.attributionUnattributed(cls), nullptr));
}

void
emitPhaseCounters(SpanTracer* tracer, const uarch::CoreModel& model,
                  const std::string& label, size_t cls)
{
    using uarch::perKilo;
    const std::vector<uarch::PhaseSample>& samples = model.phaseSamples(cls);
    if (tracer == nullptr || samples.empty()) {
        return;
    }
    const double freq_ghz = model.params(cls).freq_ghz;
    // cycles -> simulated microseconds (cycles / (GHz * 1e9) * 1e6).
    const double us_per_cycle = 1.0 / (freq_ghz * 1e3);
    const int64_t tid = threadTid();
    tracer->setTrackName(kPhaseTrackPid, tid,
                         "uarch phase (sim time, thread "
                             + std::to_string(tid) + ")");

    uarch::PhaseSample prev; // zero: the first window starts at t=0.
    for (const uarch::PhaseSample& s : samples) {
        const uint64_t d_cycles = s.cycles - prev.cycles;
        const uint64_t d_instr = s.instructions - prev.instructions;
        if (d_cycles == 0 && d_instr == 0) {
            prev = s;
            continue;
        }
        // Counter steps plot from their timestamp onward, so each window
        // is stamped at its *start* to span the window in the viewer.
        const double ts_us = static_cast<double>(prev.cycles) * us_per_cycle;
        const uint64_t d_slots =
            (s.slots_retiring - prev.slots_retiring)
            + (s.slots_frontend - prev.slots_frontend)
            + (s.slots_bad_spec - prev.slots_bad_spec)
            + (s.slots_backend_memory - prev.slots_backend_memory)
            + (s.slots_backend_core - prev.slots_backend_core);
        const double slot_total =
            d_slots == 0 ? 1.0 : static_cast<double>(d_slots);

        Span topdown;
        topdown.category = "uarch";
        topdown.name = "topdown " + label;
        topdown.pid = kPhaseTrackPid;
        topdown.tid = tid;
        topdown.ts_us = ts_us;
        topdown.values = {
            {"retiring",
             (s.slots_retiring - prev.slots_retiring) / slot_total},
            {"frontend",
             (s.slots_frontend - prev.slots_frontend) / slot_total},
            {"bad_spec",
             (s.slots_bad_spec - prev.slots_bad_spec) / slot_total},
            {"backend_memory",
             (s.slots_backend_memory - prev.slots_backend_memory)
                 / slot_total},
            {"backend_core",
             (s.slots_backend_core - prev.slots_backend_core) / slot_total},
        };
        tracer->recordCounter(std::move(topdown));

        Span rates;
        rates.category = "uarch";
        rates.name = "rates " + label;
        rates.pid = kPhaseTrackPid;
        rates.tid = tid;
        rates.ts_us = ts_us;
        rates.values = {
            {"ipc", d_cycles == 0 ? 0.0
                                  : static_cast<double>(d_instr)
                                        / static_cast<double>(d_cycles)},
            {"branch_mpki",
             perKilo(s.branch_mispredicts - prev.branch_mispredicts,
                     d_instr)},
            {"l1d_mpki", perKilo(s.l1d_misses - prev.l1d_misses, d_instr)},
            {"l2_mpki", perKilo(s.l2_misses - prev.l2_misses, d_instr)},
            {"l3_mpki", perKilo(s.l3_misses - prev.l3_misses, d_instr)},
            {"l1i_mpki", perKilo(s.l1i_misses - prev.l1i_misses, d_instr)},
        };
        tracer->recordCounter(std::move(rates));
        prev = s;
    }
}

} // namespace vtrans::obs
