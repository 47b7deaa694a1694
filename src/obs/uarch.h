#ifndef VTRANS_OBS_UARCH_H_
#define VTRANS_OBS_UARCH_H_

/**
 * @file
 * The bridge between the core timing model's per-site µarch attribution
 * (uarch::CoreModel with CoreParams::attribute_sites) and the obs
 * reporting layer: process-wide toggles that instrumented runs consult
 * (attribution is setHotspotsEnabled by another name), the merge that
 * folds a finished model's SiteUarch tallies into the HotspotReport, and
 * the phase time-series exporter that renders PhaseSamples as Chrome
 * trace-event counter tracks ("ph":"C") next to the job-lifecycle spans.
 */

#include <cstdint>
#include <string>

#include "obs/hotspots.h"
#include "obs/spans.h"
#include "uarch/core.h"

namespace vtrans::obs {

/** Turns process-wide per-site µarch attribution on/off (default off).
 *  The same flag as setHotspotsEnabled: when on, core::runInstrumented
 *  sets CoreParams::attribute_sites and merges the finished model's
 *  tallies into hotspotReport(). */
void setUarchAttributionEnabled(bool enabled);

/** True when instrumented runs should attribute µarch events to sites. */
bool uarchAttributionEnabled();

/** Process-wide default phase-sampling window in retired instructions
 *  (0 = off, the default). Instrumented runs whose own
 *  CoreParams::phase_window is 0 inherit this value. */
void setPhaseWindow(uint64_t instructions);
uint64_t phaseWindow();

/** Merges class `cls` of a finished model's per-site attribution into
 *  `report`, keyed by registry site name (thread-safe through the
 *  report's lock), and derives each site's instructions and code bytes
 *  from its static shape. The only way tallies enter a HotspotReport; a
 *  no-op when the class ran without CoreParams::attribute_sites. */
void mergeAttribution(HotspotReport* report, const uarch::CoreModel& model,
                      size_t cls = 0);

/** The trace process id phase counter tracks are grouped under (clear
 *  of the farm's simulated-time and the sweep's wall-time pids). */
inline constexpr int64_t kPhaseTrackPid = 9;

/** Emits class `cls`'s phase time-series as Chrome counter events on
 *  `tracer`, timestamped in simulated microseconds: per window, a
 *  "topdown <label>" event with the five slot-class shares (stacked)
 *  and a "rates <label>" event with IPC and the MPKIs. No-op when the
 *  model has no samples or `tracer` is null. */
void emitPhaseCounters(SpanTracer* tracer, const uarch::CoreModel& model,
                       const std::string& label, size_t cls = 0);

} // namespace vtrans::obs

#endif // VTRANS_OBS_UARCH_H_
