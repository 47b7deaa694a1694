#include "uarch/stepping.h"

#include <algorithm>

#include "common/status.h"
#include "uarch/branch.h"
#include "uarch/cache.h"
#include "uarch/timing.h"
#include "uarch/tlb.h"

namespace vtrans::uarch {

namespace {

/** Result of a hierarchy access: total latency plus the miss path. */
struct AccessResult
{
    int latency = 0;
    bool l1_miss = false;
    bool l2_miss = false;
    bool l3_miss = false;
    bool l4_miss = false;
};

/** One access of `addr` through an L1 and the levels behind it: the L1
 *  latency on a hit, else the miss path, filling every level on the way
 *  back. */
AccessResult
hierarchyAccess(Cache& l1, OuterLevels& outer, const LatencyParams& lat,
                uint64_t addr)
{
    AccessResult r{lat.l1, false, false, false, false};
    if (l1.access(addr)) {
        return r;
    }
    const uint32_t level = outer.walk(addr);
    r.l1_miss = true;
    r.l2_miss = level >= kServedL3;
    r.l3_miss = level >= kServedL4;
    r.l4_miss = level == kServedMemory && outer.hasL4();
    r.latency += missLatency(level, lat);
    return r;
}

/** The shared windows and clock, dispatched one instruction at a time. */
struct SteppingTiming : TimingState
{
    using TimingState::TimingState;

    void dispatch(uint32_t count);
    void dispatchBlock(const trace::CodeSite& site);
    uint64_t dispatchBranch(const trace::CodeSite& site);
    uint64_t loadComplete(int latency);
    /** Charges one data line's outcome to the stats and the site. */
    void chargeData(const AccessResult& r);
};

void
SteppingTiming::dispatch(uint32_t count)
{
    if (attr_cur == nullptr && next_phase == UINT64_MAX) {
        // One step per retired instruction.
        for (uint32_t i = 0; i < count; ++i) {
            // Frontend availability gates dispatch.
            if (fetch_ready > cur_cycle) {
                advanceTo(fetch_ready, fetch_reason);
                drain();
            }
            ++stats.slots_retiring;
            ++stats.instructions;
            ++slots_in_cycle;
            if (slots_in_cycle == static_cast<uint32_t>(params.width)) {
                ++cur_cycle;
                slots_in_cycle = 0;
                drain();
            }
        }
        return;
    }
    // Instrumented: per-site charges accumulate in locals and post once
    // after the loop; the phase check stays per instruction so samples
    // land on window boundaries.
    uint64_t cycles_rolled = 0;
    for (uint32_t i = 0; i < count; ++i) {
        if (fetch_ready > cur_cycle) {
            advanceTo(fetch_ready, fetch_reason);
            drain();
        }
        ++stats.slots_retiring;
        ++stats.instructions;
        if (stats.instructions >= next_phase) {
            capturePhase();
        }
        ++slots_in_cycle;
        if (slots_in_cycle == static_cast<uint32_t>(params.width)) {
            ++cur_cycle;
            slots_in_cycle = 0;
            ++cycles_rolled;
            drain();
        }
    }
    if (attr_cur != nullptr) {
        attr_cur->slots_retiring += count;
        attr_cur->cycles += cycles_rolled;
    }
}

void
SteppingTiming::dispatchBlock(const trace::CodeSite& site)
{
    // The block's ALU instructions complete one cycle after dispatch and
    // issue immediately — unless the block consumes just-loaded data
    // (BlockLoadDep), in which case its work dwells in the reservation
    // station until the feeding load returns. Batches larger than a
    // window structure flow through in chunks.
    const bool load_dep = site.kind == trace::SiteKind::BlockLoadDep;
    uint32_t remaining = site.instructions;
    while (remaining > 0) {
        const uint32_t chunk = std::min(remaining, max_chunk);
        resolveFrontend();
        ensureRobSpace(chunk);
        ensureRsSpace(chunk);
        uint64_t issue = cur_cycle + 1;
        if (load_dep && last_load_complete > issue) {
            issue = last_load_complete;
        }
        robPush(issue, chunk, load_dep);
        // RS dwell is bounded (entries leave at issue; the scheduler does
        // not hold them for a full memory round trip).
        rsPush(std::min(issue, cur_cycle + 15), chunk, load_dep);
        dispatch(chunk);
        remaining -= chunk;
    }
}

uint64_t
SteppingTiming::dispatchBranch(const trace::CodeSite& site)
{
    ++stats.branches;
    resolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);

    // The branch resolves when its inputs are ready; load-dependent
    // branches resolve only after the feeding load returns.
    const bool load_dep = site.kind == trace::SiteKind::BranchLoadDep;
    uint64_t resolve = cur_cycle + 1;
    if (load_dep) {
        resolve = std::max(resolve, last_load_complete);
    }
    robPush(resolve, 1, false);
    rsPush(std::min(resolve, cur_cycle + 15), 1, load_dep);
    dispatch(1);
    return resolve;
}

uint64_t
SteppingTiming::loadComplete(int latency)
{
    // Miss-status-holding registers bound memory-level parallelism: a
    // miss beyond the outstanding limit starts only when the oldest one
    // completes. Every missing load prunes the completed misses first.
    uint64_t complete = cur_cycle + latency;
    if (latency > params.latencies.l1) {
        while (!mshr.empty() && mshr.front() <= cur_cycle) {
            mshr.pop_front();
        }
        if (static_cast<int>(mshr.size()) >= params.mshr_entries) {
            complete = mshr.front() + latency;
        }
        mshr.push_back(complete);
    }
    return complete;
}

void
SteppingTiming::chargeData(const AccessResult& r)
{
    ++stats.l1d_accesses;
    stats.l1d_misses += r.l1_miss ? 1 : 0;
    stats.l2_misses += r.l2_miss ? 1 : 0;
    stats.l3_misses += r.l3_miss ? 1 : 0;
    if (attr_cur != nullptr) {
        ++attr_cur->l1d_accesses;
        attr_cur->l1d_misses += r.l1_miss ? 1 : 0;
        attr_cur->l2_misses += r.l2_miss ? 1 : 0;
        attr_cur->l3_misses += r.l3_miss ? 1 : 0;
    }
}

} // namespace

struct SteppingCore::State
{
    State(const CoreParams& p,
          std::shared_ptr<const trace::CodeLayout> code_layout)
        : timing(p),
          layout(code_layout != nullptr
                     ? std::move(code_layout)
                     : std::make_shared<trace::CodeLayout>()),
          l1i("L1i", p.l1i), l1d("L1d", p.l1d),
          outer(p.l2, p.l3, p.l4_size), itlb(p.itlb_entries),
          predictor(makePredictor(p.predictor))
    {
    }

    /** Walks a data access line by line, charging each line; returns
     *  its latency (the slowest line's, at least the L1's). */
    int
    dataWalk(uint64_t addr, uint32_t bytes)
    {
        const LatencyParams& lat = timing.params.latencies;
        const uint32_t line = l1d.lineBytes();
        const uint64_t first = addr / line;
        const uint64_t last = (addr + (bytes == 0 ? 0 : bytes - 1)) / line;
        int latency = lat.l1;
        for (uint64_t l = first; l <= last; ++l) {
            const AccessResult r = hierarchyAccess(l1d, outer, lat, l * line);
            timing.chargeData(r);
            latency = std::max(latency, r.latency);
        }
        return latency;
    }

    SteppingTiming timing;
    std::shared_ptr<const trace::CodeLayout> layout;
    Cache l1i;
    Cache l1d;
    OuterLevels outer;
    Tlb itlb;
    std::unique_ptr<BranchPredictor> predictor;
    Btb btb;
    bool finished = false;
};

SteppingCore::SteppingCore(const CoreParams& params,
                           std::shared_ptr<const trace::CodeLayout> layout)
{
    validateCoreParams(params);
    s_ = std::make_unique<State>(params, std::move(layout));
}

SteppingCore::~SteppingCore() = default;

void
SteppingCore::onBlock(const trace::CodeSite& site)
{
    // Recompute the line span per event and walk every line through the
    // full cache access path.
    SteppingTiming& t = s_->timing;
    const uint64_t address = s_->layout->at(site).address;
    if (t.attr_cur != nullptr) {
        t.attr_cur = &siteBucket(t.attr_sites, site.id);
        ++t.attr_cur->blocks;
    }
    const uint32_t line = t.params.l1i.line_bytes;
    const uint64_t first = address / line;
    const uint64_t last = (address + site.bytes - 1) / line;
    const LatencyParams& lat = t.params.latencies;
    int fetch_penalty = 0;
    for (uint64_t l = first; l <= last; ++l) {
        ++t.stats.l1i_accesses;
        if (t.attr_cur != nullptr) {
            ++t.attr_cur->l1i_accesses;
        }
        const AccessResult r =
            hierarchyAccess(s_->l1i, s_->outer, lat, l * line);
        if (r.l1_miss) {
            ++t.stats.l1i_misses;
            if (t.attr_cur != nullptr) {
                ++t.attr_cur->l1i_misses;
            }
            fetch_penalty = std::max(fetch_penalty, r.latency - lat.l1);
        }
    }
    if (!s_->itlb.access(address)) {
        ++t.stats.itlb_misses;
        if (t.attr_cur != nullptr) {
            ++t.attr_cur->itlb_misses;
        }
        fetch_penalty += lat.itlb_miss;
    }
    t.delayFetch(static_cast<uint64_t>(fetch_penalty));
    t.dispatchBlock(site);
}

void
SteppingCore::onBranch(const trace::CodeSite& site, bool taken)
{
    // Separate predict() and update() virtual calls.
    SteppingTiming& t = s_->timing;
    const trace::SitePlacement place = s_->layout->at(site);
    const uint64_t address = place.address;
    taken = taken != place.invert;
    if (t.attr_cur != nullptr) {
        t.attr_cur = &siteBucket(t.attr_sites, site.id);
        ++t.attr_cur->branches;
        t.attr_cur->taken += taken ? 1 : 0;
    }
    const bool predicted = s_->predictor->predict(address);
    s_->predictor->update(address, taken);
    const uint64_t resolve = t.dispatchBranch(site);
    bool btb_hit = false;
    if (predicted != taken) {
        if (t.attr_cur != nullptr) {
            ++t.attr_cur->branch_mispredicts;
        }
    } else if (taken) {
        btb_hit = s_->btb.access(address);
        if (!btb_hit) {
            ++t.stats.btb_misses;
            if (t.attr_cur != nullptr) {
                ++t.attr_cur->btb_misses;
            }
        }
    }
    t.redirect(taken, predicted != taken, btb_hit, resolve);
}

void
SteppingCore::onLoad(uint64_t addr, uint32_t bytes)
{
    SteppingTiming& t = s_->timing;
    if (t.attr_cur != nullptr) {
        ++t.attr_cur->loads;
        t.attr_cur->load_bytes += bytes;
    }
    t.resolveFrontend();
    t.ensureRobSpace(1);
    t.ensureRsSpace(1);
    const int latency = s_->dataWalk(addr, bytes);
    const uint64_t complete = t.loadComplete(latency);
    t.last_load_complete = complete;
    t.robPush(complete, 1, true);
    t.rsPush(t.cur_cycle + std::min(latency, 15), 1, true);
    t.dispatch(1);
}

void
SteppingCore::onStore(uint64_t addr, uint32_t bytes)
{
    // Division-based line math and the store-buffer push open-coded.
    SteppingTiming& t = s_->timing;
    if (t.attr_cur != nullptr) {
        ++t.attr_cur->stores;
        t.attr_cur->store_bytes += bytes;
    }
    t.resolveFrontend();
    t.ensureRobSpace(1);
    t.ensureRsSpace(1);
    t.ensureSbSpace(1);
    const int latency = s_->dataWalk(addr, bytes);

    const uint64_t drain_time = t.cur_cycle + latency;
    const uint64_t drain_monotone = std::max(drain_time, t.sb_last_drain);
    t.sb_last_drain = drain_monotone;
    if (!t.sb.empty() && t.sb.back().time == drain_monotone) {
        t.sb.back().count += 1;
    } else {
        t.sb.push_back({drain_monotone, 1, true});
    }
    ++t.sb_count;

    t.robPush(t.cur_cycle + 1, 1, false);
    t.rsPush(t.cur_cycle + 1, 1, false);
    t.dispatch(1);
}

CoreStats
SteppingCore::finish()
{
    VT_ASSERT(!s_->finished, "finish() called twice");
    s_->finished = true;
    s_->timing.finishClock();
    s_->timing.attr_cur = nullptr;
    return s_->timing.stats;
}

const CoreStats&
SteppingCore::stats() const
{
    return s_->timing.stats;
}

const std::vector<SiteUarch>&
SteppingCore::attributionPerSite() const
{
    return s_->timing.attr_sites;
}

const SiteUarch&
SteppingCore::attributionUnattributed() const
{
    return s_->timing.attr_unattributed;
}

const std::vector<PhaseSample>&
SteppingCore::phaseSamples() const
{
    return s_->timing.phase;
}

} // namespace vtrans::uarch
