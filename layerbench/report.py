"""Aggregates repetitions into the benchmark's metrics and ledger.

Pure functions over the JSON objects layerbench.cc prints, one per
repetition, so the statistics can be tested without running anything.

Clocks: ``host`` is what vtrans takes to run (steady_clock); ``sim`` is
what the modelled core or fleet would take (the farm's event clock).
"""

import math
import statistics

import workloads

# name -> (unit, better). Every workload reports all of them; README.md
# gives each metric's clock and layer.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "sim_mean_ms": ("ms", "lower"),
    "sim_tail_ms": ("ms", "lower"),
    "ok_frac": ("fraction", "higher"),
}

PER_LAYER = {
    "codec.decode_s": ("s", "lower"),
    "codec.transcode_s": ("s", "lower"),
    "trace.events": ("count", "lower"),
    "trace.emit_s": ("s", "lower"),
    "uarch.model_s": ("s", "lower"),
    "uarch.mev_per_s": ("Mev/s", "higher"),
    "uarch.sim_mips": ("Minstr/s", "higher"),
    "uarch.sim_instructions": ("count", "lower"),
    "uarch.sim_cycles": ("count", "lower"),
    "obs.attr_s": ("s", "lower"),
    "core.self_s": ("s", "lower"),
    "core.run_s": ("s", "lower"),
    "core.residual_s": ("s", "lower"),
    "farm.submit_s": ("s", "lower"),
    "farm.drain_s": ("s", "lower"),
    "farm.control_s": ("s", "lower"),
    "farm.execute_s": ("s", "lower"),
    "farm.queue_wait_ms": ("ms", "lower"),
    "farm.util": ("fraction", "lower"),
    "farm.pred_err": ("fraction", "lower"),
    "farm.retries": ("count", "lower"),
    "farm.shed": ("count", "lower"),
    "cache.lookups": ("count", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.inflight_waits": ("count", "lower"),
    "cache.evictions": ("count", "lower"),
    "cache.bytes": ("bytes", "lower"),
    "cache.job_hit_frac": ("fraction", "higher"),
    "chunk.split_s": ("s", "lower"),
    "chunk.segments": ("count", "lower"),
    "chunk.stitch_s": ("s", "lower"),
    "chunk.stitch_bytes": ("bytes", "lower"),
    "chunk.delta_psnr_db": ("dB", "higher"),
}

# Percentile levels a tail may be reported at, highest first.
TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def tail_level(n):
    """The highest level with at least MIN_BEYOND samples beyond it.

    Below 2 * MIN_BEYOND samples no level qualifies and the tail is the
    maximum (reported as level 100).
    """
    for p in TAIL_LEVELS:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return 100.0


def percentile(values, p):
    """The p-th percentile by linear interpolation (vtrans::percentile)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def spread(values):
    """Interquartile range with four or more samples, else the range."""
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        return q[2] - q[0]
    return max(values) - min(values)


def verdict(workload, reps):
    """(correct, attempted, failed, failed check names) over repetitions.

    Every operation (sweep point, farm job) counts as attempted; one that
    failed, was shed, lost its record or failed an output check counts as
    failed. Any failed check makes the run incorrect. A repetition that
    reran a stream must reproduce that stream's output digest.
    """
    attempted = sum(int(r["ops"]) for r in reps)
    failed = sum(int(r["failed_ops"]) for r in reps)
    bad = sorted({name for r in reps
                  for name, ok in r["checks"].items() if not ok})
    streams = workloads.STREAMS[workload]
    if any(r["digest"] != reps[i % streams]["digest"]
           for i, r in enumerate(reps)):
        bad.append("rep_identity")
    return not bad and attempted > 0, attempted, failed, bad


def latency_sample(workload, reps):
    """The simulated latency sample: one grid, or each farm stream once.

    Repetition r ran stream r mod STREAMS[workload], so the first
    STREAMS[workload] repetitions hold every stream exactly once.
    """
    first = reps[:workloads.STREAMS[workload]]
    return [v for r in first for v in r["sim_ms"]]


def host_wall(workload, reps):
    """wall_s of a run: see README.md, "Host time on a shared machine".

    Contention from other tenants only ever slows a repetition, so a run
    reports the fastest time it saw, over a repetition count that
    --seconds alone fixes. The sweep's points run serially and
    identically in every repetition, so its wall time is the sum over
    points of each point's fastest repetition. A farm drain is one
    parallel region, so a farm run takes its fastest repetition.
    """
    if workload == "sweep":
        return sum(min(times) for times in zip(*(r["point_s"]
                                                  for r in reps)))
    return min(r["wall_s"] for r in reps)


def setup_seconds(reps, setups=()):
    """setup_s: the median over every repetition's and set-up-only
    process's set-up."""
    return statistics.median([r["setup_s"] for r in reps] + list(setups))


def end_to_end(workload, reps, setups=()):
    """Every end-to-end metric's value."""
    sample = latency_sample(workload, reps)
    _, attempted, failed, _ = verdict(workload, reps)
    return {
        "setup_s": setup_seconds(reps, setups),
        "wall_s": host_wall(workload, reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "sim_mean_ms": statistics.fmean(sample),
        "sim_tail_ms": percentile(sample, tail_level(len(sample))),
        "ok_frac": 1.0 - failed / attempted,
    }


def layer_values(rep):
    """One traced repetition's per-layer metrics, derived ones included.

    core.residual_s is the sweep's untraced wall time minus its arms. On
    the farms the arms sample a few renditions of a parallel drain, so
    no such difference is a layer and the residual reads 0.
    """
    v = {name: 0.0 for name in PER_LAYER}
    v.update({k: float(x) for k, x in rep["layers"].items() if k in v})
    if v["uarch.model_s"] > 0:
        v["uarch.mev_per_s"] = v["trace.events"] / v["uarch.model_s"] / 1e6
    if rep["workload"] == "sweep":
        v["core.residual_s"] = rep["wall_s"] - v["core.run_s"]
    return v


def per_layer(reps):
    """Medians over traced repetitions of every per-layer metric."""
    rows = [layer_values(r) for r in reps]
    return {name: statistics.median(row[name] for row in rows)
            for name in PER_LAYER}


def metric_json(values, table):
    return {name: {"value": values[name], "unit": table[name][0]}
            for name in table}


def result_line(workload, reps, traced, setups=()):
    """The object the run prints last, and the failed check names."""
    correct, attempted, failed, bad = verdict(workload, reps)
    if traced:
        metrics = metric_json(per_layer(reps), PER_LAYER)
    else:
        metrics = metric_json(end_to_end(workload, reps, setups), END_TO_END)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, bad


SWEEP_ROWS = ("codec.transcode_s", "trace.emit_s", "uarch.model_s",
              "core.self_s", "obs.attr_s")
FARM_ROWS = ("farm.submit_s", "farm.control_s", "farm.execute_s")


def ledger(workload, reps):
    """The traced run's layer table, as printable lines.

    On the sweep the rows are differences of adjacent arms over the same
    points, so they telescope to core.run_s, and the residual is the rest
    of the untraced wall time of the same processes; the table adds up
    when the median residual lies within the spread of those wall times.
    On the farms the rows split the timed region itself (execute_s is
    drain_s minus control_s), so they add up by construction and no
    verdict is printed; the arms sampled on a few renditions show how one
    instrumented run divides between the layers below the farm.
    """
    layers = per_layer(reps)
    walls = [r["wall_s"] for r in reps]
    wall = statistics.median(walls)
    width = max(len(n) for n in PER_LAYER) + 2
    lines = ["layer ledger: %s, medians of %d traced repetitions, host "
             "seconds" % (workload, len(reps))]

    def row(name, value, base, indent="  "):
        share = 100.0 * value / base if base else 0.0
        lines.append("%s%-*s %10.4f  %6.1f%%" % (indent, width, name, value,
                                                 share))

    if workload == "sweep":
        for name in SWEEP_ROWS:
            row(name, layers[name], wall)
        residual = layers["core.residual_s"]
        row("core.residual_s", residual, wall)
        row("wall_s (untraced)", wall, wall)
        limit = spread(walls)
        lines.append("  core.residual_s per repetition: "
                     + " ".join("%.4f" % layer_values(r)["core.residual_s"]
                                for r in reps))
        lines.append("  |residual| %.4f vs spread of untraced wall_s %.4f "
                     "over %d repetitions: %s"
                     % (abs(residual), limit, len(walls),
                        "adds up" if abs(residual) <= limit else
                        "outside the spread"))
        lines.append("  tracing overhead (traced - untraced wall_s) %.4f"
                     % (layers["core.run_s"] - wall))
        return lines

    for name in FARM_ROWS:
        row(name, layers[name], wall)
    row("wall_s (untraced)", wall, wall)
    lines.append("  tracing overhead (traced - untraced wall_s) %.4f"
                 % (layers["farm.submit_s"] + layers["farm.drain_s"] - wall))
    run = layers["core.run_s"]
    lines.append("  sampled arms, %d renditions:"
                 % int(reps[0]["layers"]["arms.runs"]))
    for name in SWEEP_ROWS:
        row(name, layers[name], run, indent="    ")
    row("core.run_s", run, run, indent="    ")
    return lines
