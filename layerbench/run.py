#!/usr/bin/env python3
"""The layer-ledger benchmark of vtrans.

Run from the root of a vtrans checkout:

    python3 layerbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Builds layerbench.cc against ../src (into $CARGO_TARGET_DIR, default
.bench_build), generates the workload's inputs from --seed, runs a
number of repetitions fixed by --seconds, each in a fresh process,
checks the outputs and prints one JSON object as the last line of
stdout. --trace 0 reports the end-to-end
metrics; --trace 1 the per-layer metrics and the layer ledger. Exits 1
when the build fails or an output check fails. See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Host seconds one repetition takes on the reference machine (README.md,
# "First measured ledger"), untraced and traced. A run makes
# round(--seconds / this) repetitions, at least MIN_REPS and every farm
# stream once, so the count depends on --seconds alone: a slower commit
# or a noisy machine makes the run longer, never its statistics coarser.
REP_SECONDS = {
    False: {"sweep": 3.5, "farm_zipf": 6.5, "farm_chunked": 6.5},
    True: {"sweep": 12.5, "farm_zipf": 10.0, "farm_chunked": 10.0},
}
MIN_REPS = {False: 3, True: 3}
# Processes an untraced run adds that only set up and stop. One set-up
# takes 0.15-0.4 s and is as noisy as any host time, so setup_s is the
# median over these and every repetition's set-up.
SETUP_ONLY = 15
DEADLINE_SECONDS = 170.0


def build(build_dir):
    """Configures and builds the benchmark; returns the binary or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", BENCH_DIR, "-B", build_dir],
             ["cmake", "--build", build_dir, "--target", "layerbench",
              "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("layerbench: %s: %s" % (" ".join(step[:2]), err),
                  file=sys.stderr)
            return None
        if done.returncode != 0:
            return None
    binary = os.path.join(build_dir, "layerbench")
    return binary if os.path.isfile(binary) else None


def git_sha():
    """HEAD of the checkout, never of an enclosing repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """sha256 over the path and bytes of every file under src/."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for top, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(top, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def repetitions(workload, traced, seconds):
    """The number of repetitions a run makes (see REP_SECONDS)."""
    planned = int(round(seconds / REP_SECONDS[traced][workload]))
    return max(planned, MIN_REPS[traced], workloads.STREAMS[workload])


def run_process(binary, plan, name, started):
    """Runs the program on one plan; its result object, or None."""
    budget = DEADLINE_SECONDS - (time.monotonic() - started)
    try:
        done = subprocess.run([binary], input=plan, capture_output=True,
                              text=True, timeout=max(1.0, budget))
    except subprocess.TimeoutExpired:
        print("layerbench: %s passed the deadline" % name, file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print("layerbench: %s exited %d" % (name, done.returncode),
              file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_reps(binary, args, workers, started):
    """Runs repetitions(), each in a fresh process.

    Repetition r runs stream r mod STREAMS[workload], so repeats of a
    stream must reproduce its digest exactly.
    """
    streams = workloads.STREAMS[args.workload]
    results = []
    for rep in range(repetitions(args.workload, bool(args.trace),
                                 args.seconds)):
        plan = workloads.plan_text(args.workload, args.seed, rep % streams,
                                   traced=bool(args.trace),
                                   check_attribution=(rep == 0
                                                      and not args.trace),
                                   workers=workers)
        result = run_process(binary, plan, "repetition %d" % rep, started)
        if result is None:
            return None
        results.append(result)
    return results


def run_setups(binary, args, workers, started):
    """setup_s of SETUP_ONLY fresh processes that stop after set-up."""
    plan = workloads.plan_text(args.workload, args.seed, 0, traced=False,
                               check_attribution=False, workers=workers,
                               setup_only=True)
    setups = []
    for i in range(SETUP_ONLY):
        result = run_process(binary, plan, "set-up %d" % i, started)
        if result is None:
            return None
        setups.append(result["setup_s"])
    return setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("layerbench: build failed (cmake output above; the checkout "
              "needs src/ beside layerbench/)", file=sys.stderr)
        return 1
    workers = min(4, os.cpu_count() or 1)
    measured = time.monotonic()
    results = run_reps(binary, args, workers, measured)
    if results is None:
        return 1
    setups = [] if args.trace else run_setups(binary, args, workers,
                                              measured)
    if setups is None:
        return 1

    manifest = dict(results[0]["provenance"])
    manifest.update({
        "git_sha": git_sha(), "src_digest": source_digest(),
        "workload": args.workload, "seed": args.seed,
        "held_back_seed": workloads.HELD_BACK_SEED,
        "trace": args.trace, "repetitions": len(results), "workers": workers,
        "setup_only": len(setups),
        "clip_seconds": (workloads.SWEEP_CLIP if args.workload == "sweep"
                         else workloads.FARM_CLIP),
        "measured_seconds": round(time.monotonic() - measured, 3),
    })
    return finish(args.workload, bool(args.trace), results, manifest, setups)


def finish(workload, traced, results, manifest, setups=()):
    """Prints the run's report, the result object last; the exit code."""
    print("manifest " + json.dumps(manifest, sort_keys=True))
    walls = [r["wall_s"] for r in results]
    print("wall_s over %d repetitions: min %.4f median %.4f spread %.4f"
          % (len(walls), min(walls), statistics.median(walls),
             report.spread(walls)))
    if setups:
        print("setup_s over %d set-ups: median %.4f spread %.4f"
              % (len(results) + len(setups),
                 report.setup_seconds(results, setups),
                 report.spread([r["setup_s"] for r in results]
                               + list(setups))))
    sample = report.latency_sample(workload, results)
    print("sim latency sample: n=%d, tail at p%g"
          % (len(sample), report.tail_level(len(sample))))
    print("output digests: " + " ".join(r["digest"] for r in results))
    if traced:
        print("\n".join(report.ledger(workload, results)))
    line, bad = report.result_line(workload, results, traced, setups)
    if bad:
        print("layerbench: failed checks: " + ", ".join(bad),
              file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
