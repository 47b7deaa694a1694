"""The benchmark's inputs, generated from the workload seed.

Every random choice of a workload (the sweep grid, the Zipf ranks, the
arrival gaps, the chunked catalog order) is drawn here, in Python, from
``random.Random`` streams seeded by strings, which are stable across
platforms and interpreter runs. The C++ program receives only the
resulting plan text (see layerbench.cc for its grammar).

A farm run cycles through STREAMS[workload] independent streams, each
derived from the seed and the stream index, and pools their simulated
latencies.
"""

import bisect
import random

WORKLOADS = ("sweep", "farm_zipf", "farm_chunked")

# Default seed, and a second seed held back from tuning for validating
# later performance claims (see README.md).
DEFAULT_SEED = 1
HELD_BACK_SEED = 20201019

# sweep: the fig3 crf x refs grid on the 1080p-class clip. One value is
# drawn from each stratum, so the grid always spans crf 1-51 and refs
# 1-16 while the seed moves every point.
SWEEP_VIDEO = "funny"
SWEEP_PRESET = "medium"
SWEEP_CLIP = 0.12
SWEEP_CRF_STRATA = ((1, 9), (21, 31), (43, 51))
SWEEP_REFS_STRATA = ((1, 2), (4, 8), (12, 16))

# Farms: eight vbench videos of three resolution classes.
FARM_VIDEOS = ("desktop", "holi", "presentation", "game2",
               "hall", "bike", "cat", "girl")
FARM_PRESETS = ("veryfast", "fast", "medium")
FARM_CLIP = 0.1

# farm_zipf: Zipf(1.1) popularity over 48 renditions, Poisson arrivals
# above the four-server fleet's uncached capacity (about 9000 jobs per
# simulated second at this clip length).
ZIPF_ITEMS = 48
ZIPF_S = 1.1
ZIPF_JOBS = 3000
ZIPF_RATE = 12000.0

# farm_chunked: distinct renditions only, split every CHUNK_FRAMES
# frames, at a rate that leaves the fleet idle capacity.
CHUNK_GRAPHS = 100
CHUNK_RATE = 2000.0
CHUNK_FRAMES = 2
CHUNK_CRFS = range(18, 35)
CHUNK_REFS = range(1, 5)

# Independent streams a run pools its simulated latencies over.
STREAMS = {"sweep": 1, "farm_zipf": 3, "farm_chunked": 5}

# Distinct renditions whose layer arms a traced farm repetition times.
FARM_ARM_SAMPLE = 4


def _rng(*parts):
    return random.Random(":".join(str(p) for p in parts))


def sweep_grid(seed):
    """The (crf, refs) points of the sweep, row-major."""
    rng = _rng("sweep", seed)
    crfs = [rng.randint(lo, hi) for lo, hi in SWEEP_CRF_STRATA]
    refs = [rng.randint(lo, hi) for lo, hi in SWEEP_REFS_STRATA]
    return [(c, r) for c in crfs for r in refs]


def zipf_catalog():
    """48 distinct renditions: every video x preset, twice over."""
    catalog = []
    for i in range(ZIPF_ITEMS):
        video = FARM_VIDEOS[i % len(FARM_VIDEOS)]
        preset = FARM_PRESETS[(i // len(FARM_VIDEOS)) % len(FARM_PRESETS)]
        catalog.append((video, preset, 18 + i % 17, 1 + (i // 2) % 4))
    return catalog


def zipf_stream(seed, stream):
    """(rendition, submit seconds) pairs: Zipf ranks, Poisson gaps."""
    rng = _rng("farm_zipf", seed, stream)
    catalog = zipf_catalog()
    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(catalog))]
    cdf = []
    total = 0.0
    for w in weights:
        total += w
        cdf.append(total)
    jobs = []
    t = 0.0
    for _ in range(ZIPF_JOBS):
        rank = min(bisect.bisect_left(cdf, rng.random() * total),
                   len(catalog) - 1)
        t += rng.expovariate(ZIPF_RATE)
        jobs.append((catalog[rank], t))
    return jobs


def chunked_stream(seed, stream):
    """Distinct renditions in seeded catalog order, Poisson gaps.

    The order deals the video x preset pairs round robin, each pair's crf
    and refs shuffled, so every stream holds the same mix of resolution
    classes and presets (which set most of a graph's service time) and
    the seed moves everything else.
    """
    rng = _rng("farm_chunked", seed, stream)
    pairs = [(v, p) for v in FARM_VIDEOS for p in FARM_PRESETS]
    rng.shuffle(pairs)
    per_pair = []
    for v, p in pairs:
        renditions = [(v, p, c, r) for c in CHUNK_CRFS for r in CHUNK_REFS]
        rng.shuffle(renditions)
        per_pair.append(renditions)
    catalog = [rendition for deal in zip(*per_pair) for rendition in deal]
    jobs = []
    t = 0.0
    for rendition in catalog[:CHUNK_GRAPHS]:
        t += rng.expovariate(CHUNK_RATE)
        jobs.append((rendition, t))
    return jobs


def plan_text(workload, seed, stream, traced, check_attribution, workers,
              setup_only=False):
    """The plan one repetition's process reads on stdin."""
    lines = ["workload " + workload,
             "traced %d" % int(traced),
             "check_attribution %d" % int(check_attribution),
             "setup_only %d" % int(setup_only)]
    if workload == "sweep":
        lines += ["clip %r" % SWEEP_CLIP, "workers 1"]
        lines += ["job %s %s %d %d 0" % (SWEEP_VIDEO, SWEEP_PRESET, c, r)
                  for c, r in sweep_grid(seed)]
        return "\n".join(lines) + "\n"
    if workload == "farm_zipf":
        jobs = zipf_stream(seed, stream)
    elif workload == "farm_chunked":
        jobs = chunked_stream(seed, stream)
        lines.append("chunk_frames %d" % CHUNK_FRAMES)
    else:
        raise ValueError("unknown workload: %s" % workload)
    lines += ["clip %r" % FARM_CLIP, "workers %d" % workers,
              "sample %d" % FARM_ARM_SAMPLE]
    lines += ["job %s %s %d %d %.9f" % (v, p, c, r, t)
              for (v, p, c, r), t in jobs]
    return "\n".join(lines) + "\n"
