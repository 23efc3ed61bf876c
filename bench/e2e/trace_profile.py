"""Per-layer self times from the Chrome trace of one traced bench_e2e trial.

Every instant of the traced training wall is charged to the most recently
started span that is still open, across all processes of the run. On one
thread this is the usual self time: a span's duration minus the part its
child spans cover. Under the proc runtime the coordinator and its workers
take turns, so the same rule charges a worker's step to the worker's
stage spans and the coordinator's handling of an RPC to its ps.* spans,
instead of charging all of it to the coordinator's waiting ps.epoch span.
The rule assumes one compute thread per process, which the benchmark
always uses.
"""

import heapq
import json
from collections import defaultdict

# Layer -> the spans the library emits for it. The first span of each
# tuple counts the layer's calls.
LAYERS = {
    "core.sample": ("pipeline.sample", "prefetch.window", "prefetch.count_only"),
    "core.cache": ("cache.rebuild", "cache.filter", "cache.assign"),
    "core.pull": ("pipeline.pull",),
    "core.compute": ("pipeline.compute",),
    "core.push": ("pipeline.push",),
    "core.sched": ("ps.step", "ps.epoch"),
    "embedding.kernel": ("compute.chunks",),
    "ps.pull": ("ps.pull_batch",),
    "ps.push": ("ps.push_batch",),
    "core.ckpt.save": ("ckpt.save",),
    # bench_e2e's own span around the fresh engine's set-up and restore.
    "core.resume": ("bench.resume",),
}

# The spans bench_e2e opens around each public training call it times;
# together they are the traced training wall.
BENCH_SPANS = ("bench.train", "bench.resume")


def self_times(spans):
    """Seconds charged to each span name; `spans` holds (start_us, end_us, name)."""
    spans = sorted((s for s in spans if s[1] > s[0]), key=lambda s: (s[0], -s[1]))
    points = []
    for i, (start, end, _) in enumerate(spans):
        points.append((start, 1, i))
        points.append((end, 0, i))
    points.sort()  # At equal times, ends (0) come before starts (1).
    is_open = [False] * len(spans)
    heap = []  # Latest start first; among equal starts, the inner span.
    charged = defaultdict(float)
    prev = None
    for t, kind, i in points:
        if prev is not None and t > prev:
            while heap and not is_open[-heap[0][2]]:
                heapq.heappop(heap)
            if heap:
                charged[spans[-heap[0][2]][2]] += (t - prev) * 1e-6
        prev = t
        is_open[i] = kind == 1
        if kind == 1:
            heapq.heappush(heap, (-spans[i][0], spans[i][1], -i))
    return charged


def profile(trace_path):
    """Layer table of one trace: wall, per-layer self seconds and calls."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = [(e["ts"], e["ts"] + e["dur"], e["name"]) for e in events if e.get("ph") == "X"]
    calls = defaultdict(int)
    for _, _, name in spans:
        calls[name] += 1
    charged = self_times(spans)
    wall = sum((end - start) * 1e-6 for start, end, name in spans if name in BENCH_SPANS)
    layers = {}
    accounted = 0.0
    for layer, names in LAYERS.items():
        seconds = sum(charged.get(n, 0.0) for n in names)
        accounted += seconds
        layers[layer] = {"self_s": seconds, "calls": calls.get(names[0], 0)}
    return {
        "wall_s": wall,
        "layers": layers,
        "unaccounted_s": max(0.0, wall - accounted),
        "spans": len(spans),
    }
