"""Traced ``dpcdenoise`` command: spans and counters recorded from outside the program.

Run as ``python3 tracer.py TRACE_JSON SRC_DIR ARGS...``: it puts SRC_DIR
first on the import path, wraps the functions each module imports from the
others (see WRAPS), runs ``cli_main(ARGS)`` inside a root span and, once it
returns, writes every span (name, start, end, parent) and counter to
TRACE_JSON. Each span's self time is its duration minus the durations of its
direct children, so self times sum to the root span exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span, counter). The wrapper replaces the attribute in
# that module's namespace, so only calls made through that name are seen:
# ``optimize.build_patches`` is the call the outer loop makes. A span gives
# the metric ``<span>_s`` (self time); a counter counts calls, except those
# in SUMMED, which add up the length of each result.
WRAPS = (
    ("cli", "read_point_cloud", "io.read", None),
    ("cli", "write_point_cloud", "io.write", None),
    ("cli", "denoise_sequence", "optimize.loop_self", None),
    ("optimize", "denoise_frame", "optimize.loop_self", None),
    ("optimize", "estimate_normals", "geometry.normals", None),
    ("optimize", "build_patches", "patches.build", None),
    ("patches", "farthest_point_sampling", "geometry.fps", None),
    ("patches", "knn_point", None, "patches.knn_queries"),
    ("optimize", "prepare_reference", "matching.reference", None),
    ("optimize", "match_patches", "matching.match", None),
    ("matching", "build_epsilon_graph", None, "matching.epsilon_graphs"),
    ("matching", "knn", None, "matching.knn_queries"),
    ("optimize", "spatial_connectivity", "stgraph.connectivity", "stgraph.edges"),
    ("stgraph", "knn_point", None, "stgraph.knn_queries"),
    ("optimize", "row_features", "stgraph.weights", None),
    ("optimize", "initial_spatial_weights", "stgraph.weights", None),
    ("optimize", "weighted_spatial_graph", "stgraph.weights", None),
    ("optimize", "temporal_weight_init", "stgraph.weights", None),
    ("optimize", "reorder_matched_patch", "stgraph.weights", None),
    ("optimize", "combinatorial_laplacian", "graph.laplacian", None),
    ("optimize", "learn_metric", "optimize.metric", None),
    ("optimize", "project_metric_factor", None, "optimize.pg_steps"),
    ("optimize", "solve_temporal_weights", "optimize.weights_lp", None),
    ("optimize", "solve_point_cloud", "optimize.point_solve", None),
    ("optimize", "objective", "optimize.objective", "optimize.outer_iters"),
    ("geometry", "cKDTree", None, "geometry.kdtree_builds"),
    ("graph", "cKDTree", None, "graph.kdtree_builds"),
)
SUMMED = ("stgraph.edges",)
ROOT = "cli.self"
SPANS = tuple(dict.fromkeys([ROOT] + [w[2] for w in WRAPS if w[2]]))
COUNTERS = tuple(dict.fromkeys(w[3] for w in WRAPS if w[3]))


class Recorder:
    """Spans and counters kept in memory until the traced command ends."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._open = []

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def leave(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, span, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(span) if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if span:
                    self.leave(index)
            if counter:
                self.counters[counter] += len(result) if counter in SUMMED else 1
            return result
        return traced

    def install(self) -> list:
        """Wrap every name in WRAPS; returns the names the program no longer has."""
        missing = []
        for module_name, attr, span, counter in WRAPS:
            module = importlib.import_module(f"dpcdenoise.{module_name}")
            if not hasattr(module, attr):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(getattr(module, attr), span, counter))
        return missing


def self_times(spans: list) -> dict:
    """Seconds of self time per span name: duration minus direct children."""
    totals = defaultdict(float)
    for name, start, end, parent in spans:
        totals[name] += end - start
        if parent >= 0:
            totals[spans[parent][0]] -= end - start
    return dict(totals)


def main(argv: list) -> int:
    trace_path, src_dir, args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src_dir)
    recorder = Recorder()
    missing = recorder.install()
    from dpcdenoise.cli import cli_main

    root = recorder.enter(ROOT)
    try:
        code = cli_main(args)
    finally:
        recorder.leave(root)
    with open(trace_path, "w") as fh:
        json.dump({"exit_code": code, "unwrapped": missing, "spans": recorder.spans,
                   "counters": dict(recorder.counters)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
