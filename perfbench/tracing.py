"""Spans around the public functions of each reconset module, from outside.

Run one operation in-process with every public function and method of the
layer modules wrapped in a timing span:

    python3 perfbench/tracing.py SPANS.json cli construct translate ...
    python3 perfbench/tracing.py SPANS.json py slab-family --seed 7 ...

``cli`` runs ``reconset.cli.main(argv)`` and ``py`` runs ``ops.main(argv)``.
Spans (name, start, end, parent index) and counters stay in memory and are
written to SPANS.json when the operation ends.  The exit code is the
operation's own.  ``rep_metrics`` turns those files into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

# the modules of reconset that are layers
LAYERS = ("cli", "io", "intervals", "quantize", "analysis", "construct", "gridsets", "verify", "shapes")
# constructors that do real work get a span too
TRACED_INITS = {"IntervalSet", "VariationEnvelope"}
# per-element accessors: a span per interval would cost more than it times
UNTRACED = {"intervals.IntervalSet.endpoints"}


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# span name -> (counter, amount of work done by one call)
COUNTERS = {
    "io.write_json": ("io.bytes_written", _file_bytes),
    "io.write_csv": ("io.bytes_written", _file_bytes),
    "quantize.tiled_quantizer": ("quantize.blocks", lambda a, k, r: sum(r[1].values())),
    "verify.pairwise_min_linf": ("verify.pairwise_rows", lambda a, k, r: a[0].shape[0]),
}

# metric -> span names; `_s` is busy time of the outermost such spans,
# `_calls` counts every call
SPAN_METRICS = {
    "io.write_json_s": ("io.write_json",),
    "io.read_json_s": ("io.read_json",),
    "intervals.to_json_s": ("intervals.IntervalSet.to_json",),
    "intervals.from_json_s": ("intervals.IntervalSet.from_json",),
    "intervals.affine_s": ("intervals.IntervalSet.affine",),
    "intervals.boolean_s": ("intervals.boolean",),
    "intervals.boolean_calls": ("intervals.boolean",),
    "quantize.tiled_quantizer_s": ("quantize.tiled_quantizer",),
    "verify.measure_vector_s": ("verify.measure_vector",),
    "verify.measure_vector_calls": ("verify.measure_vector",),
    "verify.counterexample_s": ("verify.interval_counterexample",),
    "verify.pairwise_min_linf_s": ("verify.pairwise_min_linf",),
    "gridsets.sample_grid_set_s": ("gridsets.sample_grid_set",),
    "gridsets.sample_level_calls": ("gridsets.sample_level",),
    "gridsets.save_s": ("gridsets.save_grid_set",),
    "gridsets.interval_measure_s": ("gridsets.GridSet.intersect_interval_measure",),
    "gridsets.interval_measure_calls": ("gridsets.GridSet.intersect_interval_measure",),
    "analysis.envelope_build_s": ("analysis.VariationEnvelope.__init__",),
    "analysis.envelope_bound_s": ("analysis.VariationEnvelope.bound",),
    "analysis.envelope_bound_calls": ("analysis.VariationEnvelope.bound",),
    "analysis.ac_diagnostic_s": ("analysis.ac_diagnostic",),
    "analysis.sliding_integral_s": ("analysis.sliding_integral",),
    "analysis.sliding_integral_calls": ("analysis.sliding_integral",),
    "shapes.radon_profile_s": ("shapes.radon_profile",),
    "shapes.intersection_measure_s": ("shapes.intersection_measure_detailed", "shapes.intersection_measure"),
    "shapes.intersection_measure_calls": ("shapes.intersection_measure_detailed", "shapes.intersection_measure"),
}
SELF_METRICS = {f"{layer}.self_s": layer for layer in LAYERS}
COUNTER_METRICS = sorted({c for c, _ in COUNTERS.values()})
COVERAGE_METRIC = "trace.span_coverage_min"
# an operation this short in-process is click's dispatch (about 1 ms) and
# little else, so its coverage says nothing about the layers
COVERAGE_MIN_OP_S = 0.01


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters = {c: 0 for c in COUNTER_METRICS}
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = start, end
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counters[counter[0]] += int(counter[1](args, kwargs, result))
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> list[str]:
        """Wrap the layers' public functions and methods; return the span
        names that SPAN_METRICS needs but the code no longer has."""
        mods = {layer: importlib.import_module(f"reconset.{layer}") for layer in LAYERS}
        loaded = [m for n, m in sys.modules.items() if n == "reconset" or n.startswith("reconset.")]
        names = set(self._wrap_commands(mods["cli"].cli))
        for layer, mod in mods.items():
            if layer == "cli":
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped = self.wrap(name, obj)
                    names.add(name)
                    # rebind every `from .x import f` copy as well
                    for m in loaded:
                        for a, v in list(vars(m).items()):
                            if v is obj:
                                setattr(m, a, wrapped)
                elif inspect.isclass(obj):
                    names.update(self._wrap_methods(f"{layer}.{attr}", obj))
        needed = {n for spans in SPAN_METRICS.values() for n in spans} | set(COUNTERS)
        return sorted(needed - names)

    def _wrap_commands(self, group):
        """click's argument parsing at every level, and each command's body."""
        group.make_context = self.wrap("cli.parse", group.make_context)
        names = ["cli.parse"]
        for cmd in group.commands.values():
            if hasattr(cmd, "commands"):
                names += self._wrap_commands(cmd)
            else:
                cmd.make_context = self.wrap("cli.parse", cmd.make_context)
                name = f"cli.{cmd.callback.__name__}"
                cmd.callback = self.wrap(name, cmd.callback)
                names.append(name)
        return names

    def _wrap_methods(self, prefix, cls):
        names = []
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and cls.__name__ in TRACED_INITS):
                continue
            name = f"{prefix}.{attr}"
            if name in UNTRACED:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))
            else:
                continue
            names.append(name)
        return names

    def dump(self, path, missing):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters, "missing": missing}, fh)


def main(argv) -> int:
    spans_path, kind, *args = argv
    import reconset.cli

    tracer = Tracer()
    missing = tracer.install()
    try:
        if kind == "cli":
            return tracer.call("cli.main", reconset.cli.main, args)
        import ops  # imported after install, so its names bind to the wrappers

        return tracer.call(f"op.{args[0]}", ops.main, args)
    finally:
        tracer.dump(spans_path, missing)


# -- derivation (runs in run.py) ------------------------------------------------


def op_metrics(trace: dict) -> dict:
    """Per-layer numbers of one traced operation."""
    spans = trace["spans"]
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]

    def outermost(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return False
            p = spans[p][3]
        return True

    out = {}
    for metric, names in SPAN_METRICS.items():
        hits = [i for i, s in enumerate(spans) if s[0] in names]
        if metric.endswith("_calls"):
            out[metric] = len(hits)
        else:
            out[metric] = sum(dur[i] for i in hits if outermost(i, names))
    for metric, layer in SELF_METRICS.items():
        out[metric] = sum(
            dur[i] - child[i] for i, s in enumerate(spans) if s[0].split(".", 1)[0] == layer
        )
    out.update(trace["counters"])
    # the share of the operation's own work that spans of the layers below it
    # account for: for a CLI operation, below the command's body, so neither
    # click's dispatch nor the body's own code counts as covered; for an
    # ops.py operation, below its root
    root = next(i for i, s in enumerate(spans) if s[3] < 0)
    body = root
    if spans[root][0] == "cli.main":
        body = next((i for i, s in enumerate(spans) if s[3] == root and s[0] != "cli.parse"), root)
    out[COVERAGE_METRIC] = 100.0 * child[body] / dur[body] if dur[body] >= COVERAGE_MIN_OP_S else None
    return out


def rep_metrics(traces) -> dict:
    """Sum over the operations of one chain; coverage is the worst operation's."""
    per_op = [op_metrics(t) for t in traces]
    out = {k: sum(m[k] for m in per_op) for k in per_op[0] if k != COVERAGE_METRIC}
    out[COVERAGE_METRIC] = min(m[COVERAGE_METRIC] for m in per_op if m[COVERAGE_METRIC] is not None)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
