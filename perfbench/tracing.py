"""Spans and call counts at the boundaries of reflectjet's modules.

The tracer wraps public functions from outside the package, at every
module binding that holds them: the engines import `jet_mul` and the
other jet functions by name, so counting only at `reflectjet.jets` would
miss most calls.  Spans stay in memory and are written out when the
traced run ends.  A span is (name, start, end, parent, op, samples);
every operation, and so every recovery, has its own op id, and a
recovery span records how many samples it inverts.  A span's self time
is its duration minus the time its child spans cover.

The jet functions run 10^5 to 10^6 times per pass, so they are counted,
not spanned; their per-call cost comes from `isolated.py`.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# function name -> counter name; counted at every binding
COUNTED = {
    "jet_mul": "jets.mul_calls",
    "jet_inv": "jets.inv_calls",
    "jet_sqrt": "jets.sqrt_calls",
}

# (defining module, function name) -> span name; spanned at every binding
SPANNED = {
    ("medium", "curvature_jets"): "medium.curvature_jets",
    ("acoustic", "forward_series"): "acoustic.forward",
    ("elastic", "forward_series_elastic"): "elastic.forward",
    ("inversion", "acoustic_recover_jets"): "inversion.recover",
    ("inversion", "elastic_recover_jets"): "inversion.recover",
    ("inversion", "elastic_recover_order0"): "inversion.order0",
    ("modelio", "write_acoustic_rows"): "modelio.write",
    ("modelio", "write_elastic_rows"): "modelio.write",
    ("modelio", "read_symbol_csv"): "modelio.read",
    ("modelio", "load_model"): "modelio.read",
    ("modelio", "load_minus_side"): "modelio.read",
    ("schemas", "validate"): "schemas.validate",
}

ENGINE_SPANS = ("acoustic.forward", "elastic.forward")


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index, op, samples)
        self.counts = Counter()
        self.op = None
        self._open = []
        self._patches = []   # (module, attribute, original)

    def _span(self, name, fn):
        tracer = self
        recover = name == "inversion.recover"

        def wrapper(*args, **kwargs):
            samples = None
            if recover:
                # samples inverted = distinct covectors at order 0
                samples = len(args[0].at_order(0))
            parent = tracer._open[-1] if tracer._open else None
            index = len(tracer.spans)
            tracer.spans.append(None)  # reserved: children name it as parent
            tracer._open.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._open.pop()
                # a tuple of atoms, which the cyclic GC stops tracking: a
                # list per span would slow every allocation of the run
                tracer.spans[index] = (name, start, end, parent, tracer.op, samples)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every binding of the traced functions in loaded reflectjet
        modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "reflectjet"
                                           or name.startswith("reflectjet."))}
        wrappers = {}
        for (home, attr), span in SPANNED.items():
            mod = modules.get(f"reflectjet.{home}")
            if mod is not None:  # modelio and schemas load with the CLI only
                original = getattr(mod, attr)
                wrappers[id(original)] = (attr, self._span(span, original))
        jets = modules["reflectjet.jets"]
        for attr, counter in COUNTED.items():
            original = getattr(jets, attr)
            wrappers[id(original)] = (attr, self._counter(counter, original))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] == attr:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def take(self):
        """Spans and counts recorded since the last take; resets both."""
        spans, counts = self.spans, Counter(self.counts)
        self.spans = []
        self.counts.clear()  # the counting wrappers hold this object
        return spans, counts

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def summarize(spans, counts) -> Counter:
    """Per-layer sums over one set of spans (indices local to the set)."""
    child_time = [0.0] * len(spans)
    in_recover = [False] * len(spans)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += end - start
            in_recover[i] = in_recover[parent] or spans[parent][0] == "inversion.recover"
    out = Counter(counts)
    for i, (name, start, end, _, _, samples) in enumerate(spans):
        duration = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += duration
        out[f"{name}.self_s"] += duration - child_time[i]
        if samples is not None:
            out["inversion.samples"] += samples
        if name in ENGINE_SPANS and in_recover[i]:
            out["inversion.engine_calls"] += 1
    return out


def layer_metrics(summary: Counter) -> dict:
    """The benchmark's per-layer metrics from one pass's sums."""
    samples = summary["inversion.samples"]
    return {
        "jets.mul_calls": summary["jets.mul_calls"],
        "jets.inv_calls": summary["jets.inv_calls"],
        "jets.sqrt_calls": summary["jets.sqrt_calls"],
        "medium.curvature_jets_calls": summary["medium.curvature_jets.calls"],
        "medium.curvature_jets_s": summary["medium.curvature_jets.s"],
        "acoustic.forward_calls": summary["acoustic.forward.calls"],
        "acoustic.forward_s": summary["acoustic.forward.s"],
        "acoustic.self_s": summary["acoustic.forward.self_s"],
        "elastic.forward_calls": summary["elastic.forward.calls"],
        "elastic.forward_s": summary["elastic.forward.s"],
        "elastic.self_s": summary["elastic.forward.self_s"],
        "inversion.recover_calls": summary["inversion.recover.calls"],
        "inversion.forward_calls_per_sample":
            summary["inversion.engine_calls"] / samples if samples else 0.0,
        "inversion.order0_s": summary["inversion.order0.s"],
        "inversion.self_s": summary["inversion.recover.self_s"],
        "modelio.write_s": summary["modelio.write.s"],
        "modelio.read_s": summary["modelio.read.s"],
        "schemas.validate_s": summary["schemas.validate.s"],
    }
