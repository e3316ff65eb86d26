"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces each traced public function with a wrapper at
every place it is bound: the defining module, every ``posetransfer``
module that imported it with ``from .x import y``, and the CLI handler
table.  ``cli`` imports lazily inside its handlers, so patching the
defining module covers it.  Methods are patched on their class.

A span is ``(name, start, end, parent, op)``; spans stay in memory and
are written out once, when the run ends.  A layer's self time is its
span's duration minus the durations of its child spans.  Nothing is
recorded while ``op`` is ``None`` (the benchmark's own output checks run
then).
"""
from __future__ import annotations

import functools
import hashlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from posetransfer import articulation, autodiff, cli, train

#: Traced functions as (module, attribute); the span is named
#: ``module.attribute``.
FUNCTIONS = [
    ("networks", "decode_transforms"),
    ("networks", "lbs_tensor"),
    ("networks", "centers_tensor"),
    ("networks", "predict_skinning"),
    ("networks", "encode"),
    ("networks", "attend"),
    ("networks", "char_context"),
    ("networks", "transfer_pose_graph"),
    ("networks", "pose_transfer"),
    ("mesh", "graph_operator"),
    ("mesh", "vertex_features"),
    ("mesh", "load_obj"),
    ("mesh", "save_obj"),
    ("articulation", "estimate_part_transforms"),
    ("articulation", "hard_part_transforms"),
    ("articulation", "save_skinning"),
    ("articulation", "save_transforms"),
    ("losses", "loss_cycle"),
    ("losses", "loss_trans"),
    ("losses", "loss_skin"),
    ("losses", "loss_edge"),
    ("losses", "loss_rec"),
    ("train", "fit"),
    ("train", "load_checkpoint"),
    ("synth", "make_dataset"),
    ("synth", "save_dataset"),
    ("synth", "load_dataset"),
    ("evaluation", "pmd"),
    ("evaluation", "consistency_scores"),
    ("evaluation", "write_report"),
    ("cli", "cmd_eval"),
    ("cli", "cmd_transfer"),
]
#: Traced methods as (class, attribute, span name).
METHODS = [
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (train.Adam, "step", "train.Adam.step"),
]

#: Spans that run only while inputs are generated; their self time is
#: per set-up repetition instead of per timed operation.
SETUP_SPANS = ("synth.make_dataset", "synth.save_dataset")

#: Per-layer metrics: (name, unit, better).  ``.self_ms`` is milliseconds
#: of self time per operation, ``.calls`` calls per operation.
METRICS = [
    ("autodiff.backward.self_ms", "ms", "lower"),
    ("autodiff.tape_nodes", "count", "lower"),
    ("autodiff.tensors_created", "count", "lower"),
    ("networks.decode_transforms.self_ms", "ms", "lower"),
    ("networks.lbs_tensor.self_ms", "ms", "lower"),
    ("networks.centers_tensor.self_ms", "ms", "lower"),
    ("networks.predict_skinning.self_ms", "ms", "lower"),
    ("networks.predict_skinning.calls", "count", "lower"),
    ("networks.encode.self_ms", "ms", "lower"),
    ("networks.encode.calls", "count", "lower"),
    ("networks.attend.self_ms", "ms", "lower"),
    ("networks.attend.calls", "count", "lower"),
    ("networks.char_context.self_ms", "ms", "lower"),
    ("networks.char_context.calls", "count", "lower"),
    ("networks.char_context.redundant_ratio", "ratio", "lower"),
    ("networks.transfer_pose_graph.self_ms", "ms", "lower"),
    ("networks.pose_transfer.self_ms", "ms", "lower"),
    ("mesh.graph_operator.self_ms", "ms", "lower"),
    ("mesh.vertex_features.self_ms", "ms", "lower"),
    ("mesh.load_obj.self_ms", "ms", "lower"),
    ("mesh.load_obj.calls", "count", "lower"),
    ("mesh.save_obj.self_ms", "ms", "lower"),
    ("articulation.estimate_part_transforms.self_ms", "ms", "lower"),
    ("articulation.hard_part_transforms.self_ms", "ms", "lower"),
    ("articulation.live_part_ratio", "ratio", "higher"),
    ("articulation.save_skinning.self_ms", "ms", "lower"),
    ("articulation.save_transforms.self_ms", "ms", "lower"),
    ("losses.loss_cycle.self_ms", "ms", "lower"),
    ("losses.loss_trans.self_ms", "ms", "lower"),
    ("losses.loss_skin.self_ms", "ms", "lower"),
    ("losses.loss_edge.self_ms", "ms", "lower"),
    ("losses.loss_rec.self_ms", "ms", "lower"),
    ("losses.trans_kept_ratio", "ratio", "higher"),
    ("train.fit.self_ms", "ms", "lower"),
    ("train.Adam.step.self_ms", "ms", "lower"),
    ("train.probe.self_ms", "ms", "lower"),
    ("train.load_checkpoint.self_ms", "ms", "lower"),
    ("synth.make_dataset.self_ms", "ms", "lower"),
    ("synth.save_dataset.self_ms", "ms", "lower"),
    ("synth.load_dataset.self_ms", "ms", "lower"),
    ("evaluation.pmd.self_ms", "ms", "lower"),
    ("evaluation.consistency_scores.self_ms", "ms", "lower"),
    ("evaluation.write_report.self_ms", "ms", "lower"),
    ("cli.cmd_eval.self_ms", "ms", "lower"),
    ("cli.cmd_transfer.self_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]


def tape_size(root) -> int:
    """Nodes reachable from ``root`` through the autodiff tape."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent, _ in stack.pop()._vjps:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.open: list[int] = []
        self.op = None
        self.fit_depth = 0
        self.patches: list = []
        self.reset_counts()

    def reset_counts(self) -> None:
        self.counts: Counter = Counter()
        # distinct meshes given to char_context, per pass over the inputs
        self.contexts: dict = defaultdict(set)
        self.pass_id = 0

    # ---- spans -----------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        if self.op is None:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self.open[-1] if self.open else None
        self.open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.open.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "networks.pose_transfer":
            # under fit, pose_transfer is the training probe
            def wrapper(*args, **kwargs):
                span = "train.probe" if tracer.fit_depth else name
                return tracer.span(span, fn, *args, **kwargs)
        elif name == "train.fit":
            def wrapper(*args, **kwargs):
                tracer.fit_depth += 1
                try:
                    return tracer.span(name, fn, *args, **kwargs)
                finally:
                    tracer.fit_depth -= 1
        elif name == "networks.char_context":
            def wrapper(m, *args, **kwargs):
                if tracer.op is not None:
                    digest = hashlib.sha1(m.vertices.tobytes() + m.faces.tobytes()).digest()
                    tracer.contexts[tracer.pass_id].add(digest)
                return tracer.span(name, fn, m, *args, **kwargs)
        elif name == "articulation.estimate_part_transforms":
            def wrapper(rest, posed, w, *args, **kwargs):
                if tracer.op is not None:
                    coverage = np.asarray(w).sum(axis=0)
                    tracer.counts["live_parts"] += int(
                        (coverage >= articulation.COVERAGE_EPS).sum())
                    tracer.counts["parts"] += coverage.size
                return tracer.span(name, fn, rest, posed, w, *args, **kwargs)
        elif name == "articulation.hard_part_transforms":
            def wrapper(*args, **kwargs):
                out = tracer.span(name, fn, *args, **kwargs)
                if tracer.op is not None:
                    tracer.counts["kept_parts"] += sum(tf is not None for tf in out)
                    tracer.counts["regressed_parts"] += len(out)
                return out
        elif name == "autodiff.backward":
            def wrapper(self_tensor):
                if tracer.op is not None:
                    tracer.counts["tape_nodes"] += tape_size(self_tensor)
                    tracer.counts["backwards"] += 1
                return tracer.span(name, fn, self_tensor)
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        return functools.wraps(fn)(wrapper)

    # ---- patching --------------------------------------------------------

    def install(self) -> None:
        """Patch every binding site of the traced functions and methods."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "posetransfer" or n.startswith("posetransfer."))]
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"posetransfer.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
            for command, handler in list(cli._HANDLERS.items()):
                if handler is original:
                    self._patch(cli._HANDLERS, command, wrapper)
        for cls, attr, name in METHODS:
            self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))
        original_init = autodiff.Tensor.__init__
        tracer = self

        def counting_init(self_tensor, *args, **kwargs):
            if tracer.op is not None:
                tracer.counts["tensors"] += 1
            original_init(self_tensor, *args, **kwargs)

        self._patch(autodiff.Tensor, "__init__", counting_init)

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self.patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self.patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self.patches):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self.patches = []

    # ---- results ---------------------------------------------------------

    def self_times(self) -> dict:
        """(span name, op kind) -> [total self seconds, calls]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _, op), below in zip(self.spans, child):
            kind = "setup" if op == "setup" else "op"
            totals[name, kind][0] += end - start - below
            totals[name, kind][1] += 1
        return totals

    def metrics(self, n_ops: int, n_setups: int, samples_per_op: int,
                overhead_ms: float) -> dict:
        """Every per-layer metric; a layer that did not run reports 0."""
        totals = self.self_times()
        c = self.counts
        calls = totals["networks.char_context", "op"][1]
        distinct = sum(len(s) for s in self.contexts.values())
        ratios = {
            "autodiff.tape_nodes": (c["tape_nodes"], c["backwards"]),
            "autodiff.tensors_created": (c["tensors"], n_ops * samples_per_op),
            "networks.char_context.redundant_ratio": (calls - distinct, calls),
            "articulation.live_part_ratio": (c["live_parts"], c["parts"]),
            "losses.trans_kept_ratio": (c["kept_parts"], c["regressed_parts"]),
        }
        out = {}
        for name, unit, _ in METRICS:
            if name == "trace.overhead_ms":
                value = overhead_ms
            elif name in ratios:
                num, den = ratios[name]
                value = num / den if den else 0.0
            elif name.endswith(".self_ms"):
                span = name[:-len(".self_ms")]
                if span in SETUP_SPANS:
                    value = 1e3 * totals[span, "setup"][0] / n_setups
                else:
                    value = 1e3 * totals[span, "op"][0] / n_ops
            else:  # .calls
                value = totals[name[:-len(".calls")], "op"][1] / n_ops
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
