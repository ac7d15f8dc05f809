"""Spans around hsqcnet's public calls, recorded from outside the package.

``Tracer.install`` replaces each traced public function or method with a
wrapper, at every module attribute through which hsqcnet itself or the
benchmark looks it up, and ``uninstall`` puts the originals back. Spans are
kept in memory as (id, name, start, end, parent, request, attrs) and
written out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Layers with spans, in the order results are reported. "bench" is the
# benchmark's own code between calls into hsqcnet; the cli layer is timed as
# a child process instead.
LAYERS = (
    "smiles", "molgraph", "model", "autodiff", "assign", "train",
    "dataio", "evaluate", "bench",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = "setup"
        self._stack: list[int] = []
        self._next_id = 0
        self._pending: dict[int, tuple] = {}
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._pending[sid] = (name, time.perf_counter(), parent, self.request)
        return sid

    def close(self, sid: int, **attrs) -> None:
        end = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")
        name, start, parent, request = self._pending.pop(sid)
        self.spans.append((sid, name, start, end, parent, request, attrs))

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` timed as span ``name``; ``attrs(args, kwargs, result)``
        may add counts to the span."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = attrs(args, kwargs, result) if attrs is not None else {}
                tracer.close(sid, **extra)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, hsq) -> None:
        """Wrap every traced call. ``hsq`` maps short names to hsqcnet's
        submodules (assign, autodiff, dataio, evaluate, model, train)."""
        model, train, assign = hsq["model"], hsq["train"], hsq["assign"]
        dataio, evaluate, autodiff = hsq["dataio"], hsq["evaluate"], hsq["autodiff"]
        cls = model.CrossPeakModel

        parse = self.wrap("smiles.parse", model.parse_smiles)
        for owner in (model, dataio):
            self.patch(owner, "parse_smiles", parse)
        prepare = self.wrap(
            "molgraph.prepare",
            model.prepare_molecule,
            lambda a, k, r: {"atoms": len(r.graph.atoms)} if r is not None else {},
        )
        for owner in (model, dataio):
            self.patch(owner, "prepare_molecule", prepare)

        self.patch(cls, "encode_atoms", self.wrap("model.encode", cls.encode_atoms))
        self.patch(
            cls,
            "predict_cross_peaks",
            self.wrap(
                "model.predict",
                cls.predict_cross_peaks,
                lambda a, k, r: {"peaks": len(r)} if r is not None else {},
            ),
        )
        self.patch(
            cls, "atom_shift_tensors", self.wrap("model.atom_shift", cls.atom_shift_tensors)
        )

        self.patch(
            train,
            "backward",
            self.wrap("autodiff.backward", train.backward, lambda a, k, r: {"tape": len(a[1])}),
        )
        self.patch(autodiff.Adam, "step", self.wrap("autodiff.adam_step", autodiff.Adam.step))

        self.patch(assign, "cost_matrix", self.wrap("assign.cost_matrix", assign.cost_matrix))
        self.patch(
            assign,
            "hungarian",
            self.wrap("assign.hungarian", assign.hungarian, lambda a, k, r: {"n": len(a[0])}),
        )
        self.patch(assign, "graduated_assignment", self._graduated(assign.graduated_assignment))
        annotate = self.wrap("assign.pseudo_annotate", assign.pseudo_annotate)
        for owner in (assign, train, evaluate):
            self.patch(owner, "pseudo_annotate", annotate)

        for fn_name, span_name in (
            ("annotate_dataset", "train.annotate"),
            ("matched_mae", "train.matched_mae"),
            ("dataset_mae", "train.dataset_mae"),
            ("mtt_pretrain", "train.pretrain"),
            ("finetune_unsupervised", "train.finetune"),
        ):
            self.patch(train, fn_name, self.wrap(span_name, getattr(train, fn_name)))

        self.patch(dataio, "load_dataset", self.wrap("dataio.load_dataset", dataio.load_dataset))
        self.patch(
            dataio, "load_checkpoint", self.wrap("dataio.checkpoint_load", dataio.load_checkpoint)
        )
        self.patch(
            dataio, "save_checkpoint", self.wrap("dataio.checkpoint_save", dataio.save_checkpoint)
        )
        self.patch(evaluate, "evaluate", self.wrap("evaluate.evaluate", evaluate.evaluate))

    def _graduated(self, fn):
        """graduated_assignment with its softassign sweeps counted through
        the public ``on_sweep`` hook."""
        tracer = self

        def traced(preds, observations, settings=None, on_sweep=None):
            sweeps = 0

            def count(matrix):
                nonlocal sweeps
                sweeps += 1
                if on_sweep is not None:
                    on_sweep(matrix)

            sid = tracer.open("assign.graduated")
            try:
                if settings is None:
                    return fn(preds, observations, on_sweep=count)
                return fn(preds, observations, settings, on_sweep=count)
            finally:
                tracer.close(sid, sweeps=sweeps, n=len(preds), m=len(observations))

        traced.__wrapped__ = fn
        return traced

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.sid)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for _sid, _name, start, end, parent, _req, _attrs in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def nesting_errors(spans: list[tuple]) -> list[str]:
    """Children must lie inside their parent's interval and share its request."""
    by_id = {s[0]: s for s in spans}
    errors = []
    for sid, name, start, end, parent, request, _attrs in spans:
        if end < start:
            errors.append(f"span {sid} {name} ends before it starts")
        if parent is None:
            continue
        p = by_id.get(parent)
        if p is None:
            errors.append(f"span {sid} {name} has unknown parent {parent}")
        elif not (p[2] <= start and end <= p[3]):
            errors.append(f"span {sid} {name} is not inside parent {p[1]}")
        elif p[5] != request:
            errors.append(f"span {sid} {name} has another request than its parent")
    return errors


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, summed attrs."""
    own = self_times(spans)
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": defaultdict(float)}
    )
    for sid, name, start, end, _parent, _req, attrs in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own[sid]
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                entry["attrs"][key] += value
    return dict(out)
