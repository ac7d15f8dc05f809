"""The three benchmark workloads.

Each workload is a closed loop with one client: the next call starts when
the previous one returns. The loop runs whole rounds of a fixed schedule
until the measuring time is used up, so every run sees the same mix.

- ``train_toy``: one round is the library's two-stage training at desk
  scale, then a checkpoint write. Tape, backward and Adam do the work; the
  matcher only sees lists of a few peaks.
- ``screen_small``: one round streams every small molecule once through
  prepare, predict and pseudo-annotation, with an evaluate pass over the
  expert set after every ``EVAL_EVERY`` requests. Forward only, no backward.
- ``assign_large``: one round predicts and matches every large molecule
  against six lists: four equal-count lists, two of them with duplicated
  peaks (exact matcher), one with peaks merged and one with peaks dropped
  (graduated assignment). The matcher does most of the work.
"""

from __future__ import annotations

import importlib
import math
import time
import traceback
from pathlib import Path

import numpy as np

import inputs
from speed import SpeedProbe

# by import path: the package attribute ``hsqcnet.evaluate`` is the function
MODULES = {
    name: importlib.import_module(f"hsqcnet.{name}")
    for name in ("assign", "autodiff", "dataio", "evaluate", "model", "train")
}
h_assign, h_dataio, h_evaluate = MODULES["assign"], MODULES["dataio"], MODULES["evaluate"]
h_model, h_train = MODULES["model"], MODULES["train"]

# Tolerances, fixed from float64 before any run. A forward pass is a few
# thousand roundings of values below ~300 ppm (error ~1e-11 ppm); training
# compounds that over a few hundred optimizer steps; reports are sums of
# ppm errors.
SHIFT_ATOL = 1e-8  # ppm, predicted shifts
TRAIN_RTOL = 1e-7  # relative, loss history
EVAL_RTOL = 1e-9  # relative, evaluate report numbers
COST_RTOL = 1e-9  # relative, matching cost against the scipy optimum

# Two-stage training settings. Pre-training uses the criterion-6 overfit
# fixture's batch size, oversampling and learning rate. Two pre-training
# epochs leave the model far from the data, so the rejection threshold is
# raised: with the default every molecule would be rejected and
# fine-tuning would fit nothing.
PRETRAIN_EPOCHS = 2
FINETUNE_ITERATIONS = 2
REJECT_THRESHOLD = 100.0


def pretrain_config(variant: int) -> h_train.TrainConfig:
    return h_train.TrainConfig(
        epochs=PRETRAIN_EPOCHS, batch_size=1, learning_rate=3e-4,
        oversample_factor=8, validation_split=0.0, seed=variant,
    )


def finetune_config(variant: int) -> h_train.TrainConfig:
    return h_train.TrainConfig(
        epochs=1, batch_size=1, learning_rate=3e-4,
        max_iterations=FINETUNE_ITERATIONS, validation_split=0.0, seed=variant,
    )


def match_settings() -> h_assign.MatchSettings:
    return h_assign.MatchSettings(reject_threshold=REJECT_THRESHOLD)


def two_stage(set_1d, set_hsqc, weights, variant: int, log_fn, path: Path):
    """Pre-train, fine-tune, write the checkpoint; (history, final state)."""
    pre = h_train.mtt_pretrain(
        set_1d, pretrain_config(variant), init_state=weights, log_fn=log_fn
    )
    fine = h_train.finetune_unsupervised(
        pre.final_state, set_hsqc, None, finetune_config(variant),
        match=match_settings(), log_fn=log_fn,
    )
    h_dataio.save_checkpoint(
        fine.final_state, h_model.ModelConfig(), {"stage": "finetune"}, path
    )
    return pre.history + fine.history, fine.final_state


def solvent(name: str) -> h_model.SolventClass:
    return h_model.SolventClass(name)


def write_weights(path: Path) -> None:
    """The benchmark's checkpoint: fixed weights in the library's format."""
    config = h_model.ModelConfig()
    shapes = {
        name: a.shape for name, a in h_model.CrossPeakModel(config).state_arrays().items()
    }
    arrays = inputs.benchmark_weights(shapes)
    h_dataio.save_checkpoint(
        arrays, config, {"source": "benchmark weights", "seed": inputs.WEIGHT_SEED}, path
    )


def peak_rows(preds) -> list[list]:
    return [[p.ch_unit.carbon_index, p.peak_slot, p.delta_c, p.delta_h] for p in preds]


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path, out: Path) -> None:
        self.seed = seed
        self.root = root
        self.out = out
        self.reference = inputs.load_reference()
        self.weights_path = out / "weights.ckpt"
        self.records: list[dict] = []  # one per attempted operation
        self.rounds: list[float] = []
        self.speed = SpeedProbe()

    # set-up is split so a fresh interpreter can time only hsqcnet's part
    def plan(self) -> None:
        """Generate the seeded inputs (benchmark work, not timed)."""

    def build(self) -> None:
        """Build molecules and datasets and load the checkpoint (timed)."""
        checkpoint = h_dataio.load_checkpoint(self.weights_path)
        self.checkpoint_bytes = self.weights_path.stat().st_size
        self.model = checkpoint.build_model()
        self.weights = checkpoint.arrays

    def run_round(self, tracer) -> None:
        raise NotImplementedError

    def attempt(self, record: dict, fn):
        """Run one operation; an exception marks it failed and is kept."""
        record["round"] = len(self.rounds)
        record["at"] = time.perf_counter()
        self.records.append(record)
        try:
            return fn()
        except Exception:  # a failing call is a measured outcome, not a crash
            record["error"] = traceback.format_exc(limit=3)
            return None

    def check_record(self, record: dict) -> list[str]:
        """Check one operation's outputs right after it returns, outside
        the timed and traced region, and drop them so the heap stays flat.
        Must not call hsqcnet, which may be traced at that point."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that call hsqcnet, run once after the measured rounds."""

    def metrics(self) -> dict:
        raise NotImplementedError

    def scaled(self, record: dict, seconds: float) -> float:
        """``seconds`` taken by ``record``'s operation, at the reference speed."""
        return self.speed.scaled(record["at"], seconds)

    def per_key(self, records: list[dict]) -> list[float]:
        """Median scaled latency of each distinct request. Every request
        of the mix then counts once, however many rounds ran."""
        by_key: dict = {}
        for r in records:
            r["scaled_s"] = self.scaled(r, r["latency_s"])
            by_key.setdefault(r["key"], []).append(r["scaled_s"])
        return [float(np.median(v)) for v in by_key.values()]

    def _check_predictions(self, preds, smiles: str, solvent_name: str) -> list:
        """Peak keys in order and count exactly, shifts within SHIFT_ATOL."""
        want = self.reference["predictions"][smiles][solvent_name]
        got = peak_rows(preds)
        if len(got) != len(want):
            return [f"{len(got)} peaks predicted, reference has {len(want)}"]
        for g, w in zip(got, want):
            if g[:2] != w[:2]:
                return [f"peak order differs: {g[:2]} vs {w[:2]}"]
            if abs(g[2] - w[2]) > SHIFT_ATOL or abs(g[3] - w[3]) > SHIFT_ATOL:
                return [f"shift of carbon {g[0]} slot {g[1]} differs: {g[2:]} vs {w[2:]}"]
        return []

    def _check_labels(self, preds, peaks: inputs.PeakList, labels) -> list:
        if labels is None:
            return ["no pseudo-labels returned"]
        cols = [e.obs_index for e in labels.entries]
        n, m = len(preds), len(peaks.peaks)
        if len(cols) != n or any(not 0 <= c < m for c in cols):
            return [f"assignment does not cover each of {n} rows once"]
        if [(e.carbon_index, e.slot) for e in labels.entries] != [
            (p.ch_unit.carbon_index, p.peak_slot) for p in preds
        ]:
            return ["pseudo-labels are not in prediction order"]
        if peaks.designated is None:
            return [] if labels.provenance == "graduated" else [
                f"{n} vs {m} peaks went to {labels.provenance}"
            ]
        if labels.provenance != "hungarian" or len(set(cols)) != n:
            return ["equal-count list did not give a one-to-one exact assignment"]
        cost = inputs.cost_matrix(
            np.array([[p.delta_c, p.delta_h] for p in preds]), np.array(peaks.peaks)
        )
        from scipy.optimize import linear_sum_assignment

        r, c = linear_sum_assignment(cost)
        best = float(cost[r, c].sum())
        got = float(cost[np.arange(n), cols].sum())
        if abs(got - best) > COST_RTOL * max(1.0, abs(best)):
            return [f"assignment cost {got!r} is not the optimum {best!r}"]
        if not inputs.structure_holds(cost, peaks.designated):
            return ["optimal assignments are no longer the generated tie structure"]
        if cols != inputs.lexicographic_optimum(cost):
            return ["assignment is not the lexicographically smallest optimum"]
        return []


# ---------------------------------------------------------------------------


class TrainToy(Workload):
    name = "train_toy"

    def plan(self) -> None:
        self.variant = inputs.train_variant(self.seed)

    def build(self) -> None:
        data = self.root / "data"
        self.set_1d = h_dataio.load_dataset(data / "toy_1d.jsonl", "1d")
        self.set_hsqc = h_dataio.load_dataset(data / "toy_hsqc.jsonl", "hsqc")
        super().build()
        copies = pretrain_config(self.variant).oversample_factor
        self.samples_per_epoch = sum(copies if s.h_targets else 1 for s in self.set_1d)

    def run_round(self, tracer) -> None:
        record = {"op": "two_stage"}
        marks: list[tuple[str, float]] = []
        paused = [0.0]  # seconds spent in speed probes inside the round

        def log(line: dict) -> None:
            marks.append((line["stage"] if not line.get("converged") else "converged",
                          time.perf_counter()))
            # probe inside the round too; the pause is left out of wall_s,
            # and the "resume" mark starts the next epoch or iteration
            pause = self.speed.maybe_probe()
            if pause:
                paused[0] += pause
                marks.append(("resume", time.perf_counter()))

        def go():
            start = time.perf_counter()
            marks.append(("start", start))
            path = self.out / "train_toy.ckpt"
            history, final_state = two_stage(
                self.set_1d, self.set_hsqc, self.weights, self.variant, log, path
            )
            record["wall_s"] = time.perf_counter() - start - paused[0]
            record["history"] = history
            record["path"] = str(path)
            if len(self.records) == 1:  # one round-trip check suffices
                record["final_state"] = final_state

        _traced_attempt(self, tracer, record, go)
        record["marks"] = marks

    def check_record(self, record: dict) -> list[str]:
        return _compare_history(record.pop("history"), self.reference["train"][str(self.variant)])

    def finish(self) -> None:
        for record in self.records:
            final_state = record.pop("final_state", None)
            if "error" in record or final_state is None:
                continue
            saved = h_dataio.load_checkpoint(record["path"]).arrays
            if any(not np.array_equal(saved[k], v) for k, v in final_state.items()):
                record["error"] = "saved checkpoint does not round-trip the final state"

    def metrics(self) -> dict:
        ok = [r for r in self.records if "error" not in r]
        epoch_rates, iterations = [], []
        for r in ok:
            marks = r["marks"]
            for (_, t0), (stage, t1) in zip(marks, marks[1:]):
                seconds = self.speed.scaled(t0, t1 - t0)
                if stage == "pretrain":
                    epoch_rates.append(self.samples_per_epoch / seconds)
                elif stage == "finetune":
                    iterations.append(seconds)
            r["scaled_s"] = self.scaled(r, r["wall_s"])
        walls = [r["scaled_s"] for r in ok]
        return {
            "throughput": (float(np.median(epoch_rates)),
                           "pre-training samples per second (median epoch)"),
            "latency": (walls, "two-stage training run incl. checkpoint write"),
            "extra": {
                "pretrain_samples_per_s": (float(np.median(epoch_rates)), "1/s", len(epoch_rates)),
                "finetune_iteration_s": (float(np.median(iterations)), "s", len(iterations)),
                "train_wall_s": (float(np.median(walls)), "s", len(walls)),
            },
        }


def _close(a, b, rtol: float) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= rtol * max(1.0, abs(b))
    return a == b


def _compare_history(got: list[dict], want: list[dict]) -> list[str]:
    if len(got) != len(want):
        return [f"{len(got)} history lines, reference has {len(want)}"]
    for g, w in zip(got, want):
        if set(g) != set(w):
            return [f"history keys differ: {sorted(g)} vs {sorted(w)}"]
        for key in w:
            if not _close(g[key], w[key], TRAIN_RTOL):
                return [f"{g['stage']} {key} = {g[key]!r}, reference {w[key]!r}"]
    return []


def _compare_report(got, want, rtol: float, path: str = "report") -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [p for k in want for p in _compare_report(got[k], want[k], rtol, f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: lengths differ"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in _compare_report(g, w, rtol, f"{path}[{i}]")]
    if isinstance(want, float) or isinstance(got, float):
        ok = _close(float(got), float(want), rtol)
    else:
        ok = got == want
    return [] if ok else [f"{path} = {got!r}, reference {want!r}"]


# ---------------------------------------------------------------------------


class ScreenSmall(Workload):
    name = "screen_small"

    def plan(self) -> None:
        self.list_sets = inputs.screen_plan(self.seed, self.reference)

    def build(self) -> None:
        self.expert = h_dataio.load_dataset(self.root / "data" / "toy_expert.jsonl", "annotated")
        self.observed = [
            [h_assign.ingest_peaks(req.peaks.peaks) for req in requests]
            for requests in self.list_sets
        ]
        super().build()

    def run_round(self, tracer) -> None:
        k = len(self.rounds) % len(self.list_sets)
        for i, (req, observed) in enumerate(zip(self.list_sets[k], self.observed[k])):
            self._request(tracer, req, observed, f"{k}/{i}")
            if (i + 1) % inputs.EVAL_EVERY == 0:
                self._evaluate(tracer)

    def _request(self, tracer, req: inputs.Request, observed, key: str) -> None:
        record = {"op": "screen", "req": req, "matcher": "hungarian", "key": key}
        model = self.model

        def go():
            start = time.perf_counter()
            mol = h_model.prepare_molecule(req.smiles)
            preds = model.predict_cross_peaks(mol, solvent(req.solvent))
            labels = h_assign.pseudo_annotate(mol, preds, observed)
            record["latency_s"] = time.perf_counter() - start
            record["atoms"] = len(mol.graph.atoms)
            record["out"] = (preds, labels)

        _traced_attempt(self, tracer, record, go)

    def _evaluate(self, tracer) -> None:
        record = {"op": "evaluate", "records": len(self.expert)}

        def go():
            start = time.perf_counter()
            report = h_evaluate.evaluate(self.model, self.expert)
            record["latency_s"] = time.perf_counter() - start
            record["out"] = report

        _traced_attempt(self, tracer, record, go)

    def check_record(self, record: dict) -> list[str]:
        if record["op"] == "evaluate":
            return _compare_report(
                record.pop("out").to_dict(), self.reference["evaluate"], EVAL_RTOL
            )
        req = record.pop("req")
        preds, labels = record.pop("out")
        record.update(size_fields(record, req, preds))
        problems = self._check_predictions(preds, req.smiles, req.solvent)
        return problems or self._check_labels(preds, req.peaks, labels)

    def metrics(self) -> dict:
        ok = [r for r in self.records if "error" not in r]
        screen_records = [r for r in ok if r["op"] == "screen"]
        screens = self.per_key(screen_records)
        evals = [r for r in ok if r["op"] == "evaluate"]
        eval_time = sum(self.scaled(r, r["latency_s"]) for r in evals)
        eval_rate = sum(r["records"] for r in evals) / eval_time if evals else float("nan")
        rate = len(screens) / sum(screens)
        return {
            "throughput": (rate, "screening requests per second of screening time"),
            "latency": (screens, "one prepare + predict + pseudo_annotate request"),
            "extra": {
                "requests_per_s": (rate, "1/s", len(screen_records)),
                "eval_records_per_s": (eval_rate, "1/s", len(evals)),
            },
        }


# ---------------------------------------------------------------------------


class AssignLarge(Workload):
    name = "assign_large"

    def plan(self) -> None:
        self.requests = inputs.assign_plan(self.seed, self.reference)
        self.graduated: dict[int, tuple] = {}  # request index -> (preds, columns)

    def build(self) -> None:
        self.molecules = {}
        for req in self.requests:
            if req.label not in self.molecules:
                self.molecules[req.label] = h_model.prepare_molecule(req.smiles)
        self.observed = [h_assign.ingest_peaks(req.peaks.peaks) for req in self.requests]
        super().build()

    def run_round(self, tracer) -> None:
        for index, (req, observed) in enumerate(zip(self.requests, self.observed)):
            record = {
                "op": "assign", "req": req, "index": index, "key": index,
                "matcher": "hungarian" if req.peaks.designated is not None else "graduated",
            }
            mol = self.molecules[req.label]
            model = self.model

            def go(req=req, observed=observed, record=record, mol=mol):
                start = time.perf_counter()
                preds = model.predict_cross_peaks(mol, solvent(req.solvent))
                labels = h_assign.pseudo_annotate(mol, preds, observed)
                record["latency_s"] = time.perf_counter() - start
                record["atoms"] = len(mol.graph.atoms)
                record["out"] = (preds, labels)

            _traced_attempt(self, tracer, record, go)

    def check_record(self, record: dict) -> list[str]:
        req = record.pop("req")
        preds, labels = record.pop("out")
        record.update(size_fields(record, req, preds))
        problems = self._check_predictions(preds, req.smiles, req.solvent)
        problems = problems or self._check_labels(preds, req.peaks, labels)
        if not problems and req.peaks.designated is None:
            # the first answer per request is re-derived in finish(); later
            # rounds must repeat it
            cols = [e.obs_index for e in labels.entries]
            if self.graduated.setdefault(record["index"], (preds, cols))[1] != cols:
                problems = ["graduated assignment differs between rounds"]
        return problems

    def finish(self) -> None:
        """Each graduated answer must be graduated_assignment's, giving
        every predicted row exactly one observed peak."""
        for index, (preds, cols) in self.graduated.items():
            if _graduated_rows(preds, self.observed[index]) != cols:
                for record in self.records:
                    if record.get("index") == index and "error" not in record:
                        record["error"] = "graduated assignment does not give each row one peak"

    def metrics(self) -> dict:
        done = [r for r in self.records if "error" not in r]
        ok = self.per_key(done)
        rate = len(ok) / sum(ok)
        return {
            "throughput": (rate, "predict + match requests per second"),
            "latency": (ok, "one predict + pseudo_annotate request"),
            "extra": {"requests_per_s": (rate, "1/s", len(done))},
        }


def _graduated_rows(preds, observed) -> list | None:
    """graduated_assignment's column per row, or None unless it assigns
    every predicted row to exactly one observed peak. Called once per
    distinct request, outside the timed loop."""
    matrix = np.asarray(h_assign.graduated_assignment(preds, observed))
    if matrix.shape != (len(preds), len(observed)) or not np.all(matrix.sum(axis=1) == 1):
        return None
    return [int(j) for j in matrix.argmax(axis=1)]


def size_fields(record: dict, req: inputs.Request, preds) -> dict:
    """The size of a request, kept with its result."""
    return {
        "label": req.label,
        "solvent": req.solvent,
        "atoms": record.get("atoms"),
        "predicted": len(preds),
        "observed": len(req.peaks.peaks),
        "kind": req.peaks.kind,
        "duplicated": req.peaks.duplicated,
        "tied": any(len(s) > 1 for s in inputs.tie_sets(inputs.cost_matrix(
            np.array([[p.delta_c, p.delta_h] for p in preds]), np.array(req.peaks.peaks)
        ))) if req.peaks.designated is not None else False,
    }


def _traced_attempt(workload: Workload, tracer, record: dict, fn) -> None:
    """One operation, in a request span when traced, then its checks."""
    workload.speed.maybe_probe()
    if tracer is None:
        workload.attempt(record, fn)
    else:
        tracer.request = f"{record['op']}-{len(workload.records)}"
        with tracer.span("bench.request"):
            workload.attempt(record, fn)
    if "error" not in record:
        problems = workload.check_record(record)
        if problems:
            record["error"] = "; ".join(problems)


WORKLOADS = {w.name: w for w in (TrainToy, ScreenSmall, AssignLarge)}
