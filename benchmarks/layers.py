"""Per-layer metrics from the spans of a traced run.

Per-call times cover the calls every workload makes (its set-up included),
so they are never empty. Calls that only some workloads make are reported
as their share of the traced time, which is 0 where the workload does not
make them. Counts are per set-up plus one round, per call, or per file, as
named, and repeat exactly between runs of the same inputs.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import LAYERS, layer_of, nesting_errors, self_times, summarize

# metric name -> (span name, "total" or "self"): mean seconds per call
PER_CALL = {
    "smiles.parse_s": ("smiles.parse", "total"),
    "molgraph.prepare_s": ("molgraph.prepare", "self"),
    "model.encode_s": ("model.encode", "total"),
    "model.predict_s": ("model.predict", "total"),
    "model.heads_self_s": ("model.predict", "self"),
    "assign.cost_matrix_s": ("assign.cost_matrix", "total"),
    "assign.hungarian_s": ("assign.hungarian", "total"),
    "assign.graduated_s": ("assign.graduated", "total"),
    "assign.pseudo_annotate_s": ("assign.pseudo_annotate", "total"),
    "dataio.checkpoint_load_s": ("dataio.checkpoint_load", "total"),
}
# metric name -> span name: % of traced time inside the call
SHARES = {
    "model.atom_shift_share": "model.atom_shift",
    "autodiff.backward_share": "autodiff.backward",
    "autodiff.adam_step_share": "autodiff.adam_step",
    "train.annotate_share": "train.annotate",
    "train.matched_mae_share": "train.matched_mae",
    "train.dataset_mae_share": "train.dataset_mae",
    "dataio.load_dataset_share": "dataio.load_dataset",
    "dataio.checkpoint_save_share": "dataio.checkpoint_save",
    "evaluate.evaluate_share": "evaluate.evaluate",
}
# calls whose time per call is also broken down by request
DETAILED = ("assign.cost_matrix", "assign.hungarian", "assign.graduated",
            "assign.pseudo_annotate", "model.predict")


def per_layer(w, tracer, plain: list[float], traced: list[float], cli_times: list[float]):
    spans = tracer.spans
    summary = summarize(spans)
    roots = [s for s in spans if s[4] is None]
    traced_wall = sum(s[3] - s[2] for s in roots)
    rounds = len(traced)

    def entry(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}})

    metrics: dict[str, dict] = {}
    for key, (name, kind) in PER_CALL.items():
        e = entry(name)
        value = e[f"{kind}_s"] / e["calls"] if e["calls"] else 0.0
        metrics[key] = {"value": value, "unit": "s"}
    metrics["cli.startup_s"] = {
        "value": statistics.median(cli_times) if cli_times else 0.0, "unit": "s"
    }

    setup_counts = summarize([s for s in spans if s[5] == "setup"])

    def per_setup_and_round(name: str, attr: str | None = None) -> float:
        def get(summ):
            e = summ.get(name)
            if e is None:
                return 0.0
            return e["calls"] if attr is None else e["attrs"].get(attr, 0.0)

        in_setup = get(setup_counts)
        return in_setup + (get(summary) - in_setup) / rounds

    def per_call(name: str, attr: str) -> float:
        e = entry(name)
        return e["attrs"].get(attr, 0.0) / e["calls"] if e["calls"] else 0.0

    metrics["smiles.calls"] = {"value": per_setup_and_round("smiles.parse"), "unit": "count"}
    metrics["molgraph.atoms"] = {
        "value": per_setup_and_round("molgraph.prepare", "atoms"), "unit": "count"
    }
    metrics["autodiff.tape_steps"] = {"value": per_call("autodiff.backward", "tape"),
                                      "unit": "count"}
    metrics["assign.softassign_sweeps"] = {"value": per_call("assign.graduated", "sweeps"),
                                           "unit": "count"}
    metrics["dataio.checkpoint_bytes"] = {"value": w.checkpoint_bytes, "unit": "bytes"}

    for key, name in SHARES.items():
        metrics[key] = {"value": 100.0 * entry(name)["total_s"] / traced_wall, "unit": "%"}
    own = self_times(spans)
    layer_self = defaultdict(float)
    for s in spans:
        layer_self[layer_of(s[1])] += own[s[0]]
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = {
            "value": 100.0 * layer_self[layer] / traced_wall, "unit": "%"
        }
    plain_mean = statistics.fmean(plain)
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (statistics.fmean(traced) - plain_mean) / plain_mean, "unit": "%"
    }

    detail = {
        "layer_self_s": dict(layer_self),
        "span_summary": {k: {**v, "attrs": dict(v["attrs"])} for k, v in summary.items()},
        "span_errors": nesting_errors(spans),
        "tracing": {
            "untraced_rounds": len(plain), "traced_rounds": rounds,
            "untraced_round_s": plain_mean, "traced_round_s": statistics.fmean(traced),
        },
        "by_request": breakdown(w, spans),
    }
    detail["layer_lines"] = layer_lines(detail, metrics)
    return metrics, detail


def breakdown(w, spans) -> dict:
    """Mean seconds per call of the matcher and predict calls, by molecule,
    list kind and tie state of the request they served."""
    tags = {}
    for index, record in enumerate(w.records):
        if "label" in record:
            tags[f"{record['op']}-{index}"] = (
                f"{record['label'][:24]}|{record.get('kind', '')}|"
                f"{'tied' if record.get('tied') else 'tiefree'}|n{record.get('predicted')}"
            )
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0})
    for _sid, name, start, end, _parent, request, _attrs in spans:
        if name in DETAILED and request in tags:
            e = out[f"{name} {tags[request]}"]
            e["calls"] += 1
            e["total_s"] += end - start
    return {k: {**v, "mean_s": v["total_s"] / v["calls"]} for k, v in sorted(out.items())}


def layer_lines(detail: dict, metrics: dict) -> list[str]:
    lines = [f"layer self time: {layer} {seconds:.4f} s"
             for layer, seconds in sorted(detail["layer_self_s"].items())]
    lines += [f"{name}: {e['calls']} calls, {e['mean_s'] * 1e3:.3f} ms/call"
              for name, e in detail["by_request"].items()
              if name.split(" ", 1)[0] in ("assign.hungarian", "assign.graduated")]
    summary = detail["span_summary"]
    lines += [f"{name}: {e['calls']} calls, {e['total_s'] / e['calls'] * 1e3:.3f} ms/call"
              for name, e in sorted(summary.items())]
    t = detail["tracing"]
    lines.append(
        f"tracing overhead: {metrics['trace.overhead_pct']['value']:+.2f} % "
        f"({t['traced_rounds']} traced vs {t['untraced_rounds']} untraced rounds)"
    )
    if detail["span_errors"]:
        lines.append(f"span nesting errors: {len(detail['span_errors'])}")
    return lines
