from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET

import pytest

from hsqcnet.assign import ObservedPeak, pseudo_annotate
from hsqcnet.evaluate import (
    AnnotatedTestRecord,
    evaluate,
    export_overlay,
    segment_report,
)
from hsqcnet.model import CrossPeakModel, ModelConfig, SolventClass, prepare_molecule
from hsqcnet.train import SampleHSQC

TINY = ModelConfig(num_layers=2, atom_dim=10, solvent_dim_h=4, mlp_hidden=(8, 6), seed=5)


def records_from_model(model, smiles_list, solvent=SolventClass.CHLOROFORM,
                       saccharide=None):
    """Self-consistent test records: observations are the model's own
    predictions, the expert map the emitting units, in order."""
    records = []
    for k, smiles in enumerate(smiles_list):
        mol = prepare_molecule(smiles)
        preds = model.predict_cross_peaks(mol, solvent)
        peaks = [ObservedPeak(p.delta_c, p.delta_h) for p in preds]
        expert = {
            j: [(p.ch_unit.carbon_index, p.peak_slot)] for j, p in enumerate(preds)
        }
        sugar = bool(saccharide[k]) if saccharide else False
        records.append(
            AnnotatedTestRecord(SampleHSQC(mol, solvent, peaks, saccharide=sugar), expert)
        )
    return records


@pytest.fixture(scope="module")
def model():
    return CrossPeakModel(TINY)


def test_identity_case_all_perfect(model):
    records = records_from_model(model, ["CO", "CCO", "c1ccccc1"])
    report = evaluate(model, records, solvent_mode="true")
    assert report.mae_c == pytest.approx(0.0, abs=1e-12)
    assert report.mae_h == pytest.approx(0.0, abs=1e-12)
    assert report.all_correct_fraction == 1.0
    assert report.peak_agreement_on_disagreeing == 1.0
    assert report.molecules_all_correct == 3


def test_a_peak_is_named_by_its_position_in_the_list_given(model):
    # the observed peaks in the reverse of prediction order: the labels and
    # the expert map both name a peak by its position, so a perfect match
    # scores all-correct
    mol = prepare_molecule("CC(C)O")
    preds = model.predict_cross_peaks(mol, SolventClass.CHLOROFORM)
    order = list(reversed(range(len(preds))))  # peak j is prediction order[j]
    assert len(order) == 2
    peaks = [ObservedPeak(preds[k].delta_c, preds[k].delta_h) for k in order]
    labels = pseudo_annotate(mol, preds, peaks)
    assert [e.obs_index for e in labels.entries] == [order.index(i) for i in range(len(preds))]
    expert = {j: [(preds[k].ch_unit.carbon_index, preds[k].peak_slot)]
              for j, k in enumerate(order)}
    record = AnnotatedTestRecord(SampleHSQC(mol, SolventClass.CHLOROFORM, peaks), expert)
    report = evaluate(model, [record], solvent_mode="true")
    assert report.mae_c == 0.0 and report.mae_h == 0.0
    assert report.molecules_all_correct == 1


def test_single_wrong_expert_entry(model):
    records = records_from_model(model, ["Cc1ccccc1"])
    record = records[0]
    k = len(record.sample.peaks)
    assert k >= 3
    # swap the expert annotation of the first two peaks
    e0, e1 = record.expert[0], record.expert[1]
    record.expert[0], record.expert[1] = e1, e0
    report = evaluate(model, records, solvent_mode="true")
    assert report.molecules_all_correct == 0
    assert report.all_correct_fraction == 0.0
    assert report.peak_agreement_on_disagreeing == pytest.approx((k - 2) / k)


def test_inconsistent_expert_record_rejected(model):
    records = records_from_model(model, ["CO", "CCO"])
    records[0].expert[99] = [(0, 1)]
    report = evaluate(model, records, solvent_mode="true")
    assert report.molecules_evaluated == 1
    assert report.rejected and report.rejected[0][0] == 0
    assert "missing peak" in report.rejected[0][1]


def test_empty_testset_rejected(model):
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, [], "true")


def test_bad_solvent_mode(model):
    records = records_from_model(model, ["CO"])
    with pytest.raises(ValueError, match="solvent_mode"):
        evaluate(model, records, "sometimes")


def test_random_solvent_reproducible_and_excludes_true(model):
    records = records_from_model(model, ["CO", "CCO", "CC", "CCC"])
    a = evaluate(model, records, solvent_mode="random", seed=11)
    b = evaluate(model, records, solvent_mode="random", seed=11)
    assert a.mae_h == b.mae_h
    c = evaluate(model, records, solvent_mode="random", seed=12)
    assert a.mae_h != c.mae_h  # different draws move the proton predictions
    true_report = evaluate(model, records, solvent_mode="true")
    assert a.mae_c == pytest.approx(true_report.mae_c, abs=1e-12)  # carbon head blind to solvent


def test_unknown_mode_uses_unknown_row(model):
    records = records_from_model(model, ["CO"], solvent=SolventClass.UNKNOWN)
    report = evaluate(model, records, solvent_mode="unknown")
    assert report.mae_h == pytest.approx(0.0, abs=1e-12)


def test_mae_order_independent(model):
    records = records_from_model(model, ["CCO", "Cc1ccccc1", "CCC"])
    forward = evaluate(model, records, "true")
    backward = evaluate(model, list(reversed(records)), "true")
    assert forward.mae_c == pytest.approx(backward.mae_c, abs=1e-12)
    assert forward.mae_h == pytest.approx(backward.mae_h, abs=1e-12)


def test_segment_boundaries(model):
    # invent rows with controlled molecular weights
    from hsqcnet.evaluate import RecordEval

    def row(mw, sugar=False):
        return RecordEval("x", mw, sugar, SolventClass.UNKNOWN, [1.0], [0.1],
                          True, 1, 1)

    segments = segment_report([row(499.9), row(500.0), row(1000.0)])
    assert segments["small"]["count"] == 1
    assert segments["medium"]["count"] == 1
    assert segments["large"]["count"] == 1


def test_segments_empty_bucket_no_division(model):
    records = records_from_model(model, ["CO", "CCO"])
    report = evaluate(model, records, "true")
    segments = report.segments
    assert segments["small"]["count"] == 2
    assert segments["medium"]["count"] == 0
    assert math.isnan(segments["medium"]["mae_c"])
    assert segments["overall_equal_weight"]["buckets_counted"] == 1
    total = sum(segments[b]["count"] for b in ("small", "medium", "large"))
    assert total == report.molecules_evaluated


def test_saccharide_split(model):
    records = records_from_model(model, ["CO", "CCO"], saccharide=[True, False])
    report = evaluate(model, records, "true")
    assert report.segments["saccharide"]["count"] == 1
    assert report.segments["non_saccharide"]["count"] == 1


def test_per_solvent_breakdown(model):
    records = records_from_model(model, ["CO"], solvent=SolventClass.DMSO)
    records += records_from_model(model, ["CC"], solvent=SolventClass.WATER)
    report = evaluate(model, records, "true")
    assert set(report.per_solvent) == {"dmso", "water"}
    assert report.per_solvent["dmso"]["count"] == 1


def test_true_solvent_beats_random_on_sensitive_data(model):
    # synthetic solvent-sensitive observations: the model's own predictions
    # under the true solvent; a wrong solvent must predict them no better
    smiles = ["CO", "CCO", "CC", "CCC", "CCCC", "c1ccccc1"]
    records = records_from_model(model, smiles, solvent=SolventClass.CHLOROFORM)
    true_report = evaluate(model, records, "true")
    random_report = evaluate(model, records, "random", seed=3)
    assert true_report.mae_h <= random_report.mae_h


# ---------------------------------------------------------------------------
# Overlay export
# ---------------------------------------------------------------------------


class _Pk:
    def __init__(self, c, h, carbon, slot=1):
        self.delta_c, self.delta_h, self.peak_slot = c, h, slot

        class U:
            carbon_index = carbon

        self.ch_unit = U()


def test_svg_glyph_and_link_counts(tmp_path):
    preds = [_Pk(100.0, 5.0, 0)]
    obs = [ObservedPeak(101.0, 5.1)]
    path = export_overlay(preds, obs, tmp_path / "o.svg", fmt="svg")
    root = ET.fromstring(path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    circles = [e for e in root.iter(f"{ns}circle") if e.get("class") == "pred"]
    rects = [e for e in root.iter(f"{ns}rect") if e.get("class") == "obs"]
    links = [e for e in root.iter(f"{ns}line") if e.get("class") == "link"]
    assert len(circles) == 1 and len(rects) == 1 and len(links) == 1


def test_svg_axis_margins(tmp_path):
    preds = [_Pk(20.0, 1.0, 0), _Pk(150.0, 8.0, 1)]
    obs = [ObservedPeak(21.0, 1.05), ObservedPeak(149.0, 7.9)]
    path = export_overlay(preds, obs, tmp_path / "o.svg", fmt="svg")
    root = ET.fromstring(path.read_text())
    h_lo, h_hi = float(root.get("data-h-min")), float(root.get("data-h-max"))
    c_lo, c_hi = float(root.get("data-c-min")), float(root.get("data-c-max"))
    h_span = 8.0 - 1.0
    c_span = 150.0 - 20.0
    assert h_lo <= 1.0 - 0.05 * h_span and h_hi >= 8.0 + 0.05 * h_span
    assert c_lo <= 20.0 - 0.05 * c_span and c_hi >= 150.0 + 0.05 * c_span


def test_csv_round_trip(tmp_path):
    preds = [_Pk(100.123456789, 5.000000001, 3), _Pk(55.5, 2.25, 7)]
    obs = [ObservedPeak(100.2, 5.01), ObservedPeak(55.4, 2.26)]
    path = export_overlay(preds, obs, tmp_path / "o.csv", fmt="csv")
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["pred_delta_c"]) == pytest.approx(100.123456789, abs=1e-9)
    assert float(rows[0]["obs_delta_h"]) == pytest.approx(5.01, abs=1e-9)
    assert float(rows[1]["cost"]) == pytest.approx(abs(2.25 - 2.26) + abs(55.5 - 55.4) / 10.0, abs=1e-9)


def test_export_requires_peaks(tmp_path):
    with pytest.raises(ValueError):
        export_overlay([], [ObservedPeak(1, 1)], tmp_path / "x.svg")
    with pytest.raises(ValueError):
        export_overlay([_Pk(1, 1, 0)], [ObservedPeak(1, 1)], tmp_path / "x.bmp",
                       fmt="bmp")
