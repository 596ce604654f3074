"""Reference-table reproduction and scaling-law checks."""

import pytest

from mlco import report
from mlco.build import WingStyle
from mlco.ir import GateCensus
from mlco.report import (
    DETO_REFERENCE_PER_STEP, REFERENCE_ROWS,
    deto_cost_model_cx, format_sweep, format_table1, mlco_one_step_cx,
    mlco_spray_step_cx, mlco_two_step_cx, reduction_ratio, reproduce_table1, scaling_sweep,
)


@pytest.fixture(scope="module")
def table1_rows():
    return reproduce_table1()


def test_every_reference_row_passes(table1_rows):
    by_name = {r.report.name: r for r in table1_rows}
    for name in REFERENCE_ROWS:
        assert by_name[name].passed, name
    assert by_name["2-step LoGS target"].passed


def test_logs_target_cx_at_most_78(table1_rows):
    target = next(r for r in table1_rows if r.report.name == "2-step LoGS target")
    assert target.report.census["CX"] <= 78


def test_naive_lowering_examples(table1_rows):
    # Spot-check the naive-CX column: the MiGS-simplified one-step census
    # prices at 4*4 + 6*6 + 2 + 16 = 70; the DETO cost model at n=6 is 114.
    row = next(r for r in table1_rows if r.report.name == "1-step MiGS simplified")
    assert row.report.naive_cx == 70
    replaced = next(r for r in table1_rows if r.report.name == "2-step MiGS replaced")
    assert replaced.report.naive_cx == 78


def test_format_table1_marks_rows(table1_rows):
    text = format_table1(table1_rows)
    assert "FAIL" not in text
    assert text.count("pass") == len(table1_rows)


def test_two_step_formula_values():
    assert [mlco_two_step_cx(n) for n in (6, 8, 12, 16, 20)] \
        == [78, 118, 198, 278, 358]


def test_deto_cost_model_closed_form_value():
    assert deto_cost_model_cx(8) == 276


def test_migs_census_law_matches_two_step_formula():
    # Naive lowering of the replaced 2-step MiGS census reproduces the
    # linear law: 4*2(n-2) + 3*2(n-3) + 2*2 + 2(3n-6) = 2(10n - 21).
    for n in range(3, 40):
        law = GateCensus({"CCRZ": 2 * (n - 2), "RCCX": 2 * (n - 3),
                          "CRZ": 2, "CX": 2 * (3 * n - 6)})
        assert law.total_cx_after_naive_lowering == mlco_two_step_cx(n)


def test_scaling_sweep_rows_match():
    rows = scaling_sweep([6, 8], steps=2, executable=True)
    assert all(r.match for r in rows)
    strategies = {(r.n, r.strategy) for r in rows}
    assert (6, "MLCO") in strategies
    assert (6, "DETO-cost-model") in strategies
    assert (6, "DETO-executable") in strategies
    mlco6 = next(r for r in rows if r.n == 6 and r.strategy == "MLCO")
    assert mlco6.cx_final == 78 and mlco6.cx_predicted == 78
    deto6 = next(r for r in rows if r.n == 6 and r.strategy == "DETO-cost-model")
    assert deto6.cx_final == 114 and deto6.steps == 1


def test_scaling_sweep_checks_deto_cost_model_below_8(monkeypatch):
    # Below n=8 each block j is priced as 2j wing CX plus a C^jRZ; a wrong
    # DETO count there must fail its row.
    monkeypatch.setattr(report, "pipeline_deto", lambda params, steps, style: (None, 115))
    rows = scaling_sweep([6], steps=2, executable=False)
    deto6 = next(r for r in rows if r.strategy == "DETO-cost-model")
    assert deto6.cx_predicted == 114 and deto6.cx_final == 115
    assert not deto6.match


@pytest.mark.parametrize("steps", [1, 3])
def test_scaling_sweep_predicts_odd_step_counts(steps):
    # k steps decompose to k // 2 two-step counts plus one one-step count.
    rows = [r for r in scaling_sweep([4, 5, 7, 9], steps=steps, executable=False)
            if r.strategy == "MLCO"]
    assert all(r.match for r in rows)
    assert [r.cx_predicted for r in rows] == [
        (steps // 2) * mlco_two_step_cx(n) + mlco_one_step_cx(n) for n in (4, 5, 7, 9)]


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_scaling_sweep_checks_spray_law(steps):
    # Spray steps gain nothing from composition: k steps cost k(12n - 26).
    rows = [r for r in scaling_sweep([4, 6, 9], steps=steps, style=WingStyle.SPRAY,
                                     executable=False)
            if r.strategy == "MLCO"]
    assert all(r.match for r in rows)
    assert [r.cx_predicted for r in rows] == [steps * mlco_spray_step_cx(n)
                                              for n in (4, 6, 9)]


def test_scaling_sweep_skips_executable_when_disabled():
    rows = scaling_sweep([6], steps=2, executable=False)
    assert not any(r.strategy == "DETO-executable" for r in rows)


def test_scaling_sweep_caps_executable_size():
    rows = scaling_sweep([12], steps=2, executable=True)
    assert not any(r.strategy == "DETO-executable" for r in rows)


def test_format_sweep_header_and_shape():
    rows = scaling_sweep([6], steps=2, executable=False)
    text = format_sweep(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "n,strategy,steps,cx_final,cx_predicted,match"
    assert len(lines) == 1 + len(rows)
    assert lines[1].startswith("6,MLCO,2,78,78,true")


def test_reduction_ratio_at_least_61_percent(table1_rows):
    target = next(r for r in table1_rows if r.report.name == "2-step LoGS target")
    ratio = reduction_ratio(target.report.census)
    assert ratio >= 0.61
    assert DETO_REFERENCE_PER_STEP == 102
