"""
The reporting layer: each engine value a runner hands Report is
converted once, an expected value equal to the computed one reuses its
form, and an integer too long to print is refused by its field.
"""

import json
import re
import sys

import pytest

from barbellcalc import report, scenarios
from barbellcalc.deckgroup import free_abelian
from barbellcalc.groupring import INT, from_term_list, render, term_list_and_render
from barbellcalc.report import HypothesisError, Report, render_machine, render_table
from barbellcalc.scenarios import builtin_geometry, run_sweep, run_theorem


def test_a_planted_closed_form_is_printed_as_expected_and_fails(monkeypatch):
    real = scenarios.morsesimple_f
    planted = real(3, 3)
    monkeypatch.setattr(scenarios, "morsesimple_f", lambda k, l: real(k + 1, l))
    result = run_theorem("morsesimple-s3", k=2, l=3)
    computed = real(2, 3)
    assert not result.passed and render(planted) != render(computed)
    lines = render_table(result).splitlines()
    assert f"  f: {render(computed)}" in lines and f"  expected f: {render(planted)}" in lines
    assert lines[-1] == "FAIL"
    record = json.loads(render_machine(result))
    terms, rendered = term_list_and_render(planted)
    assert record["expected"]["f"] == {"terms": terms, "rendered": rendered}
    assert record["computed"]["f"]["rendered"] == render(computed) and record["passed"] is False


def test_a_passing_report_prints_expected_f_as_f():
    result = run_theorem("morsesimple-s3", k=2, l=3)
    lines = render_table(result).splitlines()
    f = lines[lines.index("  dim: 12") + 1].removeprefix("  f: ")
    assert f"  expected f: {f}" in lines and lines[-1] == "PASS"
    # the computed form, reused rather than converted a second time
    assert result.expected["f"] is result.computed["f"]


def test_a_class_is_reported_with_its_rendering_only_as_computed():
    result = run_theorem("less-simple", m=105, k=1)
    assert set(result.computed) == {"class", "class_rendered", "in_chosen_summand", "distinguished"}
    assert set(result.expected) == {"class", "distinguished"}
    assert result.computed["class"] == [["D", 0, 1], ["S", 1, 1], ["S_prime", 104, -1]]
    assert result.computed["class_rendered"] == "D + (1) S - (104) S_prime"
    assert result.expected["class"] is result.computed["class"]


def test_a_brunnian_sweep_converts_each_decided_value_once(monkeypatch):
    converted = []
    real = report.term_list_and_render
    monkeypatch.setattr(report, "term_list_and_render", lambda p: converted.append(p) or real(p))
    reports = list(run_sweep("brunnian", 3, n=3))
    # 15 jobs over the 6 winding pairs k <= l <= 3: each pair's relator
    # and image once, its expected relator reusing the computed form
    assert len(reports) == 15 and all(job.passed for job in reports)
    assert len(converted) == 2 * 6


Z = free_abelian(1)
CIRCLES = builtin_geometry("circles_complement")


@pytest.mark.parametrize(
    "computed,expected,field",
    [
        ({"matrix": [[from_term_list([[[10**5000], 1]], Z, INT)]]}, {}, "computed.matrix[0][0]"),
        ({"matrix": [[from_term_list([[[0], 10**5000]], Z, INT)]]}, {}, "computed.matrix[0][0]"),
        ({"dim": 1}, {"dim": -(10**5000)}, "expected.dim"),
        ({"witnesses": {"x": [1, 10**5000]}}, {}, "computed.witnesses.x[1]"),
        ({"class": CIRCLES.basis_class("D_R", coeff=10**5000)}, {}, "computed.class"),
        ({"class": CIRCLES.basis_class("D_R")}, {"class": CIRCLES.basis_class("D_R", coeff=10**5000)},
         "expected.class[0][2]"),
    ],
)
def test_an_integer_too_long_to_print_is_refused_by_its_field(computed, expected, field):
    with pytest.raises(HypothesisError, match=f"^{re.escape(field)} has an integer of more than"):
        Report(computed=computed, expected=expected)


def test_the_refusal_threshold_is_the_interpreters_limit():
    # more than the 4,000 digits a parameter may have, fewer than 4,300
    big = 10**4100
    result = Report(computed={"f": from_term_list([[[big], big]], Z, INT), "dim": big}, expected={"dim": big})
    assert result.expected["dim"] == big and json.loads(render_machine(result))["computed"]["dim"] == big


def test_a_scenario_param_too_long_to_print_is_refused_by_its_field():
    # a library caller's scenario is not limited to 4,000 digits as a file is
    scenario = {"geometry": "torus_complement",
                "barbells": [{"cuff1": "S_h", "cuff2": "S_h", "holonomy": [1], "iterate": 10**5000}]}
    limit = sys.get_int_max_str_digits()
    message = f"params.barbells[0].iterate has an integer of more than {limit} digits, too long to print"
    with pytest.raises(HypothesisError, match=f"^{re.escape(message)}$"):
        scenarios.run_scenario(scenario)
    with pytest.raises(HypothesisError, match=r"^params\.k has an integer of more than"):
        Report(computed={"dim": 1}, params={"k": -(10**5000)})
    # a container the JSON forms do not walk is refused as a whole
    with pytest.raises(HypothesisError, match=r"^params has an integer of more than"):
        Report(computed={"dim": 1}, params={"k": (1, 10**5000)})
    printed = Report(computed={"dim": 1}, params={"barbells": [{"iterate": 10**4100}], "k": 3})
    params_line = f"params: barbells=[{{'iterate': {10**4100}}}], k=3"
    assert render_table(printed).splitlines()[0:2] == ["theorem: ", params_line]
