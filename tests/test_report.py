"""
The reporting layer: Report holds the engine values a runner hands it,
and Report.to_machine converts them when a report is printed.  A ring
element is converted once however many reports print it, a sweep's
table lines convert none, an expected value equal to the computed one
reuses its form, and an integer too long to print is refused by its
field where it would be printed.
"""

import json
import re
import sys

import pytest

from barbellcalc import groupring, report, scenarios
from barbellcalc.deckgroup import free_abelian
from barbellcalc.groupring import INT, from_term_list, render, term_list_and_render
from barbellcalc.report import HypothesisError, Report, render_line, render_machine, render_table
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
    record = result.to_machine()
    assert record["expected"]["f"] is record["computed"]["f"]


def test_a_class_is_reported_with_its_rendering_only_as_computed():
    record = run_theorem("less-simple", m=105, k=1).to_machine()
    assert set(record["computed"]) == {"class", "class_rendered", "in_chosen_summand", "distinguished"}
    assert set(record["expected"]) == {"class", "distinguished"}
    assert record["computed"]["class"] == [["D", 0, 1], ["S", 1, 1], ["S_prime", 104, -1]]
    assert record["computed"]["class_rendered"] == "D + (1) S - (104) S_prime"
    assert record["expected"]["class"] is record["computed"]["class"]


def _spy(monkeypatch) -> tuple[list, list]:
    """(the elements the reports ask term_list_and_render for, one entry per
    conversion it makes), filled as the test renders; join_signed ends each
    conversion, and a kept result is returned before it."""
    asked, converted = [], []
    real_convert, real_join = report.term_list_and_render, groupring.join_signed
    monkeypatch.setattr(report, "term_list_and_render", lambda elem: asked.append(elem) or real_convert(elem))
    monkeypatch.setattr(groupring, "join_signed", lambda parts: converted.append(1) or real_join(parts))
    return asked, converted


def test_a_brunnian_sweep_converts_each_decided_value_once(monkeypatch):
    asked, converted = _spy(monkeypatch)
    reports = list(run_sweep("brunnian", 3, n=3))
    assert not asked and not converted  # building the reports converts nothing
    lines = [render_machine(job) for job in reports]
    # 15 jobs over the 6 winding pairs k <= l <= 3, each printing its first
    # pair's relator and image, its expected relator reusing the computed
    # form: the 5 pairs before (3, 3), which is only ever a second pair,
    # have their 10 values converted once each
    assert len(reports) == 15 and all(job.passed for job in reports)
    assert len(asked) == 2 * 15 and len({id(elem) for elem in asked}) == len(converted) == 2 * 5
    assert lines == [render_machine(job) for job in reports]


def test_a_table_sweep_converts_no_engine_value(monkeypatch):
    asked, converted = _spy(monkeypatch)
    lines = [render_line(job) for job in run_sweep("morsesimple", 8)]
    assert len(lines) == 64 and lines[0] == "PASS morsesimple-s3 k=1, l=1"
    assert not asked and not converted


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
    result = Report(computed=computed, expected=expected)  # holds the values, converts none
    for render_report in (Report.to_machine, render_table, render_machine):
        with pytest.raises(HypothesisError, match=f"^{re.escape(field)} has an integer of more than"):
            render_report(result)


def test_a_sweep_line_prints_a_report_whose_unprinted_value_is_too_long():
    # render_line prints the verdict, name and params: a computed value it
    # does not print is not checked, and its params are
    result = Report(computed={"dim": 10**5000}, name="scenario", params={"k": 1})
    assert render_line(result) == "PASS scenario k=1"
    with pytest.raises(HypothesisError, match=r"^computed\.dim has an integer of more than"):
        render_table(result)
    with pytest.raises(HypothesisError, match=r"^params\.k has an integer of more than"):
        render_line(Report(computed={"dim": 1}, name="scenario", params={"k": -(10**5000)}))


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
        render_machine(scenarios.run_scenario(scenario))
    with pytest.raises(HypothesisError, match=r"^params\.k has an integer of more than"):
        Report(computed={"dim": 1}, params={"k": -(10**5000)}).to_machine()
    # a container the JSON forms do not walk is refused as a whole
    with pytest.raises(HypothesisError, match=r"^params has an integer of more than"):
        Report(computed={"dim": 1}, params={"k": (1, 10**5000)}).to_machine()
    printed = Report(computed={"dim": 1}, params={"barbells": [{"iterate": 10**4100}], "k": 3})
    params_line = f"params: barbells=[{{'iterate': {10**4100}}}], k=3"
    assert render_table(printed).splitlines()[0:2] == ["theorem: ", params_line]
