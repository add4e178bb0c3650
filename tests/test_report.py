"""
The reporting layer: Report holds the engine values a runner hands it,
and each format converts them when a report is printed.  A ring
element is converted once however many reports print it, a sweep's
table lines convert none, an expected value equal to the computed one
reuses its form, and an integer too long to print is refused by its
field where it would be printed, computed first, then expected, then
params.  A table, written from the engine values, is its machine record
laid out as before (oracles.table_from_record).
"""

import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barbellcalc import groupring, report, scenarios
from barbellcalc.deckgroup import free_abelian, free_group
from barbellcalc.groupring import F2, INT, RingElement, from_term_list, render, term_list_and_render
from barbellcalc.report import HypothesisError, Report, render_line, render_machine, render_table
from barbellcalc.scenarios import SWEEPS, builtin_geometry, run_scenario, run_sweep, run_theorem
from oracles import table_from_record
from test_scenarios import INLINE_SCENARIO, SAMPLE_PARAMS

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))


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
    """(the elements the reports ask term_list_and_render for, the elements
    it converts), filled as the test renders; an element asked for by the
    report layer or through groupring.render is converted when it keeps no
    forms yet, and a kept result is returned without a conversion."""
    asked, converted = [], []
    real_convert = groupring.term_list_and_render

    def convert(elem):
        if elem._forms is None:
            converted.append(elem)
        return real_convert(elem)

    monkeypatch.setattr(groupring, "term_list_and_render", convert)
    monkeypatch.setattr(report, "term_list_and_render", lambda elem: asked.append(elem) or convert(elem))
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


def test_a_long_integer_is_refused_computed_first_then_expected_then_params():
    # each field in the order the report holds it, not in the order a table prints it
    big = 10**5000
    cases = [
        (Report(computed={"z": 1, "b": [big], "a": big}, expected={"a": -big}, params={"k": big}), "computed.b[0]"),
        (Report(computed={"a": 1}, expected={"z": {"x": big}, "a": big}, params={"k": big}), "expected.z.x"),
        (Report(computed={"a": 1}, expected={"a": 1}, params={"k": 1, "j": -big}), "params.j"),
    ]
    for result, field in cases:
        for render_report in (Report.to_machine, render_table, render_machine):
            with pytest.raises(HypothesisError, match=f"^{re.escape(field)} has an integer of more than"):
                render_report(result)


@pytest.mark.parametrize("key", sorted(SAMPLE_PARAMS))
def test_a_theorem_table_is_its_record_laid_out(key):
    result = run_theorem(key, **SAMPLE_PARAMS[key])
    assert render_table(result) == table_from_record(result)


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.name)
def test_a_scenario_table_is_its_record_laid_out(path):
    for data in (json.loads(path.read_text()), INLINE_SCENARIO):
        result = run_scenario(data)
        assert render_table(result) == table_from_record(result)


LINK = builtin_geometry("sphere_torus_link", n=3)
WORD = LINK.group.generator(1, 2).mul(LINK.group.generator(3, -1))


@pytest.mark.parametrize("result", [
    # a failing report: a class unlike the expected one, over a free group,
    # nested values, None, and an int equal to the expected bool
    Report(computed={"class": LINK.basis_class("S_h", WORD, 3), "nested": {"rows": [[RingElement.one(free_group(3), F2)]],
                                                                            "dim": None},
                     "dim": None, "flag": 1, "branch": "b"},
           expected={"class": LINK.basis_class("S_v"), "nested": {"dim": 2}, "dim": 4, "flag": True},
           passed=False, notes=["a note"], name="planted", params={"k": 1, "h": {"0": 1}}),
    Report(computed={"matrix": [[from_term_list([[[2], -3], [[0], 1]], free_abelian(1), INT)]]},
           expected={"class": CIRCLES.basis_class("D_R", coeff=-2)}),
], ids=["failing", "expected class only"])
def test_a_built_report_table_is_its_record_laid_out(result):
    assert render_table(result) == table_from_record(result)


@st.composite
def cover_params(draw) -> dict:
    k, l = draw(st.integers(1, 10**5)), draw(st.integers(0, 10**5) | st.just(0))
    return {"m": draw(st.integers(2 * k + 2 * l + 101, 10**12)), "k": k, "l": l}


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(["morsesimple-s3", "higher-dim-knots", "unknots"]),
       k=st.integers(1, 10**6), l=st.integers(1, 10**6))
def test_torus_tables_are_their_records_laid_out(key, k, l):
    result = run_theorem(key, k=k, l=l)
    assert render_table(result) == table_from_record(result)


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(["less-simple", "simple-splitting-spheres", "genus1-handlebody"]), params=cover_params())
def test_cover_tables_are_their_records_laid_out(key, params):
    result = run_theorem(key, **params)
    assert render_table(result) == table_from_record(result)


def _holds_itself(value, above: frozenset = frozenset()) -> bool:
    """Does a container of value hold itself, directly or further down?  A
    form shared by two fields (an expected value reusing the computed one) is
    no cycle."""
    if not isinstance(value, (dict, list, tuple)):
        return False
    if id(value) in above:
        return True
    items = value.values() if isinstance(value, dict) else value
    return any(_holds_itself(item, above | {id(value)}) for item in items)


def test_every_report_record_nests_without_a_cycle():
    # render_machine's encoder skips the circular check, which every record passes
    shared = {"cuff1": "S_h", "cuff2": "S_h", "holonomy": [1]}
    reports = [run_theorem(key, **params) for key, params in SAMPLE_PARAMS.items()]
    reports += [job for name in SWEEPS for job in run_sweep(name, 3)]
    # a library caller's dict, echoed as params: one barbell object twice
    reports += [run_scenario(data) for data in (*(json.loads(path.read_text()) for path in SCENARIOS), INLINE_SCENARIO,
                                                {"geometry": "torus_complement", "barbells": [shared, shared]})]
    for result in reports:
        record = result.to_machine()
        assert not _holds_itself(record), result.name
        assert render_machine(result) == json.dumps(record, sort_keys=True)
    # a caller's dict that holds itself is refused by the schema before anything echoes it
    for field in ("field", "barbells", "geometry"):
        data = {"geometry": "torus_complement"}
        data[field] = [data] if field == "barbells" else data
        with pytest.raises(ValueError):
            run_scenario(data)
