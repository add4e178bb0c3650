r"""
The reporting layer.  Report holds the engine values a runner hands it
(RingElements, EquivClasses, lists and dicts of them, plain JSON), and
each format converts them when a report is printed, computed, then
expected, then params: render_machine writes Report.to_machine, a ring
element's term list and rendered sum (kept on the element, so shared
values convert once) and a class's term list (and under computed its
rendered sum, as KEY_rendered; class_forms), render_table the texts, a
ring element's sum alone.  An expected value equal to the computed one
reuses its form; an integer too long to print is refused by its field
(params.barbells[0].iterate).  render_line prints a sweep job's verdict,
name and params.
"""

from __future__ import annotations

import json
import sys

from .equivariant import EquivClass, class_forms, class_term_list
from .groupring import RingElement, render, term_list_and_render

# both formats' JSON: every record nests without a cycle (run_scenario echoes only checked fields)
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode


class HypothesisError(ValueError):
    """Scenario parameters violate the hypotheses the argument needs."""


def _printed(convert, value, where: str):
    """convert(value), text holding every integer of value; one too long to print is refused by where."""
    try:
        return convert(value)
    except ValueError:
        raise HypothesisError(f"{where} has an integer of more than {sys.get_int_max_str_digits()} digits, "
                              "too long to print") from None


def _form(value, where: str):
    """The JSON form of one report value; where names its field."""
    kind = type(value)
    if kind is RingElement:
        terms, rendered = _printed(term_list_and_render, value, where)
        return {"terms": terms, "rendered": rendered}
    if kind is EquivClass:
        value, kind = class_term_list(value), list  # walked, so that a long integer is refused by its place
    if kind is list:
        return [_form(item, f"{where}[{i}]") for i, item in enumerate(value)]
    if kind is dict:
        return {key: _form(item, f"{where}.{key}") for key, item in value.items()}
    # 2,000 bits are fewer than 640 digits, the least limit the interpreter takes
    if kind is int and value.bit_length() > 2000:
        _printed(str, value, where)
    return value


def _checked(params: dict) -> dict:
    try:  # the params' text in C; an integer too long to print is refused by its field, as _form names it
        repr(params)
    except ValueError:
        _printed(repr, _form(params, "params"), "params")
    return params


class Report:
    """One run's computed and expected engine values, unconverted, verdict and notes;
    run_theorem names it by the registry key it ran ("" until then) and records its params."""

    def __init__(self, computed: dict, expected: dict | None = None, passed: bool = True,
                 notes: list[str] | None = None, name: str = "", params: dict | None = None):
        self.computed, self.expected = computed, expected or {}
        self.passed, self.notes, self.name, self.params = passed, notes or [], name, params or {}

    def to_machine(self) -> dict:
        """The report's record in JSON forms, converted here: computed, then expected, then params."""
        computed, expected = _converted(self, _form, lambda terms: terms)
        return {"theorem": self.name, "params": _checked(self.params), "computed": computed,
                "expected": expected, "passed": self.passed, "notes": self.notes}


def _converted(report: Report, convert, class_terms) -> tuple[dict, dict]:
    """The computed values, then the expected ones (one equal to the computed reusing its form), each
    convert(value, where); a computed class is class_terms(its term list) and KEY_rendered its sum."""
    computed = {}
    for key, value in report.computed.items():
        where = f"computed.{key}"
        if type(value) is EquivClass:
            terms, computed[f"{key}_rendered"] = _printed(class_forms, value, where)
            computed[key] = class_terms(terms)
        else:
            computed[key] = convert(value, where)
    return computed, {key: computed[key] if key in report.computed and value == report.computed[key]
                      else convert(value, f"expected.{key}") for key, value in report.expected.items()}


def _params_text(params: dict) -> str:
    return ", ".join(f"{key}={params[key]}" for key in sorted(params))


def _text(value, where: str) -> str:
    """A table's text of one value: a ring element's rendered sum, the JSON
    form of a list, dict or class, "infinite" for None, else str."""
    kind = type(value)
    if kind is RingElement:
        return _printed(render, value, where)
    if kind is list or kind is dict or kind is EquivClass:
        return _encode(_form(value, where))
    return "infinite" if value is None else _printed(str, value, where)


def render_table(report: Report) -> str:
    computed, expected = _converted(report, _text, _encode)
    lines = [f"theorem: {report.name}"]
    if _checked(report.params):
        lines.append(f"params: {_params_text(report.params)}")
    lines += [f"  {key}: {computed[key]}" for key in sorted(computed)]
    lines += [f"  expected {key}: {expected[key]}" for key in sorted(expected)]
    lines += [f"  note: {note}" for note in report.notes]
    lines.append("PASS" if report.passed else "FAIL")
    return "\n".join(lines)


def render_machine(report: Report) -> str:
    return _encode(report.to_machine())


def render_line(report: Report) -> str:
    """A sweep job's line in table format: verdict, theorem, parameters.  It converts and checks
    no computed or expected value; a params integer too long to print is refused by its field."""
    return f"{'PASS' if report.passed else 'FAIL'} {report.name} {_params_text(_checked(report.params))}"
