r"""
The reporting layer.  Report holds the engine values a runner hands it
(RingElements, EquivClasses, lists and dicts of them, plain JSON), and
Report.to_machine converts them when a report is printed: a ring
element's term list and rendered sum (kept on the element, so shared
values convert once), a class's term list (and under computed its
rendered sum, as KEY_rendered).  An expected value equal to the computed
one reuses its form; an integer too long to print is refused by its field
(params.barbells[0].iterate).  render_table and render_machine lay that
record out; render_line prints a sweep job's verdict, name and params.
"""

from __future__ import annotations

import json
import sys

from .equivariant import EquivClass, class_term_list, render_class
from .groupring import RingElement, term_list_and_render


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
        value, kind = class_term_list(value), list
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
        computed = {}
        for key, value in self.computed.items():
            where = f"computed.{key}"
            if isinstance(value, EquivClass):
                computed[key], computed[f"{key}_rendered"] = class_term_list(value), _printed(render_class, value, where)
            else:
                computed[key] = _form(value, where)
        expected = {key: computed[key] if key in self.computed and value == self.computed[key]
                    else _form(value, f"expected.{key}") for key, value in self.expected.items()}
        return {"theorem": self.name, "params": _checked(self.params), "computed": computed,
                "expected": expected, "passed": self.passed, "notes": self.notes}


def _params_text(params: dict) -> str:
    return ", ".join(f"{key}={params[key]}" for key in sorted(params))


def _fmt(value) -> str:
    if value is None:
        return "infinite"
    if isinstance(value, dict) and "rendered" in value:
        return value["rendered"]
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def render_table(report: Report) -> str:
    record = report.to_machine()
    lines = [f"theorem: {report.name}"]
    if report.params:
        lines.append(f"params: {_params_text(report.params)}")
    lines += [f"  {key}: {_fmt(record['computed'][key])}" for key in sorted(record["computed"])]
    lines += [f"  expected {key}: {_fmt(record['expected'][key])}" for key in sorted(record["expected"])]
    lines += [f"  note: {note}" for note in report.notes]
    lines.append("PASS" if report.passed else "FAIL")
    return "\n".join(lines)


def render_machine(report: Report) -> str:
    return json.dumps(report.to_machine(), sort_keys=True)


def render_line(report: Report) -> str:
    """A sweep job's line in table format: verdict, theorem, parameters.  It converts and checks
    no computed or expected value; a params integer too long to print is refused by its field."""
    return f"{'PASS' if report.passed else 'FAIL'} {report.name} {_params_text(_checked(report.params))}"
