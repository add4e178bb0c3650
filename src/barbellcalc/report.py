r"""
The reporting layer.  Runners hand Report engine values (RingElements,
EquivClasses, lists and dicts of them, plain JSON), and Report keeps the
JSON form of each, converted once when it is built: a ring element's
term list and rendered sum, a class's term list (and under computed its
rendered sum, as KEY_rendered).  An expected value equal to the computed
value under its key reuses the computed form.  An integer too long to
print is refused there by its field (params.barbells[0].iterate).
render_table, render_machine and render_line (a sweep job's line) lay
the forms out.  Refused inputs are quoted where they are read, by
barbellcalc.deckgroup's _echo, not here.
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


class Report:
    """One run's computed and expected values in their JSON forms, its verdict and
    notes; run_theorem names it by the registry key it ran ("" until then) and
    records its params."""

    def __init__(self, computed: dict, expected: dict | None = None, passed: bool = True,
                 notes: list[str] | None = None, name: str = "", params: dict | None = None):
        forms = {}
        for key, value in computed.items():
            where = f"computed.{key}"
            if isinstance(value, EquivClass):
                forms[key], forms[f"{key}_rendered"] = class_term_list(value), _printed(render_class, value, where)
            else:
                forms[key] = _form(value, where)
        self.computed, self.expected = forms, {
            key: forms[key] if key in computed and value == computed[key] else _form(value, f"expected.{key}")
            for key, value in (expected or {}).items()
        }
        self.passed, self.notes, self.name, self.params = passed, notes or [], name, params or {}
        try:  # the params' text in C; one too long to print is refused by its field, as _form names it
            repr(self.params)
        except ValueError:
            _form(self.params, "params")
            _printed(repr, self.params, "params")

    def to_machine(self) -> dict:
        return {"theorem": self.name, "params": self.params, "computed": self.computed,
                "expected": self.expected, "passed": self.passed, "notes": self.notes}


def _params_text(report: Report) -> str:
    return ", ".join(f"{key}={report.params[key]}" for key in sorted(report.params))


def _fmt(value) -> str:
    if value is None:
        return "infinite"
    if isinstance(value, dict) and "rendered" in value:
        return value["rendered"]
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def render_table(report: Report) -> str:
    lines = [f"theorem: {report.name}"]
    if report.params:
        lines.append(f"params: {_params_text(report)}")
    lines += [f"  {key}: {_fmt(report.computed[key])}" for key in sorted(report.computed)]
    lines += [f"  expected {key}: {_fmt(report.expected[key])}" for key in sorted(report.expected)]
    lines += [f"  note: {note}" for note in report.notes]
    lines.append("PASS" if report.passed else "FAIL")
    return "\n".join(lines)


def render_machine(report: Report) -> str:
    return json.dumps(report.to_machine(), sort_keys=True)


def render_line(report: Report) -> str:
    """A sweep job's line in table format: verdict, theorem, parameters."""
    return f"{'PASS' if report.passed else 'FAIL'} {report.name} {_params_text(report)}"
