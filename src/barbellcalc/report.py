r"""
The reporting layer.  Report holds the engine values a runner hands it
(RingElements, EquivClasses, lists and dicts of them, plain JSON), and
each format converts them when a report is printed, computed, then
expected, then params: render_machine writes Report.to_machine's text,
a free-group ring element's joined from the forms it keeps (shared
values convert once; groupring.json_text), the rest, classes too,
through the JSON encoder render_table, writing a ring element's sum
alone, shares.  An expected value equal to the computed one reuses its
form; an integer too long to print is refused by its field.
"""

from __future__ import annotations

import sys
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii

from .equivariant import EquivClass, class_forms, class_term_list
from .groupring import FREE, RingElement, json_text, render, term_list_and_render

_E = JSONEncoder(sort_keys=True, check_circular=False)  # both formats' encoder; no record nests a cycle
_CHUNKS = c_make_encoder(None, _E.default, encode_basestring_ascii, _E.indent, _E.key_separator, _E.item_separator,
                         _E.sort_keys, _E.skipkeys, _E.allow_nan)  # built once; JSONEncoder.encode builds one a call


def _encode(value) -> str:
    return "".join(_CHUNKS(value, 0))


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


def _converted(report: Report, convert, class_terms, class_rendered=str) -> tuple[dict, dict]:
    """The computed values, then the expected ones (one equal to the computed reusing its form), each
    convert(value, where); a computed class is class_terms(its term list), KEY_rendered class_rendered(its sum)."""
    computed = {}
    for key, value in report.computed.items():
        where = f"computed.{key}"
        if type(value) is EquivClass:
            terms, rendered = _printed(class_forms, value, where)
            computed[f"{key}_rendered"], computed[key] = class_rendered(rendered), class_terms(terms)
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


def _holds_words(value) -> bool:
    """Is value a ring element over a free group, or a list (a row, a matrix) whose first item is or holds one?"""
    return (type(value) is RingElement and value.group.kind == FREE
            or type(value) is list and bool(value) and _holds_words(value[0]))


def _json(value, where: str) -> str:
    """The text of _form(value, where): a ring element's joined, a list's holding one from its items'."""
    if type(value) is RingElement:
        return _printed(json_text, value, where)
    if type(value) is list and _holds_words(value):
        return f"[{', '.join([_json(item, f'{where}[{i}]') for i, item in enumerate(value)])}]"
    return _encode(_form(value, where))


def render_machine(report: Report) -> str:
    """json.dumps(report.to_machine(), sort_keys=True), from texts (_json) if a value holds words and keys are str."""
    if not (any(map(_holds_words, report.computed.values()))  # else whole: short texts escape cheaply
            and {*map(type, report.computed), *map(type, report.expected)} <= {str}):
        return _encode(report.to_machine())
    computed, expected = (", ".join([f"{encode_basestring_ascii(key)}: {texts[key]}" for key in sorted(texts)])
                          for texts in _converted(report, _json, _encode, _encode))
    rest = _encode(dict(notes=report.notes, params=_checked(report.params), passed=report.passed, theorem=report.name))
    return f'{{"computed": {{{computed}}}, "expected": {{{expected}}}, {rest[1:]}'  # rest's keys last, "{" dropped


def render_line(report: Report) -> str:
    """A sweep job's line in table format: verdict, theorem, parameters.  It converts and checks
    no computed or expected value; a params integer too long to print is refused by its field."""
    return f"{'PASS' if report.passed else 'FAIL'} {report.name} {_params_text(_checked(report.params))}"
