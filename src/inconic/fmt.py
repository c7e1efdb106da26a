"""Deterministic number and JSON formatting for CLI output.

One number rule, ``fmt_number``, serves every printed number: a float
that is not finite raises NonFiniteNumber (a NumericalFailure, so the CLI
exits 5, and a ValueError), and every other float prints with 15
significant digits at any magnitude, -0.0 as 0, so identical inputs
always produce identical bytes.
Two writers use it.  ``dumps`` walks any nest of dicts, lists and scalars
and emits keys sorted.  ``ellipse_json`` writes the fixed ellipse record
of ``inscribe``, ``maxarea`` and ``sample`` from one template whose keys
are already in that sorted order, byte for byte what ``dumps`` gives for
the same record; when every number is a plain finite float it fills the
template in one ``%`` with ``%.15g``, the rule's own format.
"""
from __future__ import annotations

from .errors import NumericalFailure


class NonFiniteNumber(NumericalFailure, ValueError):
    """A number to print is NaN or infinite: a result the computation
    failed to produce, not a malformed input."""


def fmt_number(x) -> str:
    """One printed number by the rule above; an int prints as it is.
    Plain floats are tested first: nearly every printed number is one."""
    if type(x) is float:
        if x - x == 0.0:  # nan and +-inf give nan
            return f"{x + 0.0:.15g}"  # -0.0 + 0.0 is 0.0
        raise NonFiniteNumber("cannot format a non-finite number")
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, int):
        return str(x)
    return fmt_number(float(x))


def dumps(obj) -> str:
    """JSON with sorted keys and fixed float formatting."""
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        if obj.isascii() and obj.isprintable() and '"' not in obj and "\\" not in obj:
            out.append('"' + obj + '"')  # what json.dumps gives such a string
        else:
            import json
            out.append(json.dumps(obj))
    elif isinstance(obj, (int, float)):
        out.append(fmt_number(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            _emit(str(key), out)
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# The ellipse record with its keys sorted; h0 goes between foci and
# semi_major in the max-area record.
_ELLIPSE = ('{"angle_rad":%s,"area":%s,"center":[%s,%s],"classification":"ellipse",'
            '"conic":[%s,%s,%s,%s,%s,%s],"foci":[[%s,%s],[%s,%s]],"semi_major":%s,'
            '"semi_minor":%s,"tangencies":[[%s,%s,%s],[%s,%s,%s],[%s,%s,%s],[%s,%s,%s]]}')
_MAX_AREA = _ELLIPSE.replace('"semi_major"', '"h0":%s,"semi_major"')
# the same records with every number written by C, for ``_fill``'s bulk path
_BULK = {template: template.replace("%s", "%.15g") for template in (_ELLIPSE, _MAX_AREA)}
_FLOAT = {float}


def ellipse_json(result, h0: float | None = None) -> str:
    """The JSON record of an inscribed result (``ellipse``, ``conic`` and
    four ``tangencies``), with the max-area abscissa ``h0`` when given."""
    e = result.ellipse
    c, f1, f2 = e.center, e.focus1, e.focus2
    t1, t2, t3, t4 = result.tangencies
    head = (e.angle, e.area, c.x, c.y, *result.conic.coefficients(),
            f1.x, f1.y, f2.x, f2.y)
    tail = (e.semi_major, e.semi_minor, t1.x, t1.y, t1.w, t2.x, t2.y, t2.w,
            t3.x, t3.y, t3.w, t4.x, t4.y, t4.w)
    if h0 is None:
        return _fill(_ELLIPSE, head + tail)
    return _fill(_MAX_AREA, (*head, h0, *tail))


def _fill(template: str, values: tuple) -> str:
    """template with each value written by ``fmt_number``'s rule.  When
    every value is a plain float and their sum is finite (so each one is),
    the rule is one ``%`` over ``%.15g`` placeholders, with 0.0 added to
    each value so that -0.0 prints as 0; anything else goes through
    ``fmt_number`` value by value, which raises where the rule does."""
    if {*map(type, values)} == _FLOAT and (total := sum(values)) - total == 0.0:
        return _BULK[template] % tuple([x + 0.0 for x in values])
    return template % tuple(map(fmt_number, values))
