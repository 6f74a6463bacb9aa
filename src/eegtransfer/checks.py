"""The number check that the config records apply to their fields.

It lives apart from :mod:`config` so that :mod:`augment`, which
:mod:`config` imports, uses the same rule with its own error type.
"""

from __future__ import annotations

import math
import numbers


def number(name, value, kind, sign=None, error=ValueError):
    """`value` checked as the field `name` of type `kind`, int or float.

    An int is any ``numbers.Integral`` but a bool and comes back as a Python
    int; a float is any finite ``numbers.Real`` but a bool and comes back
    unchanged.  `sign` "positive" asks for > 0, "non-negative" for >= 0.  A
    failure raises `error` with a message that starts with `name`."""
    if kind is int:
        ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    else:
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and math.isfinite(value))
    if ok and sign is not None:
        ok = value > 0 if sign == "positive" else value >= 0
    if not ok:
        what = " ".join(w for w in (sign, "integer" if kind is int else "finite number") if w)
        raise error(f"{name} must be a {what}, got {value!r}")
    return int(value) if kind is int else value


def check_fields(record, kind, sign, *names, error=ValueError):
    """:func:`number` on each field `names` of a frozen record, in place."""
    for name in names:
        object.__setattr__(record, name, number(name, getattr(record, name), kind, sign, error))
