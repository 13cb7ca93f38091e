"""Small shared helpers: the one reader of input-file fields, and integer
arithmetic."""

from __future__ import annotations

import math


def worker_count() -> int:
    """Always 1: evaluation and table building run serially.

    Kept only so that benchmark run records can still report a worker count.
    """
    return 1


def parallel_map(fn, items) -> list:
    """`[fn(x) for x in items]`. Nothing in bitsplit calls it any more.

    Kept only because the benchmark's traced run wraps this name and
    declares per-layer metrics for it; it goes when they do (ROADMAP item 1).
    """
    return [fn(x) for x in items]


MISSING = object()  # what a loader passes for a field absent from its object


def _number(v):
    if type(v) not in (int, float):
        return None
    try:
        out = float(v)
    except OverflowError:  # an integer beyond float range
        return None
    return out if math.isfinite(out) else None


def _bits(v):
    if type(v) is str:
        tokens = [t.strip() for t in v.split(",") if t.strip()]
        if not all(t.isascii() and t.isdigit() for t in tokens):
            return None
        v = [int(t) for t in tokens]
    if type(v) is not list or not v or any(type(b) is not int or not 1 <= b <= 32 for b in v):
        return None
    return tuple(v)


# kind -> (what the message calls it, the rule: the value read, or None)
_KINDS = {
    "int": ("an integer", lambda v: v if type(v) is int else None),
    "number": ("a finite number", _number),
    "flag": ("true or false", lambda v: v if type(v) is bool else None),
    "string": ("a string", lambda v: v if type(v) is str else None),
    "path": ("a path string", lambda v: v if type(v) is str and v else None),
    "object": ("an object", lambda v: v if type(v) is dict else None),
    "ints": ("a list of integers", lambda v: list(v) if type(v) is list and all(type(x) is int for x in v) else None),
    "bits": ("a list of integers in 1..32", _bits),
}


def read_field(value, kind, where, field, error, minimum=None, maximum=None):
    """`value`, the JSON value of `field` in `where` (a file, section, node
    or subcommand), read by one rule per `kind`:

    - "int": a JSON integer, never a bool, a float or a string;
    - "number": a finite JSON integer or float, not a bool, as a float;
    - "flag": `true` or `false`;
    - "string": a string; "path": a non-empty string;
    - "object": a JSON object; "ints": a list of JSON integers;
    - "bits": a non-empty list of integers in 1..32, or the same as a
      comma-separated string ("2,4,8"), as a tuple in the given order.

    An "int" or "number" must also lie in `minimum`..`maximum` where given.
    Null is of no kind: a loader that lets a field be unset checks for None
    itself. Anything else raises `error("<where>: <field> must be <kind>,
    not <value>")`, and MISSING `error("<where>: missing field '<field>'")`.
    """
    if value is MISSING:
        raise error("%s: missing field %r" % (where, field))
    what, rule = _KINDS[kind]
    out = rule(value)
    if out is not None and (minimum is None or out >= minimum) and (maximum is None or out <= maximum):
        return out
    if maximum is not None:
        what += " in %s..%s" % (minimum, maximum)
    elif minimum is not None:
        what += " of at least %s" % minimum
    raise error("%s: %s must be %s, not %r" % (where, field, what, value))


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def prod(xs) -> int:
    out = 1
    for x in xs:
        out *= int(x)
    return out
