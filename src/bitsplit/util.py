"""Small shared integer helpers."""

from __future__ import annotations


def worker_count() -> int:
    """Always 1: evaluation and table building run serially.

    Kept only so that benchmark run records can still report a worker count.
    """
    return 1


def parallel_map(fn, items) -> list:
    """`[fn(x) for x in items]`. Nothing in bitsplit calls it any more.

    Kept only because the benchmark's traced run wraps this name and
    declares per-layer metrics for it; it goes when they do (ROADMAP 4b).
    """
    return [fn(x) for x in items]


def to_int(value) -> int:
    """An int from a config value: an int, an integral float or a numeric
    string; a bool or anything else raises ValueError."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def prod(xs) -> int:
    out = 1
    for x in xs:
        out *= int(x)
    return out
