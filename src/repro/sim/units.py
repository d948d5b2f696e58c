"""Time units for the simulator.

The simulator clock counts integer nanoseconds. Using integers keeps event
ordering exact (no floating-point ties) and makes TTI arithmetic trivial:
one 30 kHz-subcarrier-spacing slot is exactly ``500 * US`` nanoseconds.
"""

#: One nanosecond (the base tick).
NS = 1

#: One microsecond in nanoseconds.
US = 1_000

#: One millisecond in nanoseconds.
MS = 1_000_000

#: One second in nanoseconds.
SECOND = 1_000_000_000


def us_to_ns(us: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(us * US)


def ms_to_ns(ms: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(ms * MS)


def s_to_ns(seconds: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(seconds * SECOND)


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds (alias of :func:`s_to_ns`).

    The name reads as a unit annotation at API boundaries —
    ``run_for_ns(cell, seconds(2.5))`` — which is where experiments hand
    their float ``duration_s`` parameters to the integer-ns engine.
    """
    return round(value * SECOND)


def _require_int_ns(value: int, what: str) -> int:
    # Exact type check: bool is an int subclass but never a duration,
    # and float durations are precisely the bug this boundary rejects.
    if type(value) is not int:
        raise TypeError(
            f"{what} must be integer nanoseconds, got "
            f"{type(value).__name__}: {value!r}"
        )
    return value


def run_for_ns(target, duration_ns: int):
    """Advance ``target`` (anything with ``run_for``) by integer ns.

    The explicit boundary helper for float-seconds experiment code:
    ``run_for_ns(cell, seconds(duration_s))``. Rejects non-int durations
    at runtime; slinglint TIMX001 flags float-seconds values flowing
    in statically.
    """
    return target.run_for(_require_int_ns(duration_ns, "duration_ns"))


def run_until_ns(target, time_ns: int):
    """Run ``target`` (anything with ``run_until``) to an integer-ns time."""
    return target.run_until(_require_int_ns(time_ns, "time_ns"))


def ns_to_us(ns: int) -> float:
    """Convert nanoseconds to (float) microseconds."""
    return ns / US


def ns_to_ms(ns: int) -> float:
    """Convert nanoseconds to (float) milliseconds."""
    return ns / MS


def ns_to_s(ns: int) -> float:
    """Convert nanoseconds to (float) seconds."""
    return ns / SECOND
