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


def s_to_ns(seconds: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(seconds * SECOND)


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds (alias of :func:`s_to_ns`).

    The name reads as a unit annotation at API boundaries —
    ``cell.run_for(seconds(2.5))`` — which is where experiments hand
    their float ``duration_s`` parameters to the integer-ns engine (whose
    entry points refuse anything but an ``int``).
    """
    return round(value * SECOND)


def ns_to_us(ns: int) -> float:
    """Convert nanoseconds to (float) microseconds."""
    return ns / US


def ns_to_ms(ns: int) -> float:
    """Convert nanoseconds to (float) milliseconds."""
    return ns / MS


def ns_to_s(ns: int) -> float:
    """Convert nanoseconds to (float) seconds."""
    return ns / SECOND
