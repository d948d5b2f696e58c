"""The one seam for attributing fired events.

Every callback handed to ``Simulator.schedule`` / ``.at`` /
``.schedule_periodic`` is wrapped where it is scheduled, as
``bench/spans.py`` wraps them. The run loop itself is never wrapped: it
drains each instant in place and makes no call per event that a census
could hook. Install the seam before the deployment is built, so its
periodic series carry the wrapper too.

:func:`wrap_scheduled` is the patcher; the tests report fires through
:func:`observe_fires`, and ``benchmarks/pop_census.py`` times them
through :func:`wrap_scheduled` with its own wrapper.
"""

from types import CodeType
from typing import Any, Callable, FrozenSet, Tuple

from repro.sim.engine import Simulator

#: ``on_fire(callback, args, periodic)``: the original callback, the
#: arguments it is about to get, and whether a periodic series fires it.
FireHook = Callable[[Callable[..., Any], Tuple[Any, ...], bool], None]

#: ``wrap(callback, periodic)``: what the engine schedules in place of
#: ``callback``.
Wrapper = Callable[[Callable[..., Any], bool], Callable[..., Any]]

#: The entry points that take a callback, and whether each starts a
#: periodic series.
SCHEDULING = (("schedule", False), ("at", False), ("schedule_periodic", True))


def wrap_scheduled(
    setattr_: Callable[[Any, str, Any], None], wrap: Wrapper
) -> FrozenSet[CodeType]:
    """Patch every scheduling entry point through ``setattr_(Simulator,
    name, value)`` so each callback scheduled from now on is replaced by
    ``wrap(callback, periodic)``; undoing is the caller's ``setattr_``'s
    business. Returns the code objects of the patched entry points, which
    a Python-frame count skips."""

    def patch(name: str, periodic: bool) -> CodeType:
        original = getattr(Simulator, name)

        def scheduling(sim, when, callback, *args, **kwargs):
            return original(sim, when, wrap(callback, periodic), *args, **kwargs)

        setattr_(Simulator, name, scheduling)
        return scheduling.__code__

    return frozenset(patch(name, periodic) for name, periodic in SCHEDULING)


class Observed:
    """A scheduled callback that reports each fire to its hook first."""

    __slots__ = ("callback", "periodic", "on_fire")

    def __init__(self, callback: Callable[..., Any], periodic: bool, on_fire: FireHook):
        self.callback = callback
        self.periodic = periodic
        self.on_fire = on_fire

    def __call__(self, *args: Any) -> Any:
        self.on_fire(self.callback, args, self.periodic)
        return self.callback(*args)


def observe_fires(monkeypatch: Any, on_fire: FireHook) -> FrozenSet[CodeType]:
    """Report every event scheduled from now on to ``on_fire`` until
    ``monkeypatch`` is undone. Returns the code objects of the seam's own
    frames, which a Python-frame count skips."""

    def observed(callback: Callable[..., Any], periodic: bool) -> Observed:
        return Observed(callback, periodic, on_fire)

    return wrap_scheduled(monkeypatch.setattr, observed) | {
        observed.__code__,
        Observed.__init__.__code__,
        Observed.__call__.__code__,
    }
