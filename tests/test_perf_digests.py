"""Digest-equivalence regression tests (tier-1).

The perf subsystem's contract is that optimizations are *behavior
invisible*: the canonical trace digest (``TraceRecorder.digest()``) of
every golden scenario must stay bit-identical across perf work. The
digests below were recorded from the pre-optimization engine/codec and
re-verified after the ``__slots__``/tuple-heap/compaction, codec
fast-path, memoized-formatting, and batched-RNG changes (``fig10_tcp_dl``
from the whole-window-scan TCP that ``tests/tcp_scan.py`` preserves, and
re-verified on the ordered scoreboard). Any future PR
that changes one of these values changed *behaviour*, not just speed —
either fix the regression or consciously re-golden with a written
justification in the PR.
"""

import pytest

from repro.perf.scenarios import DIGEST_SCENARIOS, scenario_digest

#: Full-cell scenario runs; excluded from the fast `-m "not slow"` split.
pytestmark = pytest.mark.slow

#: scenario name -> golden canonical-trace digest.
GOLDEN_DIGESTS = {
    "fig9": "154785d0fe3c3971df57539d73a178a2cbd0cae32da1f10d626c4b3fbc838b67",
    "fig10_smoke": "249e2939805ab23746011f7033962031bbf536b593c816e06f9e003388fa68dc",
    "fig10_tcp_dl": "c9aeeb3a58ec8310f45f8eb0b895a04875d0cc8f40a3ae159d9e9e10f57bb0a4",
    "chaos_cmd_drop": "49cc218e27d1e357ef767acbd22e49ed7d9880fa082c59f88f788c209a5fa63e",
    "chaos_crash_restart": "08283654b706462fcccbe6a9bb5d5c965663fe1353bc5b789aae696a2ff3d94f",
}

#: scenario name -> engine events popped. An event that leaves no trace
#: record (a timer that fires and does nothing visible) moves no digest,
#: so the count is pinned beside it.
GOLDEN_EVENTS = {
    "fig9": 120_440,
    "fig10_smoke": 99_681,
    "fig10_tcp_dl": 116_315,
    "chaos_cmd_drop": 99_103,
    "chaos_crash_restart": 109_324,
}


def test_golden_set_matches_scenario_catalog():
    assert set(GOLDEN_DIGESTS) == set(GOLDEN_EVENTS) == set(DIGEST_SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_scenario_digest_matches_golden(name):
    cell = DIGEST_SCENARIOS[name]()
    assert cell.trace.digest() == GOLDEN_DIGESTS[name], (
        f"canonical trace digest of scenario {name!r} changed: a perf or "
        "refactor change altered simulation behaviour (event content or "
        "membership). Optimizations must be behavior-invisible."
    )
    assert cell.sim.events_processed == GOLDEN_EVENTS[name]


def test_scenario_runs_are_replay_stable():
    """The digest is a function of the scenario alone: replay == run."""
    assert scenario_digest("fig10_smoke") == scenario_digest("fig10_smoke")
