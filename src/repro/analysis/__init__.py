"""slinglint — repo-native static analysis for the Slingshot reproduction.

The reproduction rests on invariants that used to live only in prose.
What a run can see is checked where it runs: each RNG stream is drawn
only by the subsystem that owns it
(:meth:`repro.sim.rng.RngRegistry.stream`), simulated time is integer
nanoseconds (every :class:`repro.sim.engine.Simulator` entry point
refuses a non-``int``), and a test counts the switch program's register
accesses per packet pass (``tests/test_fh_middlebox.py``). The linter
keeps what no run can notice:

* **Determinism** (DET) — all stochastic behaviour flows through
  :class:`repro.sim.rng.RngRegistry` named streams; no wall clocks
  outside :mod:`repro.perf.timing`, no stdlib ``random``, no generator
  built outside :mod:`repro.sim.rng` from anything but a derived seed —
  in every package, under whatever name the import gave it.
* **Event safety** (EVT) — event callbacks must not rely on
  same-timestamp FIFO tie order or capture loop variables late.

Every rule is ``check(program)`` over the one
:class:`~repro.analysis.program.Program` built from the linted files,
and stays only while it guards an invariant nothing else guards (DESIGN
§7 lists the retired ones and what covers their cases).

``python -m repro lint`` runs every registered rule over ``src/repro``
(or explicit paths) and exits non-zero on findings. Individual findings
are suppressed in source with ``# slinglint: disable=<rule-id>`` on the
offending line, or ``# slinglint: disable-file=<rule-id>`` anywhere in
the file; a directive that suppresses nothing is itself a finding
(SUP001).
"""

from repro.analysis.findings import Finding, Severity, format_findings
from repro.analysis.registry import (
    LintContext,
    LintRule,
    all_rules,
    register_rule,
)

# Importing the rule modules registers their rules.
from repro.analysis import determinism as _determinism  # noqa: F401
from repro.analysis import event_safety as _event_safety  # noqa: F401

__all__ = [
    "Finding",
    "LintContext",
    "LintRule",
    "Severity",
    "all_rules",
    "format_findings",
    "register_rule",
]
