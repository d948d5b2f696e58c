"""The run -> report -> ``--check`` contract, once, for all five verbs.

``repro chaos``, ``fleet``, ``telemetry``, ``soak`` and ``perf`` are
declarations handed to :mod:`repro.harness`; this file pins what the
harness promises for each of them (DESIGN.md §10, "Harness contract"):

* a corrupt, missing, wrong-tag or malformed baseline is one line on stderr and
  exit 2, decided before any shard runs;
* ``--check`` composes with every subset flag and compares only the
  verb's exact fields: a run absent from the baseline and a flipped
  exact field are each exactly one failure line and exit 1;
* the deterministic report is equal at ``--jobs`` 1, 2 and 4;
* a run without ``--out`` writes nothing under ``benchmarks/``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Any, Callable, Dict, List

import pytest

from repro import harness
from repro.checkpoint import soak as soak_module
from repro.checkpoint.soak import SOAK
from repro.faults.campaign import CHAOS
from repro.fleet.campaign import FLEET
from repro.parallel.pool import fork_available
from repro.perf.runner import PERF
from repro.telemetry.runner import TELEMETRY


def _drop_run(baseline: Dict[str, Any], entry: Dict[str, Any], label: str) -> None:
    baseline["runs"].remove(entry)


@dataclasses.dataclass(frozen=True)
class Case:
    verb: harness.Verb
    #: Subset flags selecting the two entries named by ``labels`` (one
    #: for soak, whose only subset is ``--quick``).
    subset: List[str]
    labels: List[str]
    #: Removes one entry from a loaded baseline.
    drop: Callable[[Dict[str, Any], Dict[str, Any], str], None] = _drop_run


CASES = {
    "chaos": Case(
        CHAOS,
        ["--scenario", "cmd_drop", "--scenario", "crash", "--seeds", "1", "--no-replay"],
        ["cmd_drop/seed=1", "crash/seed=1"],
    ),
    "fleet": Case(
        FLEET,
        ["--class", "crash", "--pool-sizes", "0", "1", "--seeds", "1"],
        ["crash/pool_size=0/seed=1", "crash/pool_size=1/seed=1"],
    ),
    "telemetry": Case(
        TELEMETRY,
        ["--scenario", "cmd_drop", "--scenario", "crash", "--seeds", "1"],
        ["cmd_drop/seed=1", "crash/seed=1"],
    ),
    "soak": Case(
        SOAK,
        ["--quick"],
        ["quick"],
        drop=lambda baseline, entry, label: baseline["profiles"].pop(label),
    ),
    "perf": Case(
        PERF,
        ["--quick", "engine_cancel_watchdog", "link_delivery"],
        ["quick/engine_cancel_watchdog", "quick/link_delivery"],
        drop=lambda baseline, entry, label: baseline["modes"]["quick"].pop(
            label.split("/")[1]
        ),
    ),
}
SHARDED = [name for name, case in CASES.items() if case.verb.shards is not None]


@pytest.fixture(scope="module", autouse=True)
def one_soak_profile_execution():
    """``run_profile`` is a pure function of its arguments, so the soak
    cases below share one real quick-profile execution (~5 s each)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            soak_module,
            "run_profile",
            functools.lru_cache(maxsize=None)(soak_module.run_profile),
        )
        yield


def _benchmarks_fingerprint() -> Dict[str, str]:
    directory = harness.bench_path("chaos").parent
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def _set(entry: Dict[str, Any], dotted: str, value: Any) -> None:
    *parents, leaf = dotted.split(".")
    for part in parents:
        entry = entry[part]
    entry[leaf] = value


# ----------------------------------------------------------------------
# Hostile baselines: exit 2, one line, nothing executed
# ----------------------------------------------------------------------
def _never(*args, **kwargs):
    raise AssertionError("a shard ran before the baseline was validated")


HOSTILE = {
    "corrupt": lambda name: '{"runs": [',
    "missing": lambda name: None,
    "wrong-tag": lambda name: json.dumps({"benchmark": f"not-{name}", "runs": []}),
    "malformed": lambda name: json.dumps({"benchmark": name, "runs": 7}),
    "fieldless": lambda name: json.dumps(
        {
            "benchmark": name,
            "runs": [{"scenario": "crash", "fault_class": "crash", "pool_size": 0, "seed": 1}],
            "profiles": {"quick": {}},
            "modes": {"quick": {"link_delivery": {}}},
        }
    ),
}


@pytest.mark.parametrize("kind", HOSTILE)
@pytest.mark.parametrize("name", CASES)
def test_hostile_baseline_is_one_line_and_exit_2(name, kind, tmp_path, capsys):
    case = CASES[name]
    path = tmp_path / "baseline.json"
    text = HOSTILE[kind](name)
    if text is not None:
        path.write_text(text)
    inert = dataclasses.replace(
        case.verb,
        worker=_never,
        run=None if case.verb.run is None else _never,
    )
    code = harness.main(inert, [*case.subset, "--check", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert lines[0].startswith(f"repro {name}: cannot load baseline {path}: ")


# ----------------------------------------------------------------------
# --check on a subset: absent key / flipped exact field
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("name", CASES)
def test_absent_key_and_flipped_field_are_one_failure_line_each(
    name, tmp_path, capsys
):
    case = CASES[name]
    field = case.verb.exact_fields[0]

    def crafted(mutations) -> List[str]:
        """Failure lines of a ``--check`` against a mutated committed baseline."""
        baseline = harness.load_baseline(name)
        recorded = case.verb.entries(baseline)
        for mutate in mutations:
            mutate(baseline, recorded)
        path = tmp_path / "crafted.json"
        path.write_text(json.dumps(baseline))
        code = harness.main(
            case.verb, [*case.subset, "--check", "--out", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 1, out
        assert f"{name} check FAILED" in out and "check passed" not in out
        return [line for line in out.splitlines() if line.startswith("  - ")]

    flipped, dropped = case.labels[0], case.labels[-1]

    def flip(baseline, recorded):
        _set(recorded[flipped], field, "0" * 64)

    def drop(baseline, recorded):
        case.drop(baseline, recorded[dropped], dropped)

    # Two entries take both mutations in one run; soak's single entry
    # cannot be flipped and absent at once, so it takes them in turn.
    rounds = [[flip, drop]] if flipped != dropped else [[flip], [drop]]
    failures = [line for mutations in rounds for line in crafted(mutations)]
    assert len(failures) == 2
    assert failures[0].startswith(f"  - {flipped}: {field} ")
    assert failures[1] == f"  - {dropped}: not in baseline (re-record it)"


# ----------------------------------------------------------------------
# Write rule + jobs-invariance + subset composes with --check
# ----------------------------------------------------------------------
def _report_from(stdout: str) -> Dict[str, Any]:
    """The ``--format json`` report at the head of a run's stdout."""
    report, _ = json.JSONDecoder().raw_decode(stdout)
    return report


def _deterministic(case: Case, report: Dict[str, Any]) -> Any:
    """Everything but machine facts: the whole report minus ``execution``
    — for perf, whose entries also carry wall-clock rates, the exact
    fields of each entry."""
    if case.verb is PERF:
        return {
            label: {name: entry[name] for name in PERF.exact_fields}
            for label, entry in PERF.entries(report).items()
        }
    return {key: value for key, value in report.items() if key != "execution"}


@pytest.mark.slow
@pytest.mark.skipif(not fork_available(), reason="no fork start method")
@pytest.mark.parametrize("name", SHARDED)
def test_report_is_jobs_invariant_and_only_out_writes(name, capsys):
    """jobs=1 is a plain run (no ``--check``, no ``--out``): it must leave
    ``benchmarks/`` byte-identical. jobs=2 and 4 re-run the same
    two-shard subset under ``--check`` against the committed baseline."""
    case = CASES[name]
    before = _benchmarks_fingerprint()
    code = harness.main(case.verb, [*case.subset, "--format", "json"])
    serial = _report_from(capsys.readouterr().out)
    assert code == 0
    assert _benchmarks_fingerprint() == before
    assert sorted(case.verb.entries(serial)) == sorted(case.labels)
    for jobs in (2, 4):
        code = harness.main(
            case.verb,
            [*case.subset, "--check", "--jobs", str(jobs), "--format", "json"],
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert f"{name} check passed (2 run(s))" in out
        pooled = _report_from(out)
        assert pooled["execution"]["jobs"] == jobs
        assert _deterministic(case, pooled) == _deterministic(case, serial)


@pytest.mark.slow
def test_soak_without_out_writes_nothing(capsys):
    """Soak has no shard table of its own (its fan-out is the chaos
    campaign's); it shares the write rule and the exit codes."""
    before = _benchmarks_fingerprint()
    assert harness.main(SOAK, ["--quick"]) == 0
    assert "crash-resume MATCHED" in capsys.readouterr().out
    assert _benchmarks_fingerprint() == before


def test_out_is_the_only_place_a_report_lands(tmp_path, capsys):
    out = tmp_path / "nested" / "report.json"
    code = harness.main(
        PERF, ["--quick", "engine_cancel_watchdog", "--out", str(out)]
    )
    assert code == 0
    assert f"wrote {out}" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["benchmark"] == "perf"
    assert list(PERF.entries(report)) == ["quick/engine_cancel_watchdog"]
