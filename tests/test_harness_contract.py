"""The run -> report -> ``--check`` contract, once, for all three verbs.

``repro chaos``, ``fleet`` and ``soak`` are declarations
handed to :mod:`repro.harness`; this file pins what the
harness promises for each of them (DESIGN.md §10, "Harness contract"):

* a corrupt, missing, wrong-tag or malformed baseline is one line on stderr and
  exit 2, decided before any shard runs;
* ``--check`` compares each verb's exact fields and no machine fact, over
  every committed entry;
* ``--check`` composes with every subset flag and compares only the
  verb's exact fields: a run absent from the baseline and a flipped
  exact field are each exactly one failure line and exit 1;
* the deterministic report is equal at ``--jobs`` 1, 2 and 4;
* a run without ``--out`` writes nothing under ``benchmarks/``;
* a worker process that dies is one paragraph on stderr and exit 1.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import os
from typing import Any, Callable, Dict, List

import pytest

from repro import harness
from repro.checkpoint.soak import SOAK
from repro.faults.campaign import CHAOS
from repro.fleet.campaign import FLEET
from repro.parallel.pool import fork_available


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
    "soak": Case(
        SOAK,
        ["--quick"],
        ["quick"],
        drop=lambda baseline, entry, label: baseline["profiles"].pop(label),
    ),
}
SHARDED = [name for name, case in CASES.items() if case.verb.execute is not None]


#: The soak cases share the session's one quick-profile execution.
pytestmark = pytest.mark.usefixtures("one_soak_profile_execution")


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
        execute=None if case.verb.execute is None else _never,
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
# Exact fields vs machine facts, over every committed entry
# ----------------------------------------------------------------------
def _flipped(value: Any) -> Any:
    """A value of the same kind that differs from ``value``."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return "1" * 64 if value == "0" * 64 else "0" * 64
    if isinstance(value, dict):
        return {**value, "flipped": True}
    return [*value, "flipped"]


def _perturb_machine_facts(entry: Dict[str, Any], exact: List[str], prefix: str = "") -> None:
    """Flip every leaf of ``entry`` that no exact field is, or lies under."""
    for key, value in entry.items():
        path = prefix + key
        if any(field == path or field.startswith(path + ".") for field in exact):
            if isinstance(value, dict) and path not in exact:
                _perturb_machine_facts(value, exact, path + ".")
            continue
        entry[key] = _flipped(value)


@pytest.mark.parametrize("name", CASES)
def test_machine_facts_are_never_compared(name):
    verb = CASES[name].verb
    recorded = verb.entries(harness.load_baseline(name, harness.bench_path(name)))
    fresh = copy.deepcopy(recorded)
    for entry in fresh.values():
        _perturb_machine_facts(entry, list(verb.exact_fields))
    assert fresh != recorded
    assert harness.check_entries(fresh, recorded, verb.exact_fields) == []


@pytest.mark.parametrize("name", CASES)
def test_each_flipped_exact_field_is_one_failure_line_per_entry(name):
    verb = CASES[name].verb
    recorded = verb.entries(harness.load_baseline(name, harness.bench_path(name)))
    for field in verb.exact_fields:
        fresh = copy.deepcopy(recorded)
        for entry in fresh.values():
            _set(entry, field, _flipped(harness._lookup(entry, field)))
        failures = harness.check_entries(fresh, recorded, verb.exact_fields)
        assert len(failures) == len(recorded)
        for label, failure in zip(recorded, failures):
            container = isinstance(harness._lookup(recorded[label], field), (dict, list))
            assert failure.startswith(f"{label}: {field} ")
            assert failure.endswith("differs from baseline") == container


def test_failure_lines_shorten_scalars_and_name_containers():
    fresh = {
        "a": {"digest": "f" * 64, "timeline": {"x": 1}, "nested": {"count": 1}},
        "b": {"digest": "e" * 64, "timeline": {}, "nested": {"count": 2}},
    }
    recorded = {"a": {"digest": "e" * 64, "timeline": {"x": 2}, "nested": {"count": 2}}}
    assert harness.check_entries(
        fresh, recorded, ("digest", "timeline", "nested.count")
    ) == [
        "a: digest ffffffffffff... != recorded eeeeeeeeeeee...",
        "a: timeline differs from baseline",
        "a: nested.count 1 != recorded 2",
        "b: not in baseline (re-record it)",
    ]


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
        baseline = harness.load_baseline(name, harness.bench_path(name))
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


def _deterministic(report: Dict[str, Any]) -> Any:
    """Everything but machine facts: the whole report minus ``execution``."""
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
        assert _deterministic(pooled) == _deterministic(serial)


@pytest.mark.slow
def test_soak_without_out_writes_nothing(capsys):
    """Soak has no shard table (one soak does not fan out, so it takes no
    ``--jobs``); it shares the write rule and the exit codes."""
    before = _benchmarks_fingerprint()
    assert harness.main(SOAK, ["--quick"]) == 0
    assert "crash-resume MATCHED" in capsys.readouterr().out
    assert _benchmarks_fingerprint() == before
    assert harness.main(SOAK, ["--quick", "--jobs", "2"]) == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_out_is_the_only_place_a_report_lands(tmp_path, capsys):
    out = tmp_path / "nested" / "report.json"
    before = _benchmarks_fingerprint()
    code = harness.main(
        CHAOS, ["--scenario", "cmd_drop", "--seeds", "1", "--no-replay", "--out", str(out)]
    )
    assert code == 0
    assert f"wrote {out}" in capsys.readouterr().out
    assert _benchmarks_fingerprint() == before
    report = json.loads(out.read_text())
    assert report["benchmark"] == "chaos"
    assert list(CHAOS.entries(report)) == ["cmd_drop/seed=1"]


# ----------------------------------------------------------------------
# A worker that dies: one paragraph, exit 1
# ----------------------------------------------------------------------
def _dies_on_two(base, payload):
    if payload == 2:
        # fd 2 directly: what the pool's stderr capture redirects.
        os.write(2, b"fatal: shard two always dies\n")
        os._exit(13)
    return payload


DYING = harness.Verb(
    name="dying",
    description="A verb whose worker process dies on one shard.",
    exact_fields=(),
    arguments=lambda parser: None,
    entries=harness.runs_by("n"),
    summary=lambda report: "",
    shards=lambda args: [(n, n) for n in range(4)],
    execute=functools.partial(
        harness.branch_sweep, base_key=abs, build_base=abs, run_branch=_dies_on_two
    ),
    format_run=str,
    report=lambda results, execution: {
        "runs": [{"n": n} for n in results], "passed": True
    },
)


@pytest.mark.skipif(not fork_available(), reason="no fork start method")
def test_a_dead_worker_is_one_paragraph_and_exit_1(capsys):
    code = harness.main(DYING, ["--jobs", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    first, *tail = err.splitlines()
    assert first.startswith(
        "repro dying: worker process died; unfinished shard(s): "
    )
    assert "2" in first.split("unfinished shard(s): ")[1]
    assert "fatal: shard two always dies" in tail
