"""One run -> report -> ``--check`` harness for the campaign verbs.

``repro chaos``, ``fleet`` and ``soak`` all run a
deterministic workload, print a report and optionally gate it against
a recorded ``benchmarks/BENCH_<verb>.json``. Each verb is a :class:`Verb`
declaration — its extra flags, its shard table and how it executes one
(chaos and fleet are both a :func:`branch_sweep`: warm one base per
key, branch every run from it), its one-line run formatter, its report
dict and the exact fields ``--check`` compares — and :func:`main` owns
everything else. The contract (DESIGN.md §10):

* **exact fields vs machine facts** — ``--check`` compares a verb's
  ``exact_fields`` for equality and nothing else; wall seconds, rates
  and the ``execution`` block are recorded and never compared;
* **baseline first** — a missing, unreadable, non-JSON, wrong-tag or
  malformed baseline is one ``repro <verb>: cannot load baseline ...``
  line and exit 2, decided before the first shard runs;
* **write rule** — a report is written only to an explicit ``--out``
  (with ``--check``, ``--out`` names the baseline to compare against);
* **exit codes** — 0 pass, 1 gate or invariant failure (or a worker
  process that died: one ``repro <verb>: worker process died; ...``
  paragraph on stderr), 2 usage or input error.

Only the runs actually executed are compared, so ``--check`` composes
with every subset flag; a run absent from the baseline is a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.parallel.pool import ShardCrash, available_parallelism, run_shards

#: A shard table: ``(key, payload)`` pairs in canonical order.
Shards = Sequence[Tuple[Any, Any]]

#: (shards, jobs, progress) -> ({key: value}, execution).
Execute = Callable[
    [Shards, int, Optional[Callable[[Any], None]]],
    Tuple[Dict[Any, Any], Dict[str, Any]],
]


class UsageError(Exception):
    """A verb rejected its arguments; reported in one line, exit 2."""


class BaselineError(Exception):
    """A baseline could not be loaded; the message says which and why."""


@dataclass(frozen=True)
class Verb:
    """What one campaign verb declares; :func:`main` does the rest."""

    name: str
    description: str
    #: Fields of an entry ``--check`` compares exactly (dotted paths
    #: reach into nested dicts). Everything else is a machine fact.
    exact_fields: Tuple[str, ...]
    #: Adds the verb's own flags to the parser.
    arguments: Callable[[argparse.ArgumentParser], None]
    #: report dict (fresh or recorded) -> {label: entry}.
    entries: Callable[[Dict[str, Any]], Dict[str, Dict[str, Any]]]
    #: One-paragraph text summary of a report (the harness appends the
    #: ``[jobs=..., speedup ...]`` tail).
    summary: Callable[[Dict[str, Any]], str]
    #: Sharded verbs: parsed args -> shard table (may raise UsageError);
    #: how to execute it on ``jobs`` workers, streaming each value to
    #: ``progress`` in canonical order; a one-line formatter for those
    #: values; and ({key: value}, execution) -> report dict. Only these
    #: verbs take ``--jobs``.
    shards: Optional[Callable[[argparse.Namespace], Shards]] = None
    execute: Optional[Execute] = None
    format_run: Optional[Callable[[Any], str]] = None
    report: Optional[Callable[[Dict[Any, Any], Dict[str, Any]], Dict[str, Any]]] = None
    #: A verb that does not fan out (soak) runs whole instead:
    #: args -> report dict.
    run: Optional[Callable[[argparse.Namespace], Dict[str, Any]]] = None
    #: Invariant verdict of a report (exit 1 when false, gate or not).
    passed: Callable[[Dict[str, Any]], bool] = lambda report: report["passed"]
    #: ``--list`` table: name -> description.
    catalog: Optional[Callable[[], Mapping[str, str]]] = None
    #: Modes that are not a campaign (``soak --resume``): args -> exit
    #: code, or None to go on.
    side_mode: Optional[Callable[[argparse.Namespace], Optional[int]]] = None


def bench_path(name: str) -> Path:
    """Repo-local baseline location: ``benchmarks/BENCH_<name>.json``."""
    return Path(__file__).resolve().parents[2] / "benchmarks" / f"BENCH_{name}.json"


def load_baseline(name: str, path: Path) -> Dict[str, Any]:
    """The ``name`` report recorded at ``path``, or :class:`BaselineError`."""
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise BaselineError(f"cannot load baseline {path}: {exc.strerror or exc}")
    except ValueError as exc:
        raise BaselineError(f"cannot load baseline {path}: not JSON ({exc})")
    if not isinstance(data, dict) or data.get("benchmark") != name:
        raise BaselineError(f"cannot load baseline {path}: not a {name!r} report")
    return data


def at_least(kind: Callable, low: float, strict: bool = False) -> Callable:
    """argparse ``type=``: a ``kind`` no lower than ``low`` (``strict``:
    above it). A violation is argparse's one ``error:`` line and exit 2,
    not a traceback from wherever the value is first used."""

    def parse(text: str):
        value = kind(text)
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}"
            )
        return value

    # What argparse names in "invalid <type> value" for a non-number.
    parse.__name__ = kind.__name__
    return parse


def select(catalog: Mapping[str, Any], names: Sequence[str], what: str) -> List[Any]:
    """Catalog entries for ``names``; unknown names are a usage error."""
    unknown = [name for name in names if name not in catalog]
    if unknown:
        raise UsageError(f"unknown {what}(s): {', '.join(unknown)}")
    return [catalog[name] for name in names]


def runs_by(*key_fields: str) -> Callable[[Dict[str, Any]], Dict[str, Dict[str, Any]]]:
    """``entries`` for reports whose ``runs`` list is keyed by fields:
    ``runs_by("scenario", "seed")`` labels a run ``crash/seed=1``."""
    first, rest = key_fields[0], key_fields[1:]

    def entries(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        return {
            "/".join([str(run[first])] + [f"{name}={run[name]}" for name in rest]): run
            for run in report["runs"]
        }

    return entries


def _branch(task: Tuple[Callable[[Any, Any], Any], Any, Any]) -> Any:
    run_branch, base, payload = task
    return run_branch(base, payload)


def branch_sweep(
    shards: Shards,
    jobs: int = 1,
    progress: Optional[Callable[[Any], None]] = None,
    *,
    base_key: Callable[[Any], Any],
    build_base: Callable[[Any], Any],
    run_branch: Callable[[Any, Any], Any],
) -> Tuple[Dict[Any, Any], Dict[str, Any]]:
    """Build each distinct ``base_key(payload)`` once as ``build_base``,
    then run ``run_branch(base, payload)`` per shard: two ``run_shards``
    passes on ``jobs`` workers (so both functions are module-level).
    Returns ({key: value} in canonical order, the branches' accounting
    with the bases' under ``"bases"``); ``progress`` streams each value
    in that order at any ``jobs``."""
    base_keys = list(dict.fromkeys(base_key(payload) for _, payload in shards))
    building = run_shards(build_base, [(key, key) for key in base_keys], jobs=jobs)
    bases = dict(zip(building.keys, building.values()))
    outcome = run_shards(
        _branch,
        [
            (key, (run_branch, bases[base_key(payload)], payload))
            for key, payload in shards
        ],
        jobs=jobs,
        progress=None if progress is None else (lambda key, value: progress(value)),
    )
    execution, built = outcome.accounting(), building.accounting()
    execution["bases"] = {
        name: built[name] for name in ("shards", "wall_seconds", "max_peak_rss_kb")
    }
    return dict(zip(outcome.keys, outcome.values())), execution


def execution_tail(execution: Optional[Dict[str, Any]]) -> str:
    """The one ``[jobs=N, speedup X]`` tail of a text summary."""
    if execution is None:
        return ""
    speedup = execution.get("parallel_speedup")
    return f"  [jobs={execution['effective_jobs']}" + (
        f", speedup {speedup:.2f}x]" if speedup else "]"
    )


def _lookup(entry: Dict[str, Any], path: str) -> Any:
    value: Any = entry
    for part in path.split("."):
        value = value[part]
    return value


def _show(value: Any) -> Optional[str]:
    """Short form of a scalar for a failure line; None for containers."""
    if isinstance(value, str):
        return value if len(value) <= 16 else value[:12] + "..."
    if value is None or isinstance(value, (bool, int, float)):
        return repr(value)
    return None


def check_entries(
    fresh: Dict[str, Dict[str, Any]],
    recorded: Dict[str, Dict[str, Any]],
    exact_fields: Sequence[str],
) -> List[str]:
    """One failure line per fresh entry missing from ``recorded`` and per
    exact field that differs."""
    failures: List[str] = []
    for label, entry in fresh.items():
        baseline = recorded.get(label)
        if baseline is None:
            failures.append(f"{label}: not in baseline (re-record it)")
            continue
        for name in exact_fields:
            new, old = _lookup(entry, name), _lookup(baseline, name)
            if new != old:
                shown = _show(new), _show(old)
                failures.append(
                    f"{label}: {name} differs from baseline"
                    if None in shown
                    else f"{label}: {name} {shown[0]} != recorded {shown[1]}"
                )
    return failures


def _parser(verb: Verb) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"repro {verb.name}", description=verb.description
    )
    group = parser.add_argument_group("harness options")
    group.add_argument(
        "--out", "--bench", dest="out", type=Path, default=None, metavar="FILE",
        help="write the JSON report to this file; with --check, the "
        "baseline to compare against (default: benchmarks/"
        f"BENCH_{verb.name}.json)",
    )
    group.add_argument(
        "--check", action="store_true",
        help="compare the exact fields against the recorded baseline",
    )
    if verb.execute is not None:
        group.add_argument(
            "--jobs", type=at_least(int, 0), default=1, metavar="N",
            help="worker processes for independent shards; 0 = one per CPU "
            "core. Results are bit-identical at any value (default: 1)",
        )
    group.add_argument(
        "--quick", action="store_true",
        help="reduced-scale run (for smokes and CI gates)",
    )
    if verb.format_run is not None:
        group.add_argument(
            "--format", choices=("text", "json"), default="text",
        )
    if verb.catalog is not None:
        group.add_argument("--list", action="store_true", help="list the catalog and exit")
    verb.arguments(parser)
    return parser


def main(verb: Verb, argv: Optional[Sequence[str]] = None) -> int:
    """Parse, load the baseline, run, report, gate, write; the exit code."""
    prog = f"repro {verb.name}"
    try:
        args = _parser(verb).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if verb.catalog is not None and args.list:
        for name, description in verb.catalog().items():
            print(f"{name:<32} {description}")
        return 0
    try:
        if verb.side_mode is not None:
            code = verb.side_mode(args)
            if code is not None:
                return code
        shards = verb.shards(args) if verb.shards is not None else ()
        seen = set()
        for key, _ in shards:
            if key in seen:
                raise UsageError(f"run {key!r} selected more than once")
            seen.add(key)
        recorded = None
        if args.check:
            path = args.out or bench_path(verb.name)
            try:
                recorded = verb.entries(load_baseline(verb.name, path))
                for entry in recorded.values():
                    for name in verb.exact_fields:
                        _lookup(entry, name)
            except (KeyError, TypeError, AttributeError) as exc:
                raise BaselineError(
                    f"cannot load baseline {path}: malformed report ({exc!r})"
                )
    except (UsageError, BaselineError) as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return 2

    style = getattr(args, "format", "text")
    if verb.run is not None:
        report = verb.run(args)
    else:
        stream = None
        if style == "text":
            stream = lambda value: print(verb.format_run(value), flush=True)  # noqa: E731
        try:
            results = verb.execute(shards, args.jobs or available_parallelism(), stream)
        except ShardCrash as exc:
            print(f"{prog}: {exc}", file=sys.stderr)
            return 1
        report = verb.report(*results)
    if style == "json":
        print(json.dumps(report, indent=2))
    else:
        print("\n" + verb.summary(report) + execution_tail(report.get("execution")))

    failures: List[str] = []
    if recorded is not None:
        fresh = verb.entries(report)
        failures = check_entries(fresh, recorded, verb.exact_fields)
        if failures:
            print(f"\n{verb.name} check FAILED ({len(failures)} mismatch(es)):")
            for failure in failures:
                print(f"  - {failure}")
        else:
            print(f"\n{verb.name} check passed ({len(fresh)} run(s))")
    elif args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        if style == "text":
            print(f"wrote {args.out}")
    return 1 if failures or not verb.passed(report) else 0
