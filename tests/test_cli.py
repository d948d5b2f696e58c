"""Tests for the command-line interface."""

import dataclasses
import importlib

import pytest

from repro import harness
from repro.cli import _HARNESS_VERBS, EXPERIMENTS, build_parser, main
from repro.experiments import (
    REGISTRY,
    ExperimentSpec,
    get,
    register,
    registered_names,
)

#: (command line, what argparse must say about it): ROADMAP item 5c.
OUT_OF_RANGE = [
    ("fig12 --duration -1", "--duration: must be > 0, got -1"),
    ("fig12 --duration 0", "--duration: must be > 0, got 0"),
    ("fig8 --failure-at -0.5", "--failure-at: must be >= 0, got -0.5"),
    ("fig3 --runs -2", "--runs: must be >= 1, got -2"),
    ("sec52 --runs 0", "--runs: must be >= 1, got 0"),
    ("sec52 --jobs -1", "--jobs: must be >= 0, got -1"),
    ("table2 --rates 1 0", "--rates: must be > 0, got 0"),
    ("fig3 --runs many", "--runs: invalid int value: 'many'"),
]

#: (verb command line, the one line it must answer with): ROADMAP item
#: 7c. A repeated selector is the harness's ``UsageError``, an
#: out-of-range one argparse's, both before anything runs.
VERB_REJECTS = [
    ("chaos --scenario crash --scenario crash --seeds 1 --no-replay",
     "repro chaos: run ('crash', 1) selected more than once"),
    ("chaos --scenario crash --seeds 1 1",
     "repro chaos: run ('crash', 1) selected more than once"),
    ("telemetry --seeds 1 1",
     "repro telemetry: run ('fh_loss', 1) selected more than once"),
    ("fleet --quick --pool-sizes 1 1",
     "repro fleet: run ('crash', 1, 1) selected more than once"),
    ("chaos --seeds -1",
     "repro chaos: error: argument --seeds: must be >= 0, got -1"),
    ("telemetry --seeds -1",
     "repro telemetry: error: argument --seeds: must be >= 0, got -1"),
    ("fleet --quick --seeds -1",
     "repro fleet: error: argument --seeds: must be >= 0, got -1"),
    ("fleet --quick --pool-sizes -1",
     "repro fleet: error: argument --pool-sizes: must be >= 0, got -1"),
    ("soak --quick --seed -1",
     "repro soak: error: argument --seed: must be >= 0, got -1"),
    ("soak --quick --horizon -1",
     "repro soak: error: argument --horizon: must be >= 0.5, got -1"),
    ("soak --quick --horizon 0",
     "repro soak: error: argument --horizon: must be >= 0.5, got 0"),
    # Shorter than one checkpoint interval: nothing to resume from.
    ("soak --quick --horizon 0.2",
     "repro soak: error: argument --horizon: must be >= 0.5, got 0.2"),
]


def _never(*args, **kwargs):
    raise AssertionError("a run started although its arguments were refused")


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["nonsense"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_defaults_parse(self):
        args = build_parser().parse_args(["fig8"])
        assert args.experiment == "fig8"
        assert args.rates == [1.0, 10.0, 20.0, 50.0]

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["table2", "--duration", "5", "--rates", "1", "20", "--quick"]
        )
        assert args.duration == 5.0
        assert args.rates == [1.0, 20.0]
        assert args.quick

    @pytest.mark.parametrize(
        "argv, complaint", OUT_OF_RANGE, ids=[argv for argv, _ in OUT_OF_RANGE]
    )
    def test_out_of_range_value_is_one_error_line_and_exit_2(
        self, capsys, argv, complaint
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv.split())
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines()
            if not line.startswith(("usage:", " "))
        ]
        assert errors == [f"repro: error: argument {complaint}"]

    @pytest.mark.parametrize(
        "argv, complaint", VERB_REJECTS, ids=[argv for argv, _ in VERB_REJECTS]
    )
    def test_verb_refuses_repeated_or_out_of_range_selector_before_running(
        self, capsys, monkeypatch, argv, complaint
    ):
        verb, *flags = argv.split()
        module = importlib.import_module(_HARNESS_VERBS[verb][0])
        (attribute,) = [
            name
            for name, value in vars(module).items()
            if isinstance(value, harness.Verb) and value.name == verb
        ]
        declared = getattr(module, attribute)
        inert = dataclasses.replace(
            declared,
            **{
                hook: _never
                for hook in ("worker", "run", "side_mode")
                if getattr(declared, hook) is not None
            },
        )
        monkeypatch.setattr(module, attribute, inert)
        assert main([verb, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines()
            if not line.startswith(("usage:", " "))
        ]
        assert errors == [complaint]


class TestExecution:
    def test_fig3_runs_end_to_end(self, capsys):
        assert main(["fig3", "--runs", "6"]) == 0
        out = capsys.readouterr().out
        assert "VM pause time" in out
        assert "crashed in 100%" in out

    def test_fig12_quick_runs(self, capsys):
        assert main(["fig12", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "one-way latency added by Orion" in out
        assert "3.4 Gbps" in out

    def test_jobs_zero_means_one_per_core_as_for_the_harness_verbs(self, capsys):
        assert main(["sec52", "--jobs", "0", "--runs", "1"]) == 0
        assert "over 1 kills" in capsys.readouterr().out

    def test_every_experiment_is_wired(self):
        """Each registry entry references a callable and a description."""
        for name, (runner, description, _) in EXPERIMENTS.items():
            assert callable(runner), name
            assert description, name

class TestRegistry:
    """The CLI is derived from the Experiment registry, not hand-written."""

    def test_cli_table_round_trips_through_registry(self):
        assert list(EXPERIMENTS) == registered_names()
        for name, (_, description, duration) in EXPERIMENTS.items():
            spec = get(name)
            assert spec.name == name
            assert spec.description == description
            assert spec.default_duration_s == duration

    def test_list_output_matches_registered_names(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        listed = [
            line.split()[0]
            for line in out.splitlines()
            if line.startswith("  ") and line.split()
        ]
        for name in registered_names():
            assert name in listed
        assert len(listed) == len(set(listed)), listed

    def test_specs_satisfy_the_experiment_protocol(self):
        from repro.experiments import Experiment

        for spec in REGISTRY.values():
            assert isinstance(spec, Experiment), spec.name
            assert callable(spec.module.run), spec.name
            assert callable(spec.module.summarize), spec.name

    def test_default_params_reflect_run_signature(self):
        params = get("fig8").default_params
        assert "duration_s" in params
        assert params["duration_s"] == get("fig8").default_duration_s

    def test_duplicate_registration_rejected(self):
        spec = get("fig8")
        with pytest.raises(ValueError, match="registered twice"):
            register(spec)

    def test_cli_params_map_namespace_to_run_kwargs(self):
        args = build_parser().parse_args(["fig8"])
        from repro.cli import _defaults_for

        _defaults_for("fig8", args)
        kwargs = get("fig8").cli_params(args)
        assert set(kwargs) == {"duration_s", "failure_at_s"}
        run_params = set(
            __import__("inspect").signature(get("fig8").module.run).parameters
        )
        assert set(kwargs) <= run_params
