"""Tests for the command-line interface."""

import dataclasses
import importlib

import pytest

from repro import harness
from repro.cli import _HARNESS_VERBS, EXPERIMENTS, build_parser, main
from repro.experiments import REGISTRY, fig3_vm_migration, fig8_video, register

#: (command line, what argparse must say about it): a bad CLI argument
#: fails loudly and specifically (ROADMAP north star, correctness).
OUT_OF_RANGE = [
    ("fig12 --duration -1", "argument --duration: must be > 0, got -1"),
    ("fig12 --duration 0", "argument --duration: must be > 0, got 0"),
    ("fig8 --failure-at -0.5", "argument --failure-at: must be >= 0, got -0.5"),
    ("fig3 --runs -2", "argument --runs: must be >= 1, got -2"),
    ("sec52 --runs 0", "argument --runs: must be >= 1, got 0"),
    ("sec52 --jobs -1", "unrecognized arguments: --jobs -1"),
    ("table2 --rates 1 0", "argument --rates: must be > 0, got 0"),
    ("fig3 --runs many", "argument --runs: invalid int value: 'many'"),
]

#: (verb command line, the one line it must answer with): the harness
#: contract (DESIGN §10). A repeated or unknown selector is the harness's
#: ``UsageError``, an out-of-range one argparse's, all before anything runs.
VERB_REJECTS = [
    ("chaos --scenario nonsense --seeds 1",
     "repro chaos: unknown scenario(s): nonsense"),
    ("chaos --scenario crash --scenario crash --seeds 1 --no-replay",
     "repro chaos: run ('crash', 1) selected more than once"),
    ("chaos --scenario crash --seeds 1 1",
     "repro chaos: run ('crash', 1) selected more than once"),
    ("fleet --quick --pool-sizes 1 1",
     "repro fleet: run ('crash', 1, 1) selected more than once"),
    ("chaos --seeds -1",
     "repro chaos: error: argument --seeds: must be >= 0, got -1"),
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

    @pytest.mark.parametrize("name", ["nonsense", "perf", "telemetry", "sec82", "lint"])
    def test_unknown_experiment_is_one_line_and_exit_2(self, capsys, name):
        """``perf`` is not a verb: speed is ``bench/run.py``'s to measure;
        nor is ``telemetry``: every chaos run carries its timeline and
        counters; nor is ``sec82``: ``sec52`` prints §8.2 from its sweep;
        nor is ``lint``: the tree's policy is tier-1's guards
        (``tests/test_tree_policy.py``)."""
        assert main([name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"repro: unknown experiment(s): {name} "
            "(run 'python -m repro list' for options)"
        ]
        assert main(["list"]) == 0
        assert name not in {line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]}

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
        assert errors == [f"repro: error: {complaint}"]

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
                for hook in ("execute", "run", "side_mode")
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

    def test_fig3_defaults_to_the_papers_80_migrations(self, capsys, monkeypatch):
        """``--runs`` unset leaves fig3 at its own default, 40 per transport."""
        results = []
        run = fig3_vm_migration.run

        def recording_run(**params):
            results.append(run(**params))
            return results[-1]

        monkeypatch.setattr(fig3_vm_migration, "run", recording_run)
        assert main(["fig3"]) == 0
        (result,) = results
        assert len(result.tcp_runs) == len(result.rdma_runs) == 40
        assert "overall median 245 ms (paper: 244 ms)" in capsys.readouterr().out

    def test_every_experiment_is_wired(self):
        """Each registry entry references a callable and a description."""
        for name, (runner, description, _) in EXPERIMENTS.items():
            assert callable(runner), name
            assert description, name

class TestRegistry:
    """The CLI is derived from the Experiment registry, not hand-written."""

    def test_cli_table_round_trips_through_registry(self):
        assert list(EXPERIMENTS) == list(REGISTRY)
        for name, (_, description, duration) in EXPERIMENTS.items():
            spec = REGISTRY[name]
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
        for name in REGISTRY:
            assert name in listed
        assert len(listed) == len(set(listed)), listed

    def test_duplicate_registration_rejected(self):
        spec = REGISTRY["fig8"]
        with pytest.raises(ValueError, match="registered twice"):
            register(spec)

    def test_cli_params_map_namespace_to_run_kwargs(self):
        args = build_parser().parse_args(["fig8"])
        from repro.cli import _defaults_for

        _defaults_for("fig8", args)
        kwargs = REGISTRY["fig8"].cli_params(args)
        assert set(kwargs) == {"duration_s", "failure_at_s"}
        run_params = set(
            __import__("inspect").signature(fig8_video.run).parameters
        )
        assert set(kwargs) <= run_params

    def test_every_cli_mapping_names_run_parameters(self):
        """A spec maps CLI arguments only onto parameters its ``run``
        has: a knob removed from ``run`` leaves no stale mapping."""
        import inspect

        from repro.cli import _defaults_for

        for name, spec in REGISTRY.items():
            args = build_parser().parse_args([name])
            _defaults_for(name, args)
            run_params = set(inspect.signature(spec.module.run).parameters)
            assert set(spec.cli_params(args)) <= run_params, name
