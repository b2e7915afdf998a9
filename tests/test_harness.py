import itertools
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from submodknap import AstConfig, harness, load_features
from submodknap.harness import (
    CSV_HEADER,
    DEFAULT_BUDGET_FRACTIONS,
    ExperimentRecord,
    ExperimentSpec,
    GenerateSource,
    adaptivity_bench,
    build_objective,
    main,
    parse_config_file,
    ratio_verification,
    read_csv,
    run_experiment,
    write_csv,
    write_svg_plot,
)


def tick_clock():
    """Deterministic stand-in for perf_counter: one millisecond per call."""
    counter = itertools.count()
    return lambda: next(counter) * 1e-3


def small_spec(algorithm="ast", **kwargs):
    defaults = dict(
        algorithm=algorithm,
        objective="cut",
        source=GenerateSource(n=25, p=0.4, seed=11),
        budget_fractions=(0.1, 0.2),
        trials=3,
        config=AstConfig(seed=5),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestRunExperiment:
    def test_record_count_is_fractions_times_trials(self):
        records = run_experiment(small_spec(), clock=tick_clock())
        assert len(records) == 6

    def test_identical_specs_identical_csv_bytes(self, tmp_path):
        first = run_experiment(small_spec(), clock=tick_clock())
        second = run_experiment(small_spec(), clock=tick_clock())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(first, a)
        write_csv(second, b)
        assert a.read_bytes() == b.read_bytes()

    def test_all_algorithms_produce_records(self):
        for algorithm in ("ast", "density_greedy", "random_feasible"):
            records = run_experiment(small_spec(algorithm=algorithm), clock=tick_clock())
            assert all(r.algorithm == algorithm for r in records)
            assert all(np.isfinite(r.f_value) for r in records)

    def test_baselines_report_no_estimator_rounds(self):
        records = run_experiment(
            small_spec(algorithm="density_greedy"), clock=tick_clock()
        )
        assert all(r.adaptive_rounds_estimator == 0 for r in records)
        records = run_experiment(
            small_spec(algorithm="random_feasible"), clock=tick_clock()
        )
        assert all(r.total_queries == 0 for r in records)

    def test_budget_is_fraction_of_total_cost(self):
        records = run_experiment(small_spec(trials=1), clock=tick_clock())
        by_frac = {r.budget_fraction: r.B for r in records}
        assert by_frac[0.2] == pytest.approx(2 * by_frac[0.1])

    def test_round_columns_sum_to_oracle_totals(self):
        # replay one solver cell with the same derived seed and compare the
        # record's round split against the oracle's own ledger
        from submodknap import AstConfig as Config, CountingOracle, KnapsackInstance, ast
        from submodknap.harness import _trial_seed, build_objective

        spec = small_spec(budget_fractions=(0.2,), trials=1)
        (record,) = run_experiment(spec, clock=tick_clock())
        objective, costs = build_objective(spec)
        instance = KnapsackInstance(costs, 0.2 * float(np.sort(costs).sum()))
        oracle = CountingOracle(objective)
        ast(oracle, instance, Config(seed=_trial_seed(spec.config.seed, 0)))
        assert (
            record.adaptive_rounds_ast + record.adaptive_rounds_estimator
            == oracle.ledger.adaptive_rounds
        )
        assert record.total_queries == oracle.ledger.total_queries

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(algorithm="simplex")
        with pytest.raises(ValueError):
            small_spec(objective="entropy")
        with pytest.raises(ValueError):
            small_spec(budget_fractions=(0.0,))
        with pytest.raises(ValueError):
            small_spec(trials=0)

    def test_generated_source_validation(self):
        for n, p, seed, message in (
            (0, 0.2, 0, "at least one element"),
            (5, 0.2, -1, "seed must be non-negative"),
        ):
            with pytest.raises(ValueError, match=message):
                GenerateSource(n, p, seed)
        for objective in ("cut", "revenue"):
            with pytest.raises(ValueError, match="at least two nodes"):
                small_spec(objective=objective, source=GenerateSource(1, 0.2, 0))
            for p in (-0.1, 1.5, float("nan")):
                with pytest.raises(ValueError, match="edge probability"):
                    small_spec(objective=objective, source=GenerateSource(5, p, 0))
        # image_summ draws features, not edges: one element and any p will do
        small_spec(objective="image_summ", source=GenerateSource(1, 1.5, 0))
        with pytest.raises(ValueError, match="seed must be non-negative"):
            AstConfig(seed=-1)


class TestCsv:
    def test_round_trip_identity(self, tmp_path):
        records = run_experiment(small_spec(), clock=tick_clock())
        path = tmp_path / "records.csv"
        write_csv(records, path)
        assert read_csv(path) == records

    def test_header_exact(self, tmp_path):
        records = run_experiment(small_spec(trials=1), clock=tick_clock())
        path = tmp_path / "records.csv"
        write_csv(records, path)
        assert path.read_text().splitlines()[0] == CSV_HEADER

    def test_single_record(self, tmp_path):
        record = ExperimentRecord(
            "ast", "cut", 10, 0.5, 2.5, 0.1, 0.12, 0, 0, 1.25, 10, 5, 2, 3.5
        )
        path = tmp_path / "one.csv"
        write_csv([record], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert read_csv(path) == [record]

    def test_exact_bytes(self, tmp_path):
        # floats are written with repr, everything else with str
        record = ExperimentRecord(
            "ast", "cut", 10, 0.1 + 0.2, 2.5, 0.1, 0.12, 3, 1, 1 / 3, 10, 5, 2, 3.5
        )
        path = tmp_path / "one.csv"
        write_csv([record], path)
        assert path.read_bytes() == (
            b"algorithm,objective,n,budget_fraction,B,epsilon,delta,seed,trial,"
            b"f_value,total_queries,adaptive_rounds_ast,adaptive_rounds_estimator,wall_ms\n"
            b"ast,cut,10,0.30000000000000004,2.5,0.1,0.12,3,1,"
            b"0.3333333333333333,10,5,2,3.5\n"
        )

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "none.csv")


class TestBuildObjective:
    def test_generated_image_summ_matches_loaded_features(self, tmp_path):
        # the harness draws U[0,1)^64 features from the source seed; written
        # with repr floats and loaded back they give the same matrix, bit for bit
        source = GenerateSource(n=40, p=0.0, seed=3)
        objective, _ = build_objective(small_spec(objective="image_summ", source=source))
        feats = np.random.default_rng(source.seed).random((source.n, 64))
        path = tmp_path / "feats.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in feats.tolist()))
        loaded = load_features(path)
        assert np.array_equal(objective._sim, loaded.sim)


class TestSvg:
    def test_well_formed_xml_with_lines(self, tmp_path):
        records = run_experiment(small_spec(), clock=tick_clock())
        path = tmp_path / "plot.svg"
        write_svg_plot(records, path, y_axis="value")
        root = ET.parse(path).getroot()
        tags = [child.tag.split("}")[-1] for child in root.iter()]
        assert "polyline" in tags and "circle" in tags

    def test_single_fraction_renders_points_only(self, tmp_path):
        records = run_experiment(
            small_spec(budget_fractions=(0.2,), trials=2), clock=tick_clock()
        )
        path = tmp_path / "points.svg"
        write_svg_plot(records, path, y_axis="rounds")
        root = ET.parse(path).getroot()
        tags = [child.tag.split("}")[-1] for child in root.iter()]
        assert "circle" in tags and "polyline" not in tags

    def test_bad_axis_rejected(self, tmp_path):
        records = run_experiment(small_spec(trials=1), clock=tick_clock())
        with pytest.raises(ValueError):
            write_svg_plot(records, tmp_path / "x.svg", y_axis="cost")


class TestConfigFile:
    def test_parse_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epsilon = 0.11\n# comment\ngen-n = 40\ntrials = 2\n")
        values = parse_config_file(path)
        assert values == {"epsilon": "0.11", "gen_n": "40", "trials": "2"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epsilon 0.11\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_file(path)

    def test_cli_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gen-n = 30\ntrials = 2\nseed = 9\n")
        out_csv = tmp_path / "out.csv"
        code = main(
            [
                "run",
                "--algorithm",
                "random_feasible",
                "--config",
                str(cfg),
                "--trials",
                "1",
                "--budget-fracs",
                "0.5",
                "--out-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        records = read_csv(out_csv)
        assert len(records) == 1  # CLI trials=1 beat the file's 2
        assert records[0].n == 30  # file value applied
        assert records[0].seed == 9

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp = 9\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--algorithm", "ast", "--config", str(cfg)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--config" in err and "unknown keys: warp" in err

    def test_unreadable_or_malformed_file_is_a_usage_error(self, tmp_path, capsys):
        malformed = tmp_path / "malformed.cfg"
        malformed.write_text("trials = 2\nepsilon 0.11\n")
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"\xff\xfe = 1\n")
        for path, reason in [
            (tmp_path / "none.cfg", "No such file or directory"),
            (tmp_path, "Is a directory"),
            (binary, "'utf-8' codec can't decode"),
            (malformed, "line 2: expected 'key = value'"),
        ]:
            for command in ("run", "sweep"):
                with pytest.raises(SystemExit) as exit_info:
                    main([command, "--config", str(path)])
                assert exit_info.value.code == 2
                err = capsys.readouterr().err
                assert f"argument --config: {path}: {reason}" in err

    def test_badly_typed_value_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        # a value outside a flag's choices is checked like a bad type
        for line, flag in [
            ("trials = two", "--trials"),
            ("svg_y = bogus", "--svg-y"),
            ("objective = nope", "--objective"),
        ]:
            cfg.write_text(line + "\n")
            with pytest.raises(SystemExit) as exit_info:
                main(["run", "--config", str(cfg)])
            assert exit_info.value.code == 2
            assert flag in capsys.readouterr().err


def readme_flags():
    """Subcommand -> the flags README's "Flags, with their defaults" list
    names for it: each bullet names its subcommands before its first colon
    and their flags after it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    bullets = readme.split("Flags, with their defaults:\n\n", 1)[1].split("\n\n", 1)[0]
    flags = {}
    for bullet in bullets.split("\n- "):
        head, _, body = bullet.partition(":")
        for command in re.findall(r"`([a-z-]+)`", head):
            flags.setdefault(command, set()).update(re.findall(r"`(--[a-z-]+)`", body))
    return flags


def captured_specs(monkeypatch, argv):
    """Specs the CLI would run for ``argv``, without running them."""
    specs = []

    def fake_run(spec, built):
        specs.append(spec)
        return []

    monkeypatch.setattr(harness, "run_built", fake_run)
    assert main(argv) == 0
    return specs


class TestCli:
    def test_defaults_come_from_ast_config(self, monkeypatch):
        (spec,) = captured_specs(monkeypatch, ["run"])
        assert spec.config == AstConfig()
        assert spec.algorithm == "ast" and spec.objective == "cut"
        assert spec.source == GenerateSource(200, 0.2, AstConfig().seed)
        assert spec.budget_fractions == DEFAULT_BUDGET_FRACTIONS
        assert spec.trials == 1

    def test_sweep_defaults_to_every_algorithm(self, monkeypatch):
        specs = captured_specs(monkeypatch, ["sweep", "--epsilon", "0.05"])
        assert [s.algorithm for s in specs] == ["ast", "density_greedy", "random_feasible"]
        assert all(s.config == AstConfig(epsilon=0.05) for s in specs)

    def test_sweep_builds_the_objective_once(self, monkeypatch, capsys):
        builds = []

        def counted(spec):
            builds.append(spec)
            return build_objective(spec)

        monkeypatch.setattr(harness, "build_objective", counted)
        assert main(["sweep", "--gen-n", "20", "--budget-fracs", "0.3,0.6"]) == 0
        assert len(builds) == 1
        assert capsys.readouterr().out.count("frac=") == 6  # 3 algorithms x 2 fractions

    # alpha is fixed at 1/7 and density greedy is the one estimator, so
    # neither is a flag or a config-file key
    @pytest.mark.parametrize("flag", ["--alpha=0.2", "--estimator=greedy"])
    def test_removed_solver_flags_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alpha", "estimator"])
    def test_removed_solver_keys_are_usage_errors(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = greedy\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(cfg)])
        assert exit_info.value.code == 2
        assert f"unknown keys: {key}" in capsys.readouterr().err

    def test_readme_lists_every_flag_of_every_subcommand(self, capsys):
        def help_text(*argv):
            with pytest.raises(SystemExit) as exit_info:
                main([*argv, "--help"])
            assert exit_info.value.code == 0
            return capsys.readouterr().out

        commands = re.search(r"\{([a-z,-]+)\}", help_text()).group(1).split(",")
        documented = readme_flags()
        assert set(commands) == set(documented)
        for command in commands:
            listed = set(re.findall(r"^  (--[a-z-]+)", help_text(command), re.M))
            assert listed, command
            assert listed <= documented[command], (command, listed - documented[command])

    @pytest.mark.parametrize(
        "objective, flags, rejected",
        [
            ("image_summ", ["--graph"], "--graph"),
            ("cut", ["--features"], "--features"),
            ("revenue", ["--features"], "--features"),
            ("cut", ["--graph", "--features"], "--features"),
            ("image_summ", ["--graph", "--features"], "--graph"),
        ],
    )
    def test_data_file_must_suit_objective(self, tmp_path, capsys, objective, flags, rejected):
        path = tmp_path / "data.txt"
        path.write_text("0 1 0.5\n")
        argv = ["run", "--objective", objective]
        for flag in flags:
            argv += [flag, str(path)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert rejected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--trials", "0"], "trials must be at least 1"),
            (["run", "--epsilon", "0.5"], "epsilon must lie in"),
            (["run", "--budget-fracs", "1.5"], "budget fractions must lie in"),
            (["sweep", "--trials", "0"], "trials must be at least 1"),
            (["sweep", "--algorithms", "nope"], "unknown algorithm: 'nope'"),
            (["sweep", "--algorithms", "ast,nope"], "unknown algorithm: 'nope'"),
            (["sweep", "--objective", "cut", "--features", "f.csv"], "--features"),
            (["run", "--epsilon", "1e-17"], "epsilon is too small"),
            (["run", "--gen-n", "1"], "cut graph needs at least two nodes"),
            (["run", "--gen-n", "1", "--objective", "revenue"], "at least two nodes"),
            (["run", "--gen-n", "0", "--objective", "image_summ"], "at least one element"),
            (["run", "--gen-p", "1.5"], "edge probability p must lie in [0, 1]"),
            (["run", "--gen-p", "-0.1", "--objective", "revenue"], "edge probability"),
            (["run", "--seed", "-1"], "seed must be non-negative"),
            (["run", "--seed", "-1", "--objective", "image_summ"], "seed must be non-negative"),
            (["sweep", "--gen-n", "1"], "at least two nodes"),
            (["run", "--budget-fracs", "1e-320"], "budget must be finite and at least"),
            (["sweep", "--budget-fracs", "1e-320,0.5"], "budget must be finite and at least"),
        ],
    )
    def test_bad_spec_is_a_usage_error_before_any_solve(self, monkeypatch, capsys, argv, message):
        solved = []
        monkeypatch.setattr(harness, "run_built", lambda spec, built: solved.append(spec))
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert solved == []

    def test_an_error_inside_a_solve_is_no_usage_error(self, monkeypatch):
        def failing_run(spec, built):
            raise ValueError("raised inside a solve")

        monkeypatch.setattr(harness, "run_built", failing_run)
        with pytest.raises(ValueError, match="raised inside a solve"):
            main(["run"])

    @pytest.mark.parametrize(
        "objective, flag", [("cut", "--graph"), ("image_summ", "--features")]
    )
    def test_missing_data_file_is_a_usage_error_before_any_solve(
        self, tmp_path, monkeypatch, capsys, objective, flag
    ):
        solved = []
        monkeypatch.setattr(harness, "run_built", lambda spec, built: solved.append(spec))
        missing = tmp_path / "absent.txt"
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--objective", objective, flag, str(missing)])
        assert exit_info.value.code == 2
        assert f"argument {flag}: no such file: {missing}" in capsys.readouterr().err
        assert solved == []

    @pytest.mark.parametrize("flags", [["--avg-degree", "0"], ["--budget", "1e-300"]])
    def test_bench_rounds_without_rounds_fails(self, capsys, flags):
        assert main(["bench-rounds", "--sizes", "8,16", "--bench-seeds", "0", *flags]) == 1
        out = capsys.readouterr().out
        assert "ratio = inf" in out and out.endswith("bench-rounds: FAIL\n")

    def test_verify_needs_two_trials(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--trials", "1"])
        assert exit_info.value.code == 2
        assert "--trials" in capsys.readouterr().err

    def test_verify_names_a_negative_seed(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--seed", "-1"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]  # below the usage line
        assert "argument --seed: expected a non-negative integer" in error

    def test_image_summ_takes_any_edge_probability(self, monkeypatch):
        # p shapes graphs only; a generated image_summ instance ignores it
        (spec,) = captured_specs(monkeypatch, ["run", "--objective", "image_summ", "--gen-p", "1.5"])
        assert spec.source.p == 1.5

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sizes", "64"], "two distinct"),
            (["--sizes", "64,64"], "two distinct"),
            (["--sizes", "64,x"], "--sizes"),
            (["--bench-seeds", "x"], "--bench-seeds"),
            (["--bench-seeds", ""], "--bench-seeds"),
            (["--bench-seeds", "0,-1"], "seeds must be non-negative"),  # before seed 0's solves
        ],
    )
    def test_bench_rounds_rejects_a_gate_it_cannot_compute(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench-rounds", *flags])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bench-rounds", "--sizes", "64,x"], "--sizes"),
            (["bench-rounds", "--bench-seeds", "0,1.5"], "--bench-seeds"),
            (["run", "--budget-fracs", "0.5,x"], "--budget-fracs"),
        ],
    )
    def test_bad_comma_list_names_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a comma list" in err
        assert "_parse" not in err

    def test_run_writes_outputs(self, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        out_svg = tmp_path / "r.svg"
        code = main(
            [
                "run",
                "--algorithm",
                "density_greedy",
                "--objective",
                "cut",
                "--gen-n",
                "20",
                "--gen-p",
                "0.4",
                "--budget-fracs",
                "0.2,0.4",
                "--seed",
                "3",
                "--out-csv",
                str(out_csv),
                "--out-svg",
                str(out_svg),
            ]
        )
        assert code == 0
        assert len(read_csv(out_csv)) == 2
        ET.parse(out_svg)

    def test_sweep_covers_algorithms(self, tmp_path):
        out_csv = tmp_path / "s.csv"
        code = main(
            [
                "sweep",
                "--objective",
                "cut",
                "--gen-n",
                "18",
                "--gen-p",
                "0.4",
                "--budget-fracs",
                "0.3",
                "--seed",
                "2",
                "--out-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        assert {r.algorithm for r in read_csv(out_csv)} == {
            "ast",
            "density_greedy",
            "random_feasible",
        }

    def test_image_summ_from_features_file(self, tmp_path):
        feats = tmp_path / "feats.csv"
        rows = np.random.default_rng(1).random((12, 5))
        np.savetxt(feats, rows, delimiter=",", fmt="%.6f")
        out_csv = tmp_path / "is.csv"
        code = main(
            [
                "run",
                "--algorithm",
                "ast",
                "--objective",
                "image_summ",
                "--features",
                str(feats),
                "--budget-fracs",
                "0.4",
                "--seed",
                "1",
                "--out-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        assert read_csv(out_csv)[0].n == 12

    def test_graph_file_source(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1 0.5\n1 2 0.25\n0 3 0.75\n2 3 0.3\n")
        out_csv = tmp_path / "g.csv"
        code = main(
            [
                "run",
                "--algorithm",
                "ast",
                "--objective",
                "revenue",
                "--graph",
                str(edges),
                "--budget-fracs",
                "0.6",
                "--seed",
                "4",
                "--out-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        assert read_csv(out_csv)[0].n == 4


class TestVerificationEngines:
    def test_ratio_verification_smoke(self):
        reports = ratio_verification(
            trials=4, base_seed=1, instances=(("cut", 8, 0.4), ("mixture", 8, 0.5))
        )
        assert len(reports) == 2
        for rep in reports:
            assert 0.0 < rep["mean_ratio"] <= 1.0 + 1e-9
            assert rep["opt"] > 0

    def test_ratio_verification_needs_two_trials(self):
        with pytest.raises(ValueError, match="at least 2"):
            ratio_verification(trials=1, instances=(("cut", 8, 0.4),))

    def test_ratio_verification_needs_a_non_negative_seed(self):
        with pytest.raises(ValueError, match="base_seed must be non-negative"):
            ratio_verification(trials=2, base_seed=-1, instances=(("cut", 8, 0.4),))

    @pytest.mark.parametrize("sizes", [(24,), (24, 24)])
    def test_adaptivity_bench_needs_two_distinct_sizes(self, sizes):
        with pytest.raises(ValueError, match="two distinct"):
            adaptivity_bench(sizes=sizes, budget=2.0, seeds=(0,))

    def test_adaptivity_bench_without_rounds_fails(self):
        # no edges, so no positive singleton and no solver round at any size
        report = adaptivity_bench(sizes=(8, 16), avg_degree=0.0, seeds=(0,))
        assert report["mean_rounds"] == (0.0, 0.0)
        assert report["round_ratio"] == math.inf and report["passed"] is False

    def test_adaptivity_bench_smoke(self):
        report = adaptivity_bench(sizes=(24, 48), budget=2.0, seeds=(0,), base_seed=3)
        assert report["sizes"] == (24, 48)
        assert len(report["mean_rounds"]) == 2
        assert "r_squared" in report and "round_ratio" in report
