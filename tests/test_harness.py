import itertools
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from submodknap import AstConfig, load_features
from submodknap.harness import (
    CSV_HEADER,
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

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp = 9\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            main(["run", "--algorithm", "ast", "--config", str(cfg)])


class TestCli:
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

    def test_adaptivity_bench_smoke(self):
        report = adaptivity_bench(sizes=(24, 48), budget=2.0, seeds=(0,), base_seed=3)
        assert report["sizes"] == (24, 48)
        assert len(report["mean_rounds"]) == 2
        assert "r_squared" in report and "round_ratio" in report
