"""Sweep harness: specs, grid selection, report/trace emission, CLI."""

import csv
import dataclasses
import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsvrg import cli, comm, harness, optim
from hetsvrg import problem as prob
from hetsvrg import sampling as smp


def tiny_spec(tmp_path, **overrides):
    base = dict(
        preset="linear_synthetic",
        algorithms=("svrg_uniform", "asd_svrg"),
        eta_grid=(0.02, 0.09),
        seeds=(1,),
        epochs=2,
        inner_iters=10,
        group_size=1,
        out_dir=str(tmp_path),
        samples_total=100,
        dim=4,
    )
    base.update(overrides)
    return harness.ExperimentSpec(**base)


def cell_rows(**kw):
    base = dict(
        algorithm="svrg_uniform",
        eta=0.1,
        seed=1,
        diverged=False,
        final_train_loss=1.0,
        final_test_loss=1.0,
        final_test_accuracy=float("nan"),
        epochs_to_threshold=None,
        total_scalars=100,
        trace_file="t.csv",
    )
    base.update(kw)
    return harness.CellResult(**base)


class TestSpecValidation:
    def test_empty_algorithms_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, algorithms=())

    def test_unknown_algorithm_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, algorithms=("sgd", "adam"))

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, eta_grid=())

    @pytest.mark.parametrize("eval_every", [0, 11])
    def test_eval_every_outside_inner_iters_rejected(self, tmp_path, eval_every):
        with pytest.raises(ValueError, match="eval_every"):
            tiny_spec(tmp_path, eval_every=eval_every)  # inner_iters=10

    @pytest.mark.parametrize("field, value", [
        ("seeds", (1, 2, 1)), ("eta_grid", (0.02, 0.02)), ("algorithms", ("sgd", "asd_svrg", "sgd")),
    ])
    def test_repeated_entry_rejected(self, tmp_path, field, value):
        # a repeat would run its cells twice, write their traces twice and
        # count them twice in grid_best_from_rows' medians
        with pytest.raises(ValueError, match="must not repeat"):
            tiny_spec(tmp_path, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("seeds", (1.5,)), ("seeds", (1, np.float64(2.0))), ("epochs", 1.5), ("eval_every", 1.5),
        ("inner_iters", 9.5), ("group_size", 1.0), ("m_workers", 4.0), ("samples_total", 99.5), ("dim", 2.5),
    ])
    def test_non_integer_field_rejected(self, tmp_path, field, value):
        # seeds=(1.5,) once ran as seed 1 and eval_every=1.5 recorded too few rows
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tiny_spec(tmp_path / "o", **{field: value})
        assert not (tmp_path / "o").exists()

    def test_custom_needs_path_and_task(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, preset="custom_csv")
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, preset="custom_csv", csv_path="x.csv", task=prob.LINEAR, eta_grid=None)

    @pytest.mark.parametrize("field", ["m_workers", "samples_total", "dim"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_shape_below_one_rejected(self, tmp_path, field, value):
        # make_problem once read a 0 as the preset's value
        with pytest.raises(ValueError, match="at least 1"):
            tiny_spec(tmp_path / "o", **{field: value})
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("m_workers, samples_total", [
        (9, 10),  # 8 training rows
        (401, None),  # the preset's 500 samples leave 400 rows
        (None, 8),  # 7 rows for the preset's 8 workers
    ])
    def test_fewer_training_rows_than_workers_rejected(self, tmp_path, m_workers, samples_total):
        with pytest.raises(ValueError, match="training rows, fewer than"):
            tiny_spec(tmp_path / "o", m_workers=m_workers, samples_total=samples_total)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("m_workers, samples_total, workers", [(400, None, 400), (None, 9, 8), (9, 12, 9)])
    def test_as_many_training_rows_as_workers_accepted(self, tmp_path, m_workers, samples_total, workers):
        spec = tiny_spec(tmp_path, m_workers=m_workers, samples_total=samples_total)
        assert harness.make_problem(spec, seed=0).m_workers == workers

    @pytest.mark.parametrize("field, value", [("m_workers", 4), ("samples_total", 100), ("dim", 3)])
    def test_custom_csv_rejects_shape_fields(self, tmp_path, field, value):
        # the CSV fixes the shape, and the field would be ignored
        with pytest.raises(ValueError, match=f"custom_csv takes its shape from the CSV; {field} must be unset"):
            tiny_spec(tmp_path / "o", preset="custom_csv", csv_path="x.csv", task=prob.LINEAR,
                      **{"samples_total": None, "dim": None, field: value})
        assert not (tmp_path / "o").exists()

    def test_preset_problem_shapes(self, tmp_path):
        spec = tiny_spec(tmp_path, samples_total=None, dim=None)
        p = harness.make_problem(spec, seed=0)
        assert p.m_workers == 8 and p.dim == 10 and p.n_total == 400
        spec_log = harness.ExperimentSpec(
            preset="logistic_synthetic", algorithms=("sgd",), eta_grid=(1e-4,),
            seeds=(1,), out_dir=str(tmp_path),
        )
        q = harness.make_problem(spec_log, seed=0)
        assert q.m_workers == 8 and q.dim == 100 and q.n_total == 240

    def test_default_grid_centers(self, tmp_path):
        spec = harness.ExperimentSpec(
            preset="logistic_synthetic", algorithms=("svrg_uniform", "asd_svrg"),
            eta_grid=None, seeds=(1,), out_dir=str(tmp_path),
        )
        svrg = spec.grid_for("svrg_uniform")
        asd = spec.grid_for("asd_svrg")
        assert svrg[len(svrg) // 2] == pytest.approx(7.5e-5)
        assert asd[len(asd) // 2] == pytest.approx(2.5e-3)


class TestSpecProperty:
    """Any spec either is rejected before its output directory exists, or
    runs to the end."""

    @settings(max_examples=100, deadline=None)
    @given(
        preset=st.sampled_from(harness.PRESETS),
        algorithms=st.lists(st.sampled_from(harness.ALGORITHMS), min_size=1, max_size=4, unique=True),
        etas=st.lists(st.sampled_from([0.01, 0.1, 1e6, math.nan, math.inf]), min_size=1, max_size=3, unique=True),
        seeds=st.lists(st.integers(-1, 3), min_size=1, max_size=3, unique=True),
        repeat=st.sampled_from([None] * 5 + ["algorithms", "etas", "seeds"]),  # the list whose first entry repeats
        m_workers=st.none() | st.integers(-1, 7),
        samples_total=st.none() | st.integers(-1, 40),
        dim=st.none() | st.integers(-1, 4),
        group_size=st.sampled_from([1, 1, 2, 3, 9, 0]),
        inner=st.integers(1, 3),
        eval_every=st.sampled_from([1, 1, 1, 2, 3, 0, 9]),
        policy=st.sampled_from(smp.SUBSAMPLE_POLICIES),
        fixed_n=st.none() | st.integers(0, 12),
    )
    def test_rejects_before_out_dir_or_completes(self, preset, algorithms, etas, seeds, repeat, m_workers,
                                                 samples_total, dim, group_size, inner, eval_every, policy, fixed_n):
        lists = {"algorithms": algorithms, "etas": etas, "seeds": seeds}
        if repeat:
            lists[repeat] = lists[repeat] + lists[repeat][:1]
        with tempfile.TemporaryDirectory() as root:
            out, data = Path(root) / "o", Path(root) / "data.csv"
            prob.save_csv(prob.generate_heterogeneous(prob.LINEAR, 3, 30, 2, 2.0, seed=5), data)
            try:
                spec = harness.ExperimentSpec(
                    preset=preset, algorithms=tuple(lists["algorithms"]), eta_grid=tuple(lists["etas"]),
                    seeds=tuple(lists["seeds"]), epochs=1, inner_iters=inner, group_size=group_size,
                    eval_every=eval_every, out_dir=str(out),
                    **(dict(csv_path=str(data), task=prob.LINEAR) if preset == "custom_csv" else {}),
                    estimation=smp.EstimationConfig(subsample_policy=policy, fixed_n=fixed_n),
                    m_workers=m_workers, samples_total=samples_total, dim=dim,
                )
                report = harness.run_experiment(spec)
            except ValueError:
                assert not out.exists()
                return
            assert repeat is None  # a repeated entry is always rejected
            assert len(report.rows) == len(algorithms) * len(etas) * len(seeds)
            assert (out / "report.csv").exists() and (out / "best.csv").exists()


class TestGridBest:
    def test_single_cell(self):
        rows = [cell_rows(eta=0.05, final_train_loss=0.7)]
        eta, metrics = harness.grid_best_from_rows(rows, "svrg_uniform")
        assert eta == 0.05
        assert metrics["median_final_train_loss"] == 0.7

    def test_argmin_over_valid_cells(self):
        rows = [
            cell_rows(eta=0.01, final_train_loss=0.5),
            cell_rows(eta=0.1, final_train_loss=0.2),
            cell_rows(eta=1.0, diverged=True, final_train_loss=float("nan")),
        ]
        eta, _ = harness.grid_best_from_rows(rows, "svrg_uniform")
        assert eta == 0.1

    def test_tie_breaks_toward_larger_eta(self):
        rows = [
            cell_rows(eta=0.01, final_train_loss=0.2),
            cell_rows(eta=0.1, final_train_loss=0.2),
        ]
        eta, _ = harness.grid_best_from_rows(rows, "svrg_uniform")
        assert eta == 0.1

    def test_all_diverged(self):
        rows = [cell_rows(eta=0.01, diverged=True)]
        with pytest.raises(harness.AllDiverged):
            harness.grid_best_from_rows(rows, "svrg_uniform")

    def test_partially_diverged_eta_dispreferred(self):
        rows = [
            cell_rows(eta=0.01, seed=1, final_train_loss=0.5),
            cell_rows(eta=0.01, seed=2, final_train_loss=0.5),
            cell_rows(eta=0.1, seed=1, final_train_loss=0.1),
            cell_rows(eta=0.1, seed=2, diverged=True),
        ]
        eta, _ = harness.grid_best_from_rows(rows, "svrg_uniform")
        assert eta == 0.01

    def test_best_eta_ratio_on_preset_default_grids(self, tmp_path):
        # the adaptive method stays stable at a step size at least a factor 5
        # above uniform sampling's on the heterogeneous linear preset: the
        # largest default-grid step at which no seed diverged.  (The
        # regret-best step is not the claim: at 4 epochs a small stable step
        # often ends below a larger one, so which one wins is seed luck.)
        spec = harness.ExperimentSpec(
            preset="linear_synthetic",
            algorithms=("svrg_uniform", "asd_svrg"),
            eta_grid=None,
            seeds=(1, 2, 3),
            epochs=4,
            inner_iters=100,
            group_size=1,
            out_dir=str(tmp_path),
        )
        report = harness.run_experiment(spec)

        def largest_stable_eta(algorithm):
            rows = [r for r in report.rows if r.algorithm == algorithm]
            assert {r.seed for r in rows} == {1, 2, 3}
            unstable = {r.eta for r in rows if r.diverged}
            return max(r.eta for r in rows if r.eta not in unstable)

        assert largest_stable_eta("asd_svrg") / largest_stable_eta("svrg_uniform") >= 5.0


class TestRunExperiment:
    def test_outputs_written(self, tmp_path):
        spec = tiny_spec(tmp_path)
        report = harness.run_experiment(spec)
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "best.csv").exists()
        assert len(report.rows) == 4
        for row in report.rows:
            assert (tmp_path / row.trace_file).exists()
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == ",".join(harness.REPORT_CSV_HEADER)

    def test_diverged_cells_marked_not_fatal(self, tmp_path):
        spec = tiny_spec(tmp_path, eta_grid=(0.02, 500.0), algorithms=("svrg_uniform",))
        report = harness.run_experiment(spec)
        flags = {r.eta: r.diverged for r in report.rows}
        assert flags[500.0] and not flags[0.02]

    def test_sweep_isolation(self, tmp_path):
        # removing a diverging cell leaves every other trace byte-identical,
        # though the step sizes of an (algorithm, seed) are stepped together
        algorithms = ("svrg_uniform", "svrg_importance", "asd_svrg")
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        spec_a = tiny_spec(a_dir, eta_grid=(0.02, 500.0, 0.05), algorithms=algorithms)
        spec_b = tiny_spec(b_dir, eta_grid=(0.02, 0.05), algorithms=algorithms)
        report = harness.run_experiment(spec_a)
        harness.run_experiment(spec_b)
        assert {(r.algorithm, r.eta) for r in report.rows if r.diverged} == {(a, 500.0) for a in algorithms}
        for algorithm in algorithms:
            for eta in (0.02, 0.05):
                name = harness._trace_name(algorithm, eta, 1)
                assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name

    def test_one_public_run_grid_call_per_seed(self, tmp_path, monkeypatch):
        """Every cell of a seed, SGD's included, steps in one ``optim.run_grid``
        call, in the order of ``spec.algorithms`` and each algorithm's grid."""
        calls = []
        run_grid = optim.run_grid
        monkeypatch.setattr(optim, "run_grid",
                            lambda p, configs, x0=None: calls.append(configs) or run_grid(p, configs, x0))
        spec = tiny_spec(tmp_path, algorithms=harness.ALGORITHMS, seeds=(1, 2))
        report = harness.run_experiment(spec)
        assert len(calls) == len(spec.seeds)
        modes = {"sgd": "sgd", "svrg_uniform": "uniform", "svrg_importance": "lipschitz_importance",
                 "asd_svrg": "adaptive"}
        for seed, configs in zip(spec.seeds, calls):
            cells = [(a, eta) for a in spec.algorithms for eta in spec.grid_for(a)]
            assert [(c.seed, c.distribution_mode) for c in configs] == [
                (harness._cell_seed(seed, a, eta), modes[a]) for a, eta in cells]
        assert len(report.rows) == sum(map(len, calls)) == 2 * 4 * 2

    def test_rerun_is_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        harness.run_experiment(tiny_spec(a_dir))
        harness.run_experiment(tiny_spec(b_dir))
        for name in sorted(f.name for f in a_dir.iterdir()):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name

    def test_shared_dataset_and_initial_point(self, tmp_path):
        # all algorithms of one seed consume the same problem bytes
        spec = tiny_spec(tmp_path)
        digests = set()
        for _ in range(2):
            p = harness.make_problem(spec, seed=1)
            buf = tmp_path / "problem_dump.csv"
            prob.save_csv(p, buf)
            digests.add(hashlib.sha256(buf.read_bytes()).hexdigest())
        assert len(digests) == 1

    def test_arrival_metric_uses_fractional_epochs(self, tmp_path):
        spec = tiny_spec(tmp_path, eta_grid=(0.09,), algorithms=("asd_svrg",), epochs=4, inner_iters=100,
                         samples_total=None, dim=None)
        report = harness.run_experiment(spec)
        arr = report.rows[0].epochs_to_threshold
        assert arr is not None and 0 < arr <= 4

    def test_custom_csv_roundtrip(self, tmp_path):
        p = prob.generate_heterogeneous(prob.LINEAR, 3, 60, 3, 2.0, seed=5)
        data = tmp_path / "data.csv"
        prob.save_csv(p, data)
        spec = harness.ExperimentSpec(
            preset="custom_csv", algorithms=("sgd",), eta_grid=(1e-3,), seeds=(1,),
            epochs=1, inner_iters=5, out_dir=str(tmp_path / "runs"),
            csv_path=str(data), task=prob.LINEAR,
        )
        report = harness.run_experiment(spec)
        assert len(report.rows) == 1 and not report.rows[0].diverged

    def test_custom_csv_parsed_once_per_sweep(self, tmp_path, monkeypatch):
        p = prob.generate_heterogeneous(prob.LINEAR, 3, 60, 3, 2.0, seed=5)
        data = tmp_path / "data.csv"
        prob.save_csv(p, data)
        calls = []
        load = prob.load_csv
        monkeypatch.setattr(prob, "load_csv", lambda *args: calls.append(args) or load(*args))
        spec = harness.ExperimentSpec(
            preset="custom_csv", algorithms=("sgd", "asd_svrg"), eta_grid=(1e-3, 1e-2), seeds=(1, 2, 3),
            epochs=1, inner_iters=5, out_dir=str(tmp_path / "all"), csv_path=str(data), task=prob.LINEAR,
        )
        harness.run_experiment(spec)
        assert len(calls) == 1
        # the same traces and report rows as one sweep per seed
        report_rows = []
        for seed in spec.seeds:
            one = tmp_path / f"seed{seed}"
            harness.run_experiment(dataclasses.replace(spec, seeds=(seed,), out_dir=str(one)))
            report_rows += (one / "report.csv").read_text().splitlines()[1:]
            for trace in one.glob("trace_*.csv"):
                assert trace.read_bytes() == (tmp_path / "all" / trace.name).read_bytes()
        assert (tmp_path / "all" / "report.csv").read_text().splitlines()[1:] == report_rows
        assert len(calls) == 4

    def test_unreadable_custom_csv_diagnostics(self, tmp_path):
        data = tmp_path / "broken.csv"
        data.write_text("worker_id,target,f_0\n0,1.0,2.0\n0,oops,2.0\n")
        spec = harness.ExperimentSpec(
            preset="custom_csv", algorithms=("sgd",), eta_grid=(1e-3,), seeds=(1,),
            epochs=1, inner_iters=2, out_dir=str(tmp_path / "runs"),
            csv_path=str(data), task=prob.LINEAR,
        )
        with pytest.raises(prob.DatasetFormatError, match=":3"):
            harness.run_experiment(spec)


def csv_module_plotdata(report, trace_dir, out_dir):
    """The plot data as the csv module wrote it: each chosen trace parsed,
    its rows written out again under one header."""
    for algorithm in report.spec.algorithms:
        lines = []
        if algorithm in report.best:
            eta = report.best[algorithm][0]
            for cell in sorted((r for r in report.rows_for(algorithm) if r.eta == eta and not r.diverged),
                               key=lambda r: r.seed):
                with open(Path(trace_dir) / cell.trace_file, newline="") as fh:
                    lines.extend(list(csv.reader(fh))[1:])
        for figure in harness.FIGURES:
            with open(Path(out_dir) / f"fig_{figure}_{algorithm}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(optim.TRACE_CSV_HEADER)
                writer.writerows(lines)


class TestEmitPlotdata:
    def test_bytes_match_the_csv_module(self, tmp_path):
        # a three-seed sweep, and a best cell whose trace holds no rows
        spec = tiny_spec(tmp_path, algorithms=("sgd", "svrg_uniform"), eta_grid=(0.02, 1e6), seeds=(3, 1, 2),
                         epochs=2, inner_iters=3)
        report = harness.run_experiment(spec)
        optim.RunTrace(rows=[], final_x=np.zeros(5), ledger=comm.CommLedger()).to_csv(tmp_path / "empty.csv")
        empty = harness.CellResult("asd_svrg", 0.1, 1, False, 1.0, 1.0, 1.0, None, 0, "empty.csv")
        empty_report = harness.ComparisonReport(spec=dataclasses.replace(spec, algorithms=("asd_svrg",)),
                                                rows=[empty], best={"asd_svrg": (0.1, {})})
        for rep in (report, empty_report):
            want = tmp_path / "want"
            want.mkdir(exist_ok=True)
            csv_module_plotdata(rep, tmp_path, want)
            files = harness.emit_plotdata(rep, tmp_path)
            assert len(files) == len(harness.FIGURES) * len(rep.spec.algorithms)
            for f in files:
                assert Path(f).read_bytes() == (want / Path(f).name).read_bytes()
        assert (want / "fig_train_loss_asd_svrg.csv").read_bytes() == (",".join(optim.TRACE_CSV_HEADER) + "\r\n").encode()
        assert len((tmp_path / "fig_train_loss_sgd.csv").read_bytes().splitlines()) == 1 + 3 * 2 * 3

    def test_empty_report_writes_headers(self, tmp_path):
        spec = tiny_spec(tmp_path)
        report = harness.ComparisonReport(spec=spec, rows=[], best={})
        files = harness.emit_plotdata(report, tmp_path)
        assert len(files) == len(harness.FIGURES) * len(spec.algorithms)
        for f in files:
            lines = open(f).read().strip().splitlines()
            assert lines == [",".join(optim.TRACE_CSV_HEADER)]

    def test_row_count_and_schema(self, tmp_path):
        spec = tiny_spec(tmp_path, algorithms=("svrg_uniform",), eta_grid=(0.02,),
                         epochs=2, inner_iters=3)
        report = harness.run_experiment(spec)
        files = harness.emit_plotdata(report, tmp_path)
        for f in files:
            with open(f, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == optim.TRACE_CSV_HEADER
            assert len(rows) == 1 + 2 * 3


class TestCli:
    def test_rates_subcommand(self, capsys):
        rc = cli.main([
            "rates", "--kind", "asd_main", "--lambda", "1", "--eta", "0.05",
            "--T", "100", "--R", "4", "--tau", "0.1", "--lbar", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.2517" in out

    def test_rates_undefined_is_error(self, capsys):
        rc = cli.main([
            "rates", "--kind", "svrg_uniform", "--lambda", "1", "--eta", "10",
            "--T", "100", "--lbar", "1", "--lmax", "1",
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_protocol_test_subcommand(self, capsys):
        rc = cli.main(["protocol-test", "--M", "8", "--R", "2", "--draws", "4000", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "within 4 sigma" in out
        assert comm_header_in(out)

    @pytest.mark.parametrize("args, flag", [
        (("--M", "8", "--R", "0"), "--R"),
        (("--M", "-3", "--R", "2"), "--M"),
        (("--M", "8", "--R", "2", "--draws", "-5"), "--draws"),
        (("--M", "8", "--R", "2", "--draws", "0"), "--draws"),
    ])
    def test_protocol_test_rejects_counts_below_one(self, args, flag, capsys, monkeypatch):
        # found before any draw: no protocol call is made
        monkeypatch.setattr(cli.comm, "pc_sample", None)
        rc = cli.main(["protocol-test", *args])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {flag} must be at least 1, got {args[args.index(flag) + 1]}\n"
        assert captured.out == ""

    def test_run_subcommand_tiny(self, tmp_path, capsys):
        rc = cli.main([
            "run", "--preset", "linear", "--algos", "svrg,asd", "--etas", "0.02,0.09",
            "--epochs", "1", "--inner", "5", "--R", "1", "--seeds", "1",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "report.csv").exists()
        out = capsys.readouterr().out
        assert "best eta" in out

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "sweep.conf"
        cfg.write_text(
            "preset = linear\nalgos = svrg\netas = 0.02\nepochs = 1\ninner = 4\n"
            "seeds = 1\nout = {}\n".format(tmp_path / "from_file")
        )
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "override")])
        assert rc == 0
        assert (tmp_path / "override" / "report.csv").exists()
        assert not (tmp_path / "from_file").exists()

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.conf"
        cfg.write_text("presett = linear\n")
        rc = cli.main(["run", "--config", str(cfg)])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_unknown_algorithm_fails(self, capsys):
        rc = cli.main(["run", "--algos", "adamw", "--etas", "0.1", "--out", "x"])
        assert rc == 1

    def test_eval_every_beyond_inner_iters_fails(self, tmp_path, capsys):
        # no step of an epoch would be evaluated, so every final metric would be NaN
        rc = cli.main([
            "run", "--epochs", "1", "--inner", "5", "--eval-every", "10", "--algos", "svrg,asd",
            "--etas", "0.01,0.02", "--seeds", "1,2", "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    def test_bad_eval_every_makes_no_output_dir(self, tmp_path, capsys):
        # the spec rejects it before run_experiment creates the directory
        rc = cli.main(["run", "--inner", "5", "--eval-every", "10", "--out", str(tmp_path / "o1")])
        assert rc == 1
        assert "eval_every" in capsys.readouterr().err
        assert not (tmp_path / "o1").exists()

    @pytest.mark.parametrize("flag, field", [("--l2-sgd", "l2_for_sgd"), ("--growth-base", "growth_base")])
    def test_bad_spec_value_makes_no_output_dir(self, flag, field, tmp_path, capsys):
        rc = cli.main(["run", flag, "-1", "--epochs", "1", "--out", str(tmp_path / "o2")])
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o2").exists()

    @pytest.mark.parametrize("flag, field", [("--l2-sgd", "l2_for_sgd"), ("--growth-base", "growth_base")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_spec_value_makes_no_output_dir(self, flag, field, value, tmp_path, capsys):
        rc = cli.main(["run", flag, value, "--epochs", "1", "--out", str(tmp_path / "o2")])
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o2").exists()

    @pytest.mark.parametrize("args, message", [
        (("--R", "9", "--inner", "2", "--algos", "asd"), "need m_workers >= group_size"),
        (("--preset", "custom", "--csv", "nope.csv", "--task", "linear"), "nope.csv"),
    ])
    def test_rejected_run_makes_no_output_dir(self, args, message, tmp_path, monkeypatch, capsys):
        # ASD's group size above the preset's 8 workers, and a missing dataset,
        # are found before run_experiment makes the directory
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["run", *args, "--epochs", "1", "--etas", "0.1", "--out", "o"])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [("--seeds", "1,1", "--etas", "0.1"), ("--seeds", "1", "--etas", "0.1,0.1")])
    def test_repeated_seed_or_step_size_makes_no_output_dir(self, args, tmp_path, capsys):
        rc = cli.main(["run", *args, "--epochs", "1", "--inner", "2", "--algos", "svrg", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "must not repeat" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("etas", ["nan,nan", "inf", "0.1,-inf"])  # nan != nan, so no repeat is seen
    def test_non_finite_step_size_makes_no_output_dir(self, etas, tmp_path, capsys):
        rc = cli.main(["run", "--algos", "svrg", "--etas", etas, "--epochs", "1", "--inner", "2",
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "eta_grid entries must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("custom", [False, True])
    def test_negative_seed_makes_no_output_dir(self, custom, tmp_path, capsys):
        # seed 1's cells once ran and wrote their traces before seed -1 failed
        data = tmp_path / "data.csv"
        prob.save_csv(prob.generate_heterogeneous(prob.LINEAR, 3, 30, 2, 2.0, seed=5), data)
        preset = ("--preset", "custom", "--csv", str(data), "--task", prob.LINEAR) if custom else ("--preset", "linear")
        rc = cli.main(["run", *preset, "--algos", "svrg", "--etas", "0.1", "--epochs", "1", "--inner", "2",
                       "--seeds", "-1" if custom else "1,-1", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "seed entries must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("preset", ["linear", "logistic"])
    @pytest.mark.parametrize("dataset", [("--csv",), ("--task",), ("--csv", "--task")])
    def test_dataset_options_under_a_synthetic_preset_make_no_output_dir(self, preset, dataset, tmp_path, capsys):
        # --csv and --task were once ignored here, and the synthetic preset ran
        values = {"--csv": str(tmp_path / "missing.csv"), "--task": prob.LOGISTIC}
        rc = cli.main(["run", "--preset", preset, *(v for flag in dataset for v in (flag, values[flag])),
                       "--epochs", "1", "--inner", "2", "--algos", "svrg", "--etas", "0.1",
                       "--out", str(tmp_path / "oc")])
        assert rc == 1
        assert "csv_path and task are both needed under custom_csv" in capsys.readouterr().err
        assert not (tmp_path / "oc").exists()

    @pytest.mark.parametrize("flag", ["--lambda", "--eta", "--lbar", "--lmax", "--tau"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rates_rejects_non_finite_inputs(self, flag, value, capsys):
        args = {"--lambda": "1", "--eta": "0.01", "--lbar": "1", "--lmax": "2", "--tau": "0.1"}
        args[flag] = value
        rc = cli.main(["rates", "--kind", "svrg_uniform", "--T", "10", *(v for kv in args.items() for v in kv)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: lam, l_bar, eta, tau and l_max must be finite\n"
        assert captured.out == ""

    def test_algorithm_aliases_are_merged(self, tmp_path):
        rc = cli.main(["run", "--algos", "svrg,svrg_uniform,asd", "--epochs", "1", "--inner", "2", "--etas", "0.1",
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        with open(tmp_path / "o" / "report.csv", newline="") as fh:
            assert [row[0] for row in csv.reader(fh)][1:] == ["svrg_uniform", "asd_svrg"]

    def test_group_size_above_workers_runs_without_asd(self, tmp_path):
        # only ASD's tree protocol needs R <= M; SGD ignores R and the fixed
        # draws sample with replacement
        rc = cli.main(["run", "--R", "9", "--algos", "sgd,svrg,svrg_importance", "--epochs", "1", "--inner", "2",
                       "--etas", "0.01", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "report.csv").exists()

    def test_flag_outside_its_choices_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--estimation", "bogus", "--out", str(tmp_path / "o1")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "o1").exists()

    @pytest.mark.parametrize("args, message", [
        (["--estimation", "lemma1"], "argument --estimation: invalid choice: 'lemma1'"),
        (["--tau", "0.5"], "unrecognized arguments: --tau 0.5"),
        (["--delta", "0.1"], "unrecognized arguments: --delta 0.1"),
    ])
    def test_removed_run_options_exit_2(self, args, message, tmp_path, capsys):
        # the lemma1 policy and its tau and delta are gone from run; rates --tau stays
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", *args, "--out", str(tmp_path / "o1")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o1").exists()

    @pytest.mark.parametrize("line, message", [
        ("estimation = lemma1", "estimation = lemma1: invalid choice (choose from fixed, full)"),
        ("tau = 0.5", "unknown config keys: ['tau']"),
    ])
    def test_removed_config_keys_exit_1(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "sweep.conf"
        cfg.write_text(f"{line}\nout = {tmp_path / 'o1'}\n")
        rc = cli.main(["run", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "o1").exists()

    @pytest.mark.parametrize("key", ["estimation", "preset"])
    def test_config_value_outside_its_flags_choices_exits_1(self, key, tmp_path, capsys):
        cfg = tmp_path / "sweep.conf"
        cfg.write_text(f"{key} = bogus\nout = {tmp_path / 'o1'}\n")
        rc = cli.main(["run", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{key} = bogus: invalid choice" in err
        assert not (tmp_path / "o1").exists()

    def test_run_defaults_come_from_the_dataclasses(self, monkeypatch):
        specs = [
            run_spec(monkeypatch, argv)
            for argv in (["run"], ["run", "--preset", "linear_synthetic", "--algos", "svrg_uniform"])
        ]
        assert specs[0] == harness.ExperimentSpec(
            preset="linear_synthetic", algorithms=("sgd", "svrg_uniform", "asd_svrg"), eta_grid=None, seeds=(1,)
        )
        assert specs[1] == dataclasses.replace(specs[0], algorithms=("svrg_uniform",))

    @pytest.mark.parametrize("flag", [flag for flag, _, _ in cli._RUN_OPTIONS])
    def test_run_option_reads_the_same_from_flag_and_file(self, flag, tmp_path, monkeypatch):
        # --csv and --task are taken by --preset custom alone, which needs both: each is read
        # beside the other, and its spec differs from the one with another value of it
        value, (context, other) = RUN_OPTION_VALUES[flag], DATASET_CONTEXT.get(flag, ((), ["run"]))
        specs = [run_spec(monkeypatch, ["run", *context, flag, value])]
        for key in (flag[2:].replace("-", "_"), flag[2:]):
            cfg = tmp_path / "sweep.conf"
            cfg.write_text(f"{key} = {value}\n")
            specs.append(run_spec(monkeypatch, ["run", *context, "--config", str(cfg)]))
        assert specs[0] == specs[1] == specs[2] != run_spec(monkeypatch, other)


# the options --csv and --task are read beside (both under --preset custom), and a run with another value of each
CUSTOM = ("--preset", "custom", "--etas", "0.1")
DATASET_CONTEXT = {
    "--csv": ((*CUSTOM, "--task", "linear"), ["run", *CUSTOM, "--task", "linear", "--csv", "other.csv"]),
    "--task": ((*CUSTOM, "--csv", "data.csv"), ["run", *CUSTOM, "--csv", "data.csv", "--task", "linear"]),
}

# one value for each run option, none of them its default
RUN_OPTION_VALUES = {
    "--preset": "logistic", "--csv": "data.csv", "--task": "logistic", "--algos": "svrg,asd",
    "--etas": "0.1,0.2", "--epochs": "3", "--inner": "7", "--R": "2", "--seeds": "4,5", "--out": "elsewhere",
    "--growth-base": "2.5", "--eval-every": "2", "--l2-sgd": "0.5", "--estimation": "full", "--fixed-n": "8",
}


class Captured(Exception):
    pass


def run_spec(monkeypatch, argv) -> harness.ExperimentSpec:
    """The spec ``cli.main(argv)`` hands to ``harness.run_experiment``, which
    is stubbed out, so nothing runs."""
    specs = []

    def capture(spec):
        specs.append(spec)
        raise Captured

    monkeypatch.setattr(harness, "run_experiment", capture)
    with pytest.raises(Captured):
        cli.main(argv)
    return specs[0]


def comm_header_in(out: str) -> bool:
    from hetsvrg import comm

    return comm.CommLedger.CSV_HEADER in out
