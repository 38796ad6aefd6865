"""Sweep harness: specs, grid selection, report/trace emission, CLI."""

import csv
import dataclasses
import hashlib

import pytest

from hetsvrg import cli, harness, optim
from hetsvrg import problem as prob


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

    def test_custom_needs_path_and_task(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, preset="custom_csv")
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, preset="custom_csv", csv_path="x.csv", task=prob.LINEAR, eta_grid=None)

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
        # removing a diverging cell leaves every other trace byte-identical
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        spec_a = tiny_spec(a_dir, eta_grid=(0.02, 500.0), algorithms=("svrg_uniform",))
        spec_b = tiny_spec(b_dir, eta_grid=(0.02,), algorithms=("svrg_uniform",))
        harness.run_experiment(spec_a)
        harness.run_experiment(spec_b)
        name = harness._trace_name("svrg_uniform", 0.02, 1)
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

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


class TestEmitPlotdata:
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

    def test_run_defaults_come_from_the_dataclasses(self, monkeypatch):
        specs = []

        class Captured(Exception):
            pass

        def capture(spec):
            specs.append(spec)
            raise Captured

        monkeypatch.setattr(harness, "run_experiment", capture)
        for argv in (["run"], ["run", "--preset", "linear_synthetic", "--algos", "svrg_uniform"]):
            with pytest.raises(Captured):
                cli.main(argv)
        assert specs[0] == harness.ExperimentSpec(
            preset="linear_synthetic", algorithms=("sgd", "svrg_uniform", "asd_svrg"), eta_grid=None, seeds=(1,)
        )
        assert specs[1] == dataclasses.replace(specs[0], algorithms=("svrg_uniform",))


def comm_header_in(out: str) -> bool:
    from hetsvrg import comm

    return comm.CommLedger.CSV_HEADER in out
