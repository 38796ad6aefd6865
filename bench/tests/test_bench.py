"""Tests of the benchmark itself: its checks pass on the shipped code and
catch wrong outputs, and tracing changes nothing it observes.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import filecmp
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from hetsvrg import comm  # noqa: E402


def _original(path):
    module, attr = path.split(".", 1)
    owner = sys.modules[f"hetsvrg.{module}"]
    *parents, name = attr.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_passes_its_checks(name, tmp_path):
    workload = workloads.make(name, seed=3, tiny=True)
    result = workload.run_pass(tmp_path)
    assert result.problems == []
    assert result.failed == 0
    assert result.attempted > 0 and result.steps > 0 and result.calls > 0


@pytest.mark.parametrize("name", ["linear_sweep", "logistic_sweep", "scale_asd"])
def test_traced_pass_writes_identical_outputs(name, tmp_path):
    workload = workloads.make(name, seed=2, tiny=True)
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    assert workload.sweep(plain) == 0
    tracer = tracing.Tracer()
    with tracer:
        assert workload.sweep(traced) == 0
    assert tracer.absent == []
    assert {s.name for s in tracer.spans} >= {"harness.run_experiment", "problem.shard_gradient"}
    files = sorted(p.name for p in plain.iterdir())
    assert "report.csv" in files and files == sorted(p.name for p in traced.iterdir())
    _, mismatch, errors = filecmp.cmpfiles(plain, traced, files, shallow=False)
    assert mismatch == [] and errors == []


def test_wrappers_restore_the_originals():
    originals = {label: getattr(*_original(label)) for label in tracing.LABELS}
    with tracing.Tracer():
        for label, fn in originals.items():
            wrapped = getattr(*_original(label))
            assert wrapped is not fn and wrapped.__wrapped__ is fn
    for label, fn in originals.items():
        assert getattr(*_original(label)) is fn


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("comm", "no_such_protocol", None),))
    with tracing.Tracer() as tracer:
        comm.pc_sample([1.0, 2.0], 1, comm.CommLedger(), np.random.default_rng(0))
    assert tracer.absent == ["comm.no_such_protocol"]
    assert [s.name for s in tracer.spans] == ["comm.pc_sample"]


def test_self_time_excludes_children():
    parent = tracing.Span("optim.run_asd_svrg", -1)
    parent.end, parent.child_s = 1.0, 0.25
    child = tracing.Span("comm.pc_sample", 0)
    child.start, child.end, child.counts = 0.5, 0.75, {"distinct": 3}
    layers = tracing.summarize([parent, child])
    assert layers["optim.run_asd_svrg.self_s"] == pytest.approx(0.75)
    assert layers["comm.pc_sample.self_s"] == pytest.approx(0.25)
    assert layers["comm.pc_sample.us_p50"] == pytest.approx(250000.0)


def test_protocol_check_catches_an_overcharged_ledger(monkeypatch, tmp_path):
    original = comm.pc_sample

    def overcharging(weights, R, ledger, rng):
        ledger.worker_worker_scalars += 1
        return original(weights, R, ledger, rng)

    monkeypatch.setattr(comm, "pc_sample", overcharging)
    workload = workloads.make("protocol_wide", seed=1, tiny=True)
    result = workload.run_pass(tmp_path)
    assert result.failed == len(workload.shapes) * workload.calls_per_shape


def test_sweep_check_catches_a_short_trace(tmp_path):
    workload = workloads.make("scale_asd", seed=1, tiny=True)
    assert workload.sweep(tmp_path) == 0
    trace = next(tmp_path.glob("trace_asd_svrg_*.csv"))
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(lines[:-1]))
    result = workload.check(tmp_path, 0, 1.0)
    assert result.failed == 1
    assert "trace rows" in result.problems[0]


@pytest.mark.parametrize("m,r", [(8, 1), (64, 4), (100, 4), (1000, 8), (37, 5)])
def test_closed_form_schedules_match_the_ledger(m, r):
    rng = np.random.default_rng(m)
    weights = list(range(1, m + 1))
    for protocol, schedule in ((comm.pc_sample, workloads.pc_schedule),
                               (comm.optimal_comm_sample, workloads.optimal_schedule)):
        ledger = comm.CommLedger()
        protocol(weights, r, ledger, rng)
        ww, rounds = schedule(m, r)
        assert ledger.snapshot() == (ww, 0, 0, rounds)
