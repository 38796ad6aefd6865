"""``scripts/equivalence.py --compare``, on hand-made output directories: the
verdicts that byte-identical and bits-only claims rest on."""

import importlib.util
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "equivalence.py"

TRACE = ("k,t,train_loss,test_loss,test_acc,ww_scalars,ws_scalars,sw_scalars,rounds\r\n"
         "1,1,0.5,0.25,nan,0,10,20,3\r\n"
         "1,2,0.125,0.0625,nan,0,20,40,6\r\n")
REPORT = ("algorithm,eta,seed,diverged,final_train_loss,total_scalars\r\n"
          "svrg_uniform,0.01,1,False,0.125,60\r\n")
TRACE_NAME = "sweep/trace_svrg_uniform_eta0.01_seed1.csv"


@pytest.fixture(scope="module")
def eq():
    environ = dict(os.environ)  # the script pins the BLAS threads of what it runs
    spec = importlib.util.spec_from_file_location("equivalence", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
    return module


def outputs(tmp_path, b_changes=None, b_missing=()):
    """Two output directories of the same trace and report; ``b_changes``
    maps a file of the second to its new text, ``b_missing`` drops files."""
    files = {TRACE_NAME: TRACE, "sweep/report.csv": REPORT}
    roots = tmp_path / "a", tmp_path / "b"
    for root, changes in zip(roots, ({}, b_changes or {})):
        for name, text in {**files, **changes}.items():
            if root.name == "b" and name in b_missing:
                continue
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text, newline="")
    return roots


def test_identical_files_are_byte_identical(eq, tmp_path, capsys):
    a, b = outputs(tmp_path)
    assert eq.compare_file(a / TRACE_NAME, b / TRACE_NAME) == ("byte-identical", "")
    assert eq.compare(a, b) == 0
    out = capsys.readouterr().out
    assert "2 byte-identical, 0 bits-only, 0 outcome-changed" in out
    assert "svrg_uniform: 1 byte-identical, 0 bits-only, 0 outcome-changed" in out


def test_last_digit_of_a_loss_is_bits_only(eq, tmp_path, capsys):
    a, b = outputs(tmp_path, {TRACE_NAME: TRACE.replace("1,1,0.5,", "1,1,0.5000000000000001,")})
    assert eq.compare_file(a / TRACE_NAME, b / TRACE_NAME) == ("bits-only", "train_loss 2.22e-16")
    assert eq.compare(a, b) == 0
    assert "1 byte-identical, 1 bits-only, 0 outcome-changed" in capsys.readouterr().out


@pytest.mark.parametrize("name, old, new, detail", [
    (TRACE_NAME, "0,10,20,3", "0,11,20,3", "row 1: ws_scalars '10' against '11'"),
    ("sweep/report.csv", ",False,", ",True,", "row 1: diverged 'False' against 'True'"),
])
def test_a_changed_ledger_or_flag_is_an_outcome(eq, tmp_path, name, old, new, detail):
    text = {TRACE_NAME: TRACE, "sweep/report.csv": REPORT}[name]
    a, b = outputs(tmp_path, {name: text.replace(old, new)})
    assert eq.compare_file(a / name, b / name) == ("outcome-changed", detail)
    assert eq.compare(a, b) == 1


def test_a_file_in_one_output_only_is_an_outcome(eq, tmp_path, capsys):
    a, b = outputs(tmp_path, b_missing={"sweep/report.csv"})
    assert eq.compare(a, b) == 1
    out = capsys.readouterr().out
    assert f"outcome-changed sweep/report.csv  only in {a}" in out
    assert eq.compare(b, a) == 1  # either side


def test_exit_status_is_one_exactly_when_an_outcome_changed(eq, tmp_path):
    bits = TRACE.replace("0.0625", "0.06250000000000001")
    a, b = outputs(tmp_path / "bits", {TRACE_NAME: bits})
    assert eq.main(["--compare", str(a), str(b)]) == 0
    a, b = outputs(tmp_path / "ledger", {TRACE_NAME: bits.replace(",40,6", ",41,6")})
    assert eq.main(["--compare", str(a), str(b)]) == 1
