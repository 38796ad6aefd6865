"""``scripts/ab.py``: one A/A pair of the working tree against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab.py"


def test_a_against_itself_runs_a_pair_and_agrees(tmp_path):
    out = tmp_path / "pairs.json"
    done = subprocess.run([sys.executable, str(SCRIPT), "--base", str(ROOT), "--head", str(ROOT),
                           "--workload", "logistic_sweep", "--pairs", "1", "--json", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "digests agree: yes (1 of 1 pairs)" in lines[-1]
    assert any(line.strip().startswith("median ratio head/base:") for line in lines)
    record = json.loads(out.read_text())
    (pair,) = record["pairs"]
    assert pair["first"] == "base" and pair["seed"] == 1
    for side in ("base", "head"):
        assert pair[side]["failed"] == 0 and pair[side]["attempted"] > 0 and pair[side]["run_s"] > 0
    assert pair["base"]["digests"] == pair["head"]["digests"] and len(pair["base"]["digests"]) == 1


def test_a_side_that_is_neither_a_revision_nor_a_directory_is_refused(tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPT), "--base", str(tmp_path / "absent"), "--head", str(ROOT),
                           "--workload", "logistic_sweep", "--pairs", "1"], capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and "neither a source directory nor a git revision" in done.stderr
