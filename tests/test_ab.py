"""``scripts/ab.py``: one A/A pair of the working tree against itself, and
its statistics on fixed synthetic pairs."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_a_against_itself_runs_a_pair_and_agrees(tmp_path):
    out = tmp_path / "pairs.json"
    done = subprocess.run([sys.executable, str(SCRIPT), "--base", str(ROOT), "--head", str(ROOT),
                           "--workload", "logistic_sweep", "--pairs", "1", "--json", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "digests agree: yes (1 of 1 pairs)" in lines[-1]
    assert any(line.strip().startswith("median ratio head/base:") for line in lines)
    assert any(line.strip().startswith("interval of the ratio:") for line in lines)
    assert any(line.strip().startswith("gain rule: ") for line in lines)
    assert [line.strip() for line in lines if line.startswith("  ") and line.strip().endswith(":")] == \
        ["run_s:", "peak_rss_mb:"]
    record = json.loads(out.read_text())
    assert set(record["metrics"]) == {"run_s", "peak_rss_mb"}
    (pair,) = record["pairs"]
    for metric, stats in record["metrics"].items():
        assert stats["ratio_interval"]["confidence"] == 0.0  # one pair: a point
        assert stats["gain_rule"]["needed"] == 1
        assert stats["base"]["median"] == pair["base"][metric] and stats["head"]["median"] == pair["head"][metric]
        assert stats["median_ratio"] == pair["head"][metric] / pair["base"][metric]
    assert pair["first"] == "base" and pair["seed"] == 1
    for side in ("base", "head"):
        assert pair[side]["failed"] == 0 and pair[side]["attempted"] > 0 and pair[side]["run_s"] > 0
        assert pair[side]["peak_rss_mb"] > 10  # the interpreter and numpy alone take more
    assert pair["base"]["digests"] == pair["head"]["digests"] and len(pair["base"]["digests"]) == 1


def test_a_side_that_is_neither_a_revision_nor_a_directory_is_refused(tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPT), "--base", str(tmp_path / "absent"), "--head", str(ROOT),
                           "--workload", "logistic_sweep", "--pairs", "1"], capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and "neither a source directory nor a git revision" in done.stderr


def _walsh(logs):
    return sorted((logs[i] + logs[j]) / 2 for i in range(len(logs)) for j in range(i, len(logs)))


class TestRatioInterval:
    @pytest.mark.parametrize("n, c, confidence", [
        (10, 9, 1 - 2 * 25 / 2**10),  # signed-rank critical value 8 at n = 10
        (12, 14, 1 - 2 * 87 / 2**12),  # and 13 at n = 12
        (6, 1, 1 - 2 / 2**6),  # 0 at n = 6: every Walsh average
    ])
    def test_keeps_the_cth_walsh_average_from_each_end(self, n, c, confidence):
        ratios = [0.85 + 0.013 * k * k % 0.2 for k in range(n)]
        walsh = _walsh([math.log(r) for r in ratios])
        low, high, got = ab.ratio_interval(ratios)
        assert got == confidence
        assert math.isclose(low, math.exp(walsh[c - 1]))
        assert math.isclose(high, math.exp(walsh[-c]))

    def test_too_few_pairs_span_every_walsh_average(self):
        assert ab.ratio_interval([0.9]) == (pytest.approx(0.9), pytest.approx(0.9), 0.0)
        low, high, confidence = ab.ratio_interval([0.9, 0.8, 1.1, 0.95, 0.85])
        assert (low, high, confidence) == (pytest.approx(0.8), pytest.approx(1.1), 1 - 2 / 2**5)

    def test_equal_ratios_give_a_point(self):
        low, high, _ = ab.ratio_interval([0.87] * 10)
        assert low == pytest.approx(0.87) and high == pytest.approx(0.87)


class TestGainRule:
    BASE = [0.050, 0.051, 0.052, 0.053, 0.053, 0.054, 0.054, 0.055, 0.056, 0.058]

    def test_met_when_nine_of_ten_win_by_more_than_the_iqr(self):
        head = [0.9 * b for b in self.BASE]
        head[3] = 0.060  # one pair lost
        rule = ab.gain_rule(self.BASE, head)
        assert rule["met"] and rule["won"] == 9 and rule["needed"] == 9
        assert rule["base_iqr"] == pytest.approx(0.0025)

    def test_not_met_with_eight_wins(self):
        head = [0.9 * b for b in self.BASE]
        head[3] = head[4] = 0.060
        rule = ab.gain_rule(self.BASE, head)
        assert not rule["met"] and rule["won"] == 8

    def test_not_met_when_the_gap_is_inside_the_iqr(self):
        head = [b - 0.001 for b in self.BASE]  # every pair won, by less than the IQR
        rule = ab.gain_rule(self.BASE, head)
        assert rule["won"] == 10 and not rule["met"]
        assert rule["gap"] == pytest.approx(0.001)

    def test_ties_count_for_neither_side(self):
        rule = ab.gain_rule(self.BASE, list(self.BASE))
        assert rule["won"] == 0 and not rule["met"]
