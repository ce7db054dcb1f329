"""The summary and the correctness gate of scripts/ab_pairs.py, on made-up
metric values (no benchmark run)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = [{"name": "wall_s", "better": "lower"},
           {"name": "rate", "better": "higher"}]


def _runs(wall, rate):
    return [{"wall_s": w, "rate": r} for w, r in zip(wall, rate)]


def test_summary_counts_wins_and_applies_the_gain_rule():
    parent = _runs([10, 11, 12, 13, 14, 10, 11, 12, 13, 14], [5] * 10)
    # 9 of 10 pairs lower, median 7 against the parent's 12 and IQR 2
    change = _runs([7, 7, 7, 7, 7, 7, 7, 7, 7, 15], [5] * 9 + [6])
    wall, rate = ab_pairs.summarize(parent, change, METRICS)
    assert wall["name"] == "wall_s"
    assert wall["parent"] == [11, 12, 13]
    assert wall["change"][1] == 7
    assert (wall["wins"], wall["pairs"]) == (9, 10)
    assert wall["gain"]
    # higher is better: one win of ten, and no median gap
    assert (rate["wins"], rate["gain"]) == (1, False)


def test_gain_needs_both_the_wins_and_the_median_gap():
    parent = _runs([10, 11, 12, 13, 14, 10, 11, 12, 13, 14], [5] * 10)
    # 8 of 10 wins with a wide gap: too few wins
    change = _runs([7] * 8 + [15, 15], [5] * 10)
    assert not ab_pairs.summarize(parent, change, METRICS)[0]["gain"]
    # 10 of 10 wins by a median gap of 1, within the parent's IQR of 2
    change = _runs([w - 1 for w in [10, 11, 12, 13, 14, 10, 11, 12, 13, 14]],
                   [5] * 10)
    row = ab_pairs.summarize(parent, change, METRICS)[0]
    assert row["wins"] == 10 and not row["gain"]


def test_a_run_that_is_not_correct_fails_the_comparison(tmp_path,
                                                        monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "end_to_end": []}')
    docs = iter([{"correct": True, "metrics": {}},
                 {"correct": False, "metrics": {}}])
    monkeypatch.setattr(ab_pairs, "run_once", lambda *args: next(docs))
    assert ab_pairs.main(["--parent", str(tmp_path), "--change",
                          str(tmp_path), "--workload", "chains",
                          "--seed", "1", "--pairs", "1"]) == 1
    assert "the change run is not correct" in capsys.readouterr().err
