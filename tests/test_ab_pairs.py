"""The summary and the correctness gate of scripts/ab_pairs.py, on made-up
metric values (no benchmark run)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "rate", "better": "higher", "bound": 0.25}]

#: ten parent runs with median 12 and interquartile range 2, within the
#: bound 0.25 × 12 = 3
STEADY = [10, 11, 12, 13, 14, 10, 11, 12, 13, 14]
#: ten parent runs with median 12 and interquartile range 8, past it
NOISY = [6, 8, 12, 16, 18, 6, 8, 12, 16, 18]


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


def _verdicts(parent_wall, change_wall, parent_rate=None, change_rate=None):
    rows = ab_pairs.summarize(
        _runs(parent_wall, parent_rate or [12] * len(parent_wall)),
        _runs(change_wall, change_rate or [12] * len(change_wall)), METRICS)
    return [row["verdict"] for row in rows]


def test_a_median_worse_by_at_most_the_bound_is_within_bound():
    # 15 against 12 is worse by 3 = 0.25 × 12, and so is 9 against 12
    # for a higher-is-better metric
    assert _verdicts(STEADY, [15] * 10, STEADY, [9] * 10) \
        == ["within bound"] * 2


def test_a_median_worse_by_more_than_the_bound_is_worse_than_bound():
    assert _verdicts(STEADY, [16] * 10, STEADY, [8] * 10) \
        == ["worse than bound"] * 2
    # however noisy the parent
    assert _verdicts(NOISY, [16] * 10)[0] == "worse than bound"


def test_a_parent_spread_past_the_bound_is_unresolved():
    # a change median equal to the parent's tells nothing when the
    # parent's own runs spread by more than the bound
    assert _verdicts(NOISY, NOISY, NOISY, NOISY) == ["unresolved"] * 2


def test_every_change_run_better_than_every_parent_run_is_resolved():
    assert _verdicts(NOISY, [5] * 10, NOISY, [19] * 10) \
        == ["within bound"] * 2
    # one change run that ties the best parent run leaves it unresolved
    assert _verdicts(NOISY, [5] * 9 + [6])[0] == "unresolved"


def test_a_metric_worse_than_bound_fails_the_comparison(tmp_path,
                                                        monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "end_to_end": '
        '[{"name": "wall_s", "better": "lower", "bound": 0.25}]}')
    # pair 1 runs the parent first, pair 2 the change first
    walls = iter([1.0, 2.0, 2.0, 1.0])
    monkeypatch.setattr(ab_pairs, "run_once", lambda *args: {
        "correct": True, "metrics": {"wall_s": {"value": next(walls)}}})
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path),
            "--workload", "chains", "--seed", "1", "--pairs", "2"]
    assert ab_pairs.main(argv) == 1
    assert "worse than bound" in capsys.readouterr().out
    walls = iter([1.0, 1.1, 1.1, 1.0])
    assert ab_pairs.main(argv) == 0
    assert "within bound" in capsys.readouterr().out
