"""Median/sample-count reporting and failure accounting."""

import statistics

import pytest

from stats import Tally, run_problems, summarize


def test_summary_reports_median_count_and_quartile_spread():
    values = [1.0, 2.0, 3.0, 4.0, 10.0]
    s = summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert s.median == 3.0 and s.count == 5
    assert s.spread == pytest.approx((q3 - q1) / 3.0)


def test_summary_of_few_samples_has_no_spread():
    assert summarize([2.0, 4.0]).median == 3.0
    assert summarize([2.0, 4.0]).spread == 0.0
    with pytest.raises(ValueError):
        summarize([])


def test_tally_counts_every_attempt_and_each_failure_once():
    tally = Tally()
    tally.record([])
    tally.record(["missed its loss target", "non-finite final loss nan"])
    tally.record([])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "missed its loss target" in tally.failures[0]


@pytest.mark.parametrize(
    "loss, reached, digest, expected",
    [
        (float("nan"), True, "a", ["non-finite"]),
        (float("inf"), True, "a", ["non-finite"]),
        (1.0, False, "a", ["missed"]),
        (1.0, True, "b", ["digest"]),
        (1.0, True, "a", []),
    ],
)
def test_run_problems(loss, reached, digest, expected):
    problems = run_problems(
        final_loss=loss, reached_target=reached, digest=digest, expected_digest="a"
    )
    assert len(problems) == len(expected)
    for problem, word in zip(problems, expected):
        assert word in problem
