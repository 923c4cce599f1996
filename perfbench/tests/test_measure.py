"""The percentile helper never reports a percentile with fewer than ten
samples beyond it."""

import random

from perfbench import measure


def test_tail_always_has_ten_samples_beyond():
    rng = random.Random(0)
    for n in range(0, 600):
        xs = [rng.random() for _ in range(n)]
        got = measure.tail(xs)
        if n < 20:
            assert got is None
            continue
        p, v = got
        assert sum(x > v for x in xs) >= measure.MIN_BEYOND
        # and no higher ladder rung would have qualified
        higher = [q for q in measure.PERCENTILE_LADDER if q > p]
        if higher:
            assert measure.samples_beyond(n, higher[0]) < measure.MIN_BEYOND


def test_tail_with_ties_counts_positions():
    xs = [1.0] * 30
    p, v = measure.tail(xs)
    assert v == 1.0 and measure.samples_beyond(30, p) >= 10


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert measure.percentile(xs, 50) == 50
    assert measure.percentile(xs, 90) == 90
    assert measure.percentile(xs, 99.9) == 100
    assert measure.tail(xs) == (90.0, 90)


def test_spans_accumulate_time_and_counts():
    s = measure.Spans()
    for _ in range(3):
        with s("a"):
            pass
        s.count("n", 2)
    assert s.seconds["a"] >= 0 and s.counts["n"] == 6
    off = measure.Spans(enabled=False)
    with off("a"):
        pass
    assert off.seconds == {}
