"""RunTrace's packed rows: the tuples, slices, repr and equality they had as
a list of tuples, at 64 bytes a row."""

import math
import tracemalloc

import pytest

from pgzo.trace import RunTrace, TraceRows

NAN = math.nan
ROWS = [(0, 0, 0, 2.5, 0.0, NAN, NAN, NAN),
        (1, 11, 12, 1e-300, -math.inf, 0.25, -0.5, 1 / 3),
        (2, 22, 24, -0.0, NAN, NAN, NAN, NAN)]


def test_rows_read_back_as_the_tuples_appended():
    rows = TraceRows(ROWS)
    assert len(rows) == 3
    assert repr(rows) == repr(list(rows)) == repr(ROWS)
    assert repr(rows[1]) == "(1, 11, 12, 1e-300, -inf, 0.25, -0.5, 0.3333333333333333)"
    assert [type(v) for v in rows[-1][:4]] == [int, int, int, float]
    assert repr(rows[1:]) == repr(ROWS[1:]) and repr(rows[::-2]) == repr(ROWS[::-2])
    assert isinstance(rows[:2], list)
    with pytest.raises(IndexError):
        rows[3]


def test_run_trace_takes_a_list_of_rows():
    built = RunTrace(seed=3, rows=ROWS)
    assert isinstance(built.rows, TraceRows) and repr(built.rows) == repr(ROWS)
    appended = RunTrace(seed=3)
    for row in ROWS:
        appended.rows.append(row)
    assert appended == built


def test_equality_compares_the_float64_bits():
    assert TraceRows(ROWS) == TraceRows([tuple(r) for r in ROWS])  # fresh NaNs on each side
    zero = TraceRows([(0, 0, 0, 0.0, NAN, NAN, NAN, NAN)])
    negative_zero = TraceRows([(0, 0, 0, -0.0, NAN, NAN, NAN, NAN)])
    assert zero != negative_zero
    assert TraceRows(ROWS) != TraceRows(ROWS[:2])


@pytest.mark.parametrize("row", [ROWS[0][:7], ROWS[0] + (1.0,), (0, 0, 0, None, 1, 2, 3, 4),
                                 (0, NAN, 0, 1, 2, 3, 4, 5), (0, 0, -math.inf, 1, 2, 3, 4, 5)])
def test_append_takes_one_full_row_of_numbers_with_finite_counts(row):
    rows = TraceRows(ROWS[:1])
    with pytest.raises(ValueError):
        rows.append(row)
    assert repr(rows) == repr(ROWS[:1])


def test_append_after_reading_a_column():
    tr = RunTrace(seed=0, f0=2.0, f_star=0.0)
    tr.append(0, 0, 0, 2.0)
    assert tr.column("dd_queries").tolist() == [0.0] and len(list(tr.rows)) == 1
    tr.append(1, 11, 12, 1.0, 0.5, 0.25, 0.1)
    assert tr.column("log10_rel_err").tolist() == [0.0, math.log10(0.5)]
    assert repr(tr.rows) == repr([(0, 0, 0, 2.0, 0.0, NAN, NAN, NAN),
                                  (1, 11, 12, 1.0, math.log10(0.5), 0.5, 0.25, 0.1)])


def test_a_row_costs_under_100_bytes():
    tracemalloc.start()
    try:
        tr = RunTrace(seed=0, f0=1.0, f_star=0.0)
        before = tracemalloc.get_traced_memory()[0]
        for t in range(10_000):
            tr.append(t, 11 * t, 12 * t, 1.0 / (t + 1), 0.5 + t, 0.25 * t, 1.0 / (t + 2))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tr.rows) == 10_000 and grown / 10_000 < 100
