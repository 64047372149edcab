"""The bulk float formatter against its oracle, ``repr`` of each value.

``serialize_trace`` must write exactly the text of one
``json.dumps(record, separators=(",", ":"))`` per row, which formats
floats with ``float.__repr__``; ``float_rows`` must equal
``",".join(map(repr, row))`` for every row.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradeoffs import Trace, _floatrepr, serialize_trace
from tradeoffs._floatrepr import float_rows


def _oracle_rows(matrix):
    return [",".join(map(repr, row)) for row in matrix.tolist()]


def _oracle_text(trace):
    records = [{"dim": trace.dimension}] + [
        {"ts": ts, "id": rid, "res": res, "emb": emb}
        for ts, rid, res, emb in zip(trace.timestamps.tolist(), trace.request_ids,
                                     trace.resolutions, trace.embeddings.tolist())
    ]
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)


def _unit_rows(values):
    """A trace whose rows are (v, sqrt(1 - v^2)): unit norm within an ulp,
    so the trace keeps v bit for bit."""
    v = np.asarray(values, dtype=np.float64)
    rows = np.stack([v, np.sqrt(1.0 - v * v)], axis=1)
    trace = Trace(np.arange(len(v)), [f"r{i}" for i in range(len(v))], ["720p"] * len(v), rows)
    assert np.array_equal(trace.embeddings, rows)
    return trace


# ---------------------------------------------------------------------------
# values chosen to reach every branch
# ---------------------------------------------------------------------------


def _neighbours(x, steps=3):
    out = [x]
    for direction in (0.0, math.inf):
        y = x
        for _ in range(steps):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


def _shortest_lengths(rng, per_length=40):
    """Values in [1e-4, 1) whose shortest forms have 1 to 17 digits."""
    values = []
    for digits in range(1, 18):
        for _ in range(per_length):
            n = int(rng.integers(10 ** (digits - 1), 10**digits))
            n += n % 10 == 0  # no trailing zero
            values.append(float(f"0.{'0' * int(rng.integers(0, 4))}{n}"))
    return values


def _ties(rng):
    """Values where repr's rounding rule decides: y = |x| * 10**k is a
    half-integer (17 digits), or an integer ending in 5 with both nearest
    multiples of 10 reading back as x (16 digits)."""
    values = []
    for k, decade in zip((17, 18, 19, 20), (1e-1, 1e-2, 1e-3, 1e-4)):
        # x = c / 2**(k + 1) for odd c makes y = c * 5**k / 2.
        for c in rng.integers(int(decade * 2 ** (k + 1)), int(decade * 10 * 2 ** (k + 1)), 50):
            values.append(float(int(c) | 1) / 2 ** (k + 1))
    # Just above 2**-4, half the gap between neighbours is about 6.9 in
    # units of the 17th digit; (2**14 + j) / 2**18 for odd j makes y an
    # odd multiple of 5**18.
    values += [(2**14 + j) / 2**18 for j in range(1, 200, 2)]
    return values


def _edge_values():
    values = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.1, 0.25, 1 / 3, 2 / 3, 0.5,
              2.2250738585072014e-308, 2.225073858507201e-308, 1e-310, 123e-320]
    values += _neighbours(1e-4, 5) + _neighbours(1e-5, 5) + _neighbours(1.0, 5)
    for e in range(-1074, 1024):
        values += _neighbours(2.0**e, 1)
    for e in range(-323, 309):
        values += _neighbours(float(f"1e{e}"), 2)
    return values


def test_decade_thresholds_are_exact():
    # The formatter finds floor(log10 |x|) by comparing with the doubles
    # of 1e-1 .. 1e-4; that is exact because each lies above its power.
    for e in (1, 2, 3, 4):
        below = float(np.nextafter(10.0**-e, 0.0))
        assert Fraction(below) < Fraction(1, 10**e) <= Fraction(float(f"1e-{e}"))


def test_edge_values_format_like_repr():
    rng = np.random.default_rng(5)
    values = _edge_values() + _shortest_lengths(rng) + _ties(rng)
    values += [-v for v in values] + [math.nan, math.inf, -math.inf]
    lengths = {len(repr(v).lstrip("-0.").replace(".", "")) for v in _shortest_lengths(rng)}
    assert lengths == set(range(1, 18))
    matrix = np.array(values).reshape(-1, 1)
    assert list(float_rows(matrix)) == _oracle_rows(matrix)
    for width in (7, 64):  # the same values in rows of several widths
        cut = np.array(values[: len(values) // width * width]).reshape(-1, width)
        assert list(float_rows(cut)) == _oracle_rows(cut)


def test_edge_values_in_a_trace_serialize_like_json_dumps():
    rng = np.random.default_rng(6)
    values = [v for v in _edge_values() + _shortest_lengths(rng) + _ties(rng) if abs(v) <= 1]
    trace = _unit_rows(values + [-v for v in values])
    assert serialize_trace(trace) == _oracle_text(trace)


def test_ties_reach_the_fallback():
    values = np.array(_ties(np.random.default_rng(7)))
    _, fallback = _floatrepr._words(values)
    assert 0 < fallback.size < values.size


def test_powers_of_two_in_range_need_no_fallback():
    # Their lower neighbour is nearer than the upper one, but each is
    # written exactly, in at most 10 significant digits.
    values = np.array([2.0**-e for e in range(1, 14)])
    words, fallback = _floatrepr._words(values)
    assert fallback.size == 0
    assert list(float_rows(values.reshape(-1, 1))) == _oracle_rows(values.reshape(-1, 1))
    assert max(len(repr(v)[2:].lstrip("0")) for v in values.tolist()) == 10


def test_record_heads_serialize_like_json_dumps():
    trace = Trace(
        [5, -3, 2**62, 0, 7],
        ["é✓", "a,b", 'say "hi"\\', "nul\u0000end\n", "\ud800 lone surrogate"],
        ["2k", "720p", "1080p", "720p", "2k"],
        [[-0.0, 1.0], [0.6, 0.8], [1.0, -0.0], [0.28, 0.96], [0.0, -1.0]],
    )
    assert serialize_trace(trace) == _oracle_text(trace)


# 1.06 million components in all; the JSON oracle costs per row.
@pytest.mark.parametrize("dim, n", [(1, 50_000), (3, 50_000), (32, 9_000), (64, 4_500),
                                    (768, 370)])
def test_unit_vectors_serialize_like_json_dumps(dim, n):
    rng = np.random.default_rng(dim)
    emb = rng.standard_normal((n, dim))
    emb /= np.linalg.norm(emb, axis=1)[:, None]
    trace = Trace(np.arange(n), [f"r{i}" for i in range(n)], ["720p"] * n, emb)
    assert serialize_trace(trace) == _oracle_text(trace)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40))
def test_floats_in_the_unit_interval_format_like_repr(values):
    matrix = np.array(values).reshape(1, -1)
    assert list(float_rows(matrix)) == _oracle_rows(matrix)
    trace = _unit_rows(values)
    assert serialize_trace(trace) == _oracle_text(trace)
