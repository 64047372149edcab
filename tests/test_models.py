import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tradeoffs.models as models
from tradeoffs import (
    CacheCostParams,
    DegeneratePoints,
    DeficitParams,
    EmpiricalHitRate,
    ExponentialSaturation,
    Infeasible,
    NegativeCapacity,
    NonDifferentiableModel,
    PowerLaw,
    RateComputeSample,
    comm_cost,
    expected_compute,
    fit_hit_rate,
    frontier_min_bandwidth,
    marginal_benefit,
    memory_deficit,
)

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


# ---------------------------------------------------------------------------
# memory deficit and communication cost
# ---------------------------------------------------------------------------


def test_deficit_values():
    assert memory_deficit(DeficitParams(400, 2, 100)) == 200.0
    assert memory_deficit(DeficitParams(100, 4, 100)) == 0.0
    assert memory_deficit(DeficitParams(1000, 3, 128)) == 616.0


def test_comm_cost_values():
    p = DeficitParams(400, 2, 100, deficit_bandwidth_factor=0.5)
    assert comm_cost(p) == 100.0
    p = DeficitParams(400, 2, 100, allreduce_factor=2, state_volume_gb=10,
                      deficit_bandwidth_factor=0.0)
    assert comm_cost(p) == 20.0
    p = DeficitParams(400, 2, 100, allreduce_factor=2, state_volume_gb=10,
                      deficit_bandwidth_factor=0.5)
    assert comm_cost(p) == 120.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_parameters_must_be_finite(bad):
    records = [
        lambda v: DeficitParams(v, 2, 100),
        lambda v: DeficitParams(400, 2, v),
        lambda v: DeficitParams(400, 2, 100, allreduce_factor=v),
        lambda v: DeficitParams(400, 2, 100, state_volume_gb=v),
        lambda v: DeficitParams(400, 2, 100, deficit_bandwidth_factor=v),
        lambda v: CacheCostParams(v, 1e9, 20, 0.08),
        lambda v: CacheCostParams(50, v, 20, 0.08),
        lambda v: CacheCostParams(50, 1e9, v, 0.08),
        lambda v: CacheCostParams(50, 1e9, 20, v),
        lambda v: ExponentialSaturation(v, 0.08),
        lambda v: ExponentialSaturation(0.5, v),
        lambda v: PowerLaw(v, 0.5),
        lambda v: PowerLaw(1.0, v),
        lambda v: RateComputeSample(v, 1e9, 0.9),
        lambda v: RateComputeSample(0.1, v, 0.9),
        lambda v: RateComputeSample(0.1, 1e9, v),
    ]
    for make in records:
        with pytest.raises(ValueError, match="finite"):
            make(bad)


@pytest.mark.parametrize("capacity", [math.nan, math.inf])
def test_non_finite_capacity_is_rejected(capacity):
    cost = CacheCostParams(50, 1e9, 20, 0.08)
    for model in (ExponentialSaturation(0.5, 0.08), PowerLaw(1.0, 0.5),
                  EmpiricalHitRate(((0.0, 0.5),))):
        with pytest.raises(ValueError, match="capacity must be finite"):
            expected_compute(cost, model, capacity)
    with pytest.raises(ValueError, match="capacity must be finite"):
        marginal_benefit(cost, PowerLaw(1.0, 0.5), capacity)


def test_deficit_validation():
    with pytest.raises(ValueError):
        DeficitParams(-1, 2, 100)
    with pytest.raises(ValueError):
        DeficitParams(400, 0, 100)
    with pytest.raises(ValueError):
        DeficitParams(400, 2, 100, deficit_bandwidth_factor=-0.1)


@given(total=finite, n=st.integers(1, 1000), avail=finite)
def test_deficit_nonnegative_and_clamped(total, n, avail):
    d = memory_deficit(DeficitParams(total, n, avail))
    assert d >= 0.0
    if n * avail >= total:
        assert d == 0.0


@given(total=finite, avail=finite, k1=finite, k2=finite,
       t=finite, state=finite)
def test_comm_cost_monotone_in_k(total, avail, k1, k2, t, state):
    lo, hi = sorted((k1, k2))
    c_lo = comm_cost(DeficitParams(total, 2, avail, t, state, lo))
    c_hi = comm_cost(DeficitParams(total, 2, avail, t, state, hi))
    assert c_hi >= c_lo


@given(state=finite, t=st.floats(0.0, 100.0, allow_nan=False))
def test_comm_cost_linear_in_state(state, t):
    base = comm_cost(DeficitParams(400, 2, 100, t, 0.0, 0.0))
    shifted = comm_cost(DeficitParams(400, 2, 100, t, state, 0.0))
    assert math.isclose(shifted - base, t * state, rel_tol=1e-12, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------

FRONTIER_SAMPLES = [
    RateComputeSample(0.15, 1e9, 0.9),
    RateComputeSample(0.075, 1.4e10, 0.9),
    RateComputeSample(0.0375, 1e11, 0.9),
]


def test_frontier_budget_ladder():
    for budget, expect in [(1e9, 0.15), (1.4e10, 0.075), (1e11, 0.0375)]:
        r = frontier_min_bandwidth(FRONTIER_SAMPLES, 0.9, budget)
        assert r.bandwidth_bpp == expect


def test_frontier_infeasible():
    with pytest.raises(Infeasible):
        frontier_min_bandwidth(FRONTIER_SAMPLES, 0.9, 1e8)
    with pytest.raises(Infeasible):
        frontier_min_bandwidth(FRONTIER_SAMPLES, 0.95, 1e11)


def test_frontier_tie_prefers_lower_compute():
    samples = [
        RateComputeSample(0.1, 5e9, 1.0),
        RateComputeSample(0.1, 1e9, 1.0),
    ]
    r = frontier_min_bandwidth(samples, 0.5, 1e10)
    assert r.sample_index == 1


@pytest.mark.parametrize("quality, budget, message", [
    (math.nan, 1e10, "quality target must be finite"),
    (math.inf, 1e10, "quality target must be finite"),
    (-math.inf, 1e10, "quality target must be finite"),
    (0.9, math.nan, "compute budget must be nonnegative and finite"),
    (0.9, math.inf, "compute budget must be nonnegative and finite"),
    (0.9, -1.0, "compute budget must be nonnegative and finite"),
])
def test_frontier_rejects_non_finite_targets(quality, budget, message):
    # Every comparison with NaN is false, so a NaN target or budget would
    # let every sample through.
    with pytest.raises(ValueError, match=message):
        frontier_min_bandwidth(FRONTIER_SAMPLES, quality, budget)


def test_expected_compute_rejects_an_entry_count_beyond_float_range():
    cost = CacheCostParams(50, 1e9, 20, 0.08)
    with pytest.raises(ValueError, match="beyond float range"):
        expected_compute(cost, EmpiricalHitRate(((0.0, 0.6),)), 1e308)


@pytest.mark.parametrize("entry_size, message", [
    (0.0, "positive and finite"), (-0.08, "positive and finite"),
    (math.inf, "positive and finite"), (math.nan, "positive and finite"),
    (5e-324, "out of range"), (1e308, "out of range"),
])
def test_exponential_fit_rejects_entry_sizes_that_leave_no_finite_beta(entry_size, message):
    points = [(0.32, 0.1), (0.64, 0.2), (1.28, 0.35)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            fit_hit_rate(points, ExponentialSaturation, entry_size_gb=entry_size)


def test_frontier_empty_samples():
    with pytest.raises(ValueError):
        frontier_min_bandwidth([], 0.5, 1e9)


sample_lists = st.lists(
    st.builds(
        RateComputeSample,
        st.floats(0.0, 10.0, allow_nan=False),
        st.floats(0.0, 1e12, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=20,
)


@given(samples=sample_lists, q=st.floats(0.0, 1.0, allow_nan=False),
       b1=st.floats(0.0, 1e12, allow_nan=False),
       b2=st.floats(0.0, 1e12, allow_nan=False))
def test_frontier_monotone_in_budget(samples, q, b1, b2):
    lo, hi = sorted((b1, b2))
    try:
        r_lo = frontier_min_bandwidth(samples, q, lo)
    except Infeasible:
        return
    r_hi = frontier_min_bandwidth(samples, q, hi)
    assert r_hi.bandwidth_bpp <= r_lo.bandwidth_bpp


@given(samples=sample_lists, b=st.floats(0.0, 1e12, allow_nan=False),
       q1=st.floats(0.0, 1.0, allow_nan=False),
       q2=st.floats(0.0, 1.0, allow_nan=False))
def test_frontier_monotone_in_quality(samples, b, q1, q2):
    lo, hi = sorted((q1, q2))
    try:
        r_hi = frontier_min_bandwidth(samples, hi, b)
    except Infeasible:
        return
    r_lo = frontier_min_bandwidth(samples, lo, b)
    assert r_lo.bandwidth_bpp <= r_hi.bandwidth_bpp


# ---------------------------------------------------------------------------
# hit-rate models
# ---------------------------------------------------------------------------


def test_hit_rate_closed_forms():
    exp = ExponentialSaturation(beta=0.5, entry_size_gb=2.0)
    assert exp.hit_rate(0.0) == 0.0
    assert math.isclose(exp.hit_rate(4.0), 1.0 - math.exp(-1.0), rel_tol=1e-15)
    power = PowerLaw(kappa=1.0, gamma=1.0)
    assert power.hit_rate(0.0) == 0.0
    assert math.isclose(power.hit_rate(9.0), 0.9, rel_tol=1e-15)


def test_hit_rate_bounded_and_increasing():
    grid = np.linspace(0.0, 100.0, 100)
    for model in (ExponentialSaturation(0.5, 2.0), PowerLaw(0.3, 1.2)):
        values = [model.hit_rate(m) for m in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))


def test_hit_rate_negative_capacity():
    for model in (ExponentialSaturation(0.5, 2.0), PowerLaw(1.0, 1.0),
                  EmpiricalHitRate(((1.0, 0.5),))):
        with pytest.raises(NegativeCapacity):
            model.hit_rate(-1.0)


def test_empirical_interpolation_and_clamping():
    model = EmpiricalHitRate(((1.0, 0.2), (3.0, 0.6)))
    assert model.hit_rate(2.0) == pytest.approx(0.4)
    assert model.hit_rate(0.0) == 0.2  # clamped below
    assert model.hit_rate(10.0) == 0.6  # clamped above


def test_empirical_validation():
    with pytest.raises(ValueError):
        EmpiricalHitRate(())
    with pytest.raises(ValueError):
        EmpiricalHitRate(((2.0, 0.1), (1.0, 0.2)))
    with pytest.raises(ValueError):
        EmpiricalHitRate(((1.0, 1.5),))


def test_model_param_validation():
    with pytest.raises(ValueError):
        ExponentialSaturation(0.0, 2.0)
    with pytest.raises(ValueError):
        ExponentialSaturation(0.5, 0.0)
    with pytest.raises(ValueError):
        PowerLaw(-1.0, 1.0)
    with pytest.raises(ValueError):
        PowerLaw(1.0, 0.0)


# ---------------------------------------------------------------------------
# expected compute
# ---------------------------------------------------------------------------

COST = CacheCostParams(total_steps=50, step_cost_flops=1e9, reuse_depth=20,
                       entry_size_gb=2.0)


def test_expected_compute_worked_example():
    econ = expected_compute(COST, EmpiricalHitRate(((0.0, 0.6),)), 10.0)
    assert econ.expected_saved_flops == 1.2e10
    assert econ.expected_cost_flops == 3.8e10
    assert econ.entry_count == 5
    assert econ.saved_flops_per_gb == 1.2e9


def test_expected_compute_edges():
    econ = expected_compute(COST, ExponentialSaturation(0.5, 2.0), 0.0)
    assert econ.expected_cost_flops == COST.full_cost_flops
    assert econ.saved_flops_per_gb == 0.0
    full_reuse = CacheCostParams(50, 1e9, 50, 2.0)
    econ = expected_compute(full_reuse, EmpiricalHitRate(((0.0, 1.0),)), 5.0)
    assert econ.expected_cost_flops == 0.0


def test_expected_compute_negative_capacity():
    with pytest.raises(NegativeCapacity):
        expected_compute(COST, PowerLaw(1.0, 1.0), -2.0)


@given(beta=st.floats(0.01, 10.0, allow_nan=False),
       se=st.floats(0.01, 10.0, allow_nan=False),
       m1=st.floats(0.0, 1000.0, allow_nan=False),
       m2=st.floats(0.0, 1000.0, allow_nan=False))
def test_expected_compute_range_and_monotone(beta, se, m1, m2):
    model = ExponentialSaturation(beta, se)
    lo_cap, hi_cap = sorted((m1, m2))
    lo = expected_compute(COST, model, lo_cap).expected_cost_flops
    hi = expected_compute(COST, model, hi_cap).expected_cost_flops
    bottom = COST.full_cost_flops - COST.reuse_savings_flops
    assert bottom - 1e-6 <= hi <= COST.full_cost_flops + 1e-6
    assert hi <= lo + 1e-6  # more cache never costs more


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CacheCostParams(0, 1e9, 0, 1.0)
    with pytest.raises(ValueError):
        CacheCostParams(50, 1e9, 51, 1.0)
    with pytest.raises(ValueError):
        CacheCostParams(50, 1e9, 20, 0.0)


# ---------------------------------------------------------------------------
# marginal benefit
# ---------------------------------------------------------------------------


def test_marginal_at_zero_exact():
    model = ExponentialSaturation(0.5, 2.0)
    assert marginal_benefit(COST, model, 0.0) == (0.5 / 2.0) * 20 * 1e9


def test_marginal_decays():
    model = ExponentialSaturation(0.5, 2.0)
    at0 = marginal_benefit(COST, model, 0.0)
    far = marginal_benefit(COST, model, 1000.0 * 2.0 / 0.5)
    assert far < 1e-6 * at0


def test_marginal_empirical_rejected():
    with pytest.raises(NonDifferentiableModel):
        marginal_benefit(COST, EmpiricalHitRate(((0.0, 0.5),)), 1.0)


def random_fd_case(rng):
    """One well-conditioned (cost, model, capacity) triple.

    The FD step is pinned at 1e-4 * entry_size, so draws keep the
    model's own length scale (s_e/beta or 1/kappa) within a couple of
    decades of entry_size and the exponent argument moderate; otherwise
    truncation or cancellation would swamp the 1e-6 tolerance.
    """
    se = float(rng.uniform(0.5, 5.0))
    cost = CacheCostParams(50, float(rng.uniform(1e8, 1e10)),
                           int(rng.integers(1, 51)), se)
    if rng.random() < 0.5:
        beta = float(rng.uniform(0.1, 5.0))
        model = ExponentialSaturation(beta, se)
        m = float(rng.uniform(0.0, 6.0)) * se / beta
    else:
        kappa = float(rng.uniform(0.2, 2.0)) / se
        model = PowerLaw(kappa, float(rng.uniform(0.3, 3.0)))
        m = float(rng.uniform(0.0, 5.0)) / kappa
    h = 1e-4 * se
    return cost, model, max(m, h)  # keep the central stencil in-domain


def test_marginal_matches_finite_difference():
    rng = np.random.default_rng(5)
    for _ in range(10):
        cost, model, m = random_fd_case(rng)
        h = 1e-4 * cost.entry_size_gb
        fd = (expected_compute(cost, model, m - h).expected_cost_flops
              - expected_compute(cost, model, m + h).expected_cost_flops) / (2 * h)
        assert marginal_benefit(cost, model, m) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_exponential_recovery():
    true = ExponentialSaturation(beta=0.5, entry_size_gb=2.0)
    pts = [(m, true.hit_rate(m)) for m in (1.0, 2.0, 4.0, 8.0, 16.0)]
    r = fit_hit_rate(pts, ExponentialSaturation, entry_size_gb=2.0)
    assert abs(r.model.beta - 0.5) / 0.5 < 0.01
    assert r.residual <= 1e-9


def test_fit_power_recovery():
    true = PowerLaw(kappa=0.1, gamma=0.8)
    caps = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    pts = [(m, true.hit_rate(m)) for m in caps]
    r = fit_hit_rate(pts, PowerLaw)
    assert abs(r.model.kappa - 0.1) / 0.1 < 0.02
    assert abs(r.model.gamma - 0.8) / 0.8 < 0.02
    assert r.residual <= 1e-6


def test_fit_degenerate_points():
    with pytest.raises(DegeneratePoints):
        fit_hit_rate([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], ExponentialSaturation)
    with pytest.raises(DegeneratePoints):
        fit_hit_rate([(1.0, 0.5), (2.0, 1.0), (3.0, 0.9)], PowerLaw)


@pytest.mark.parametrize("points", [
    [(0.16, 0.5), (0.24, 0.5), (2.08, 0.5)],
    [(0.04, 0.25), (0.4, 0.25), (4.0, 0.25), (40.0, 0.25)],
])
def test_power_fit_that_leaves_float_range_is_degenerate_quietly(points):
    # A flat curve: ever larger kappa fits it better, until kappa * M overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneratePoints, match="best kappa leaves float range"):
            fit_hit_rate(points, PowerLaw)
        fit_hit_rate(points, ExponentialSaturation)


@pytest.mark.parametrize("family", [ExponentialSaturation, PowerLaw])
@pytest.mark.parametrize("size", [0.0, -1.0, math.nan, math.inf])
def test_fit_entry_size_must_be_positive_and_finite_for_every_family(family, size):
    with pytest.raises(ValueError, match="entry_size_gb must be positive and finite"):
        fit_hit_rate([(1.0, 0.3), (2.0, 0.5), (4.0, 0.7)], family, entry_size_gb=size)


def test_fit_input_validation():
    with pytest.raises(DegeneratePoints):
        fit_hit_rate([(1.0, 0.5), (2.0, 0.6)], ExponentialSaturation)
    with pytest.raises(DegeneratePoints):
        fit_hit_rate([(1.0, 0.5), (1.0, 0.6), (2.0, 0.7)], PowerLaw)
    with pytest.raises(DegeneratePoints):
        fit_hit_rate([(0.0, 0.1), (1.0, 0.5), (2.0, 0.7)], PowerLaw)
    with pytest.raises(ValueError):
        fit_hit_rate([(1.0, 0.5), (2.0, 0.6), (3.0, 0.7)], EmpiricalHitRate)


@pytest.mark.parametrize("family", [ExponentialSaturation, PowerLaw])
@pytest.mark.parametrize("points", [
    [(1.0, 0.3), (math.nan, 0.5), (4.0, 0.7)],
    [(1.0, 0.3), (2.0, 0.5), (math.inf, 0.7)],
    [(1.0, 0.3), (math.nan, 0.5), (math.nan, 0.7)],
    [(1.0, 0.3), (2.0, math.nan), (4.0, 0.7)],
    [(1.0, 0.3), (2.0, 0.5), (4.0, -math.inf)],
], ids=["nan capacity", "inf capacity", "two nan capacities", "nan rate", "-inf rate"])
def test_fit_rejects_non_finite_points(family, points):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="capacities and hit rates must be finite"):
            fit_hit_rate(points, family)


@given(st.lists(st.floats(min_value=5e-324, max_value=1e300), min_size=1, max_size=9))
def test_median_is_numpy_median_bit_for_bit(values):
    values = np.array(values)
    assert models._median(values) == float(np.median(values))


def test_fit_noisy_data_still_reasonable():
    # Mild noise below the plateau should not derail the fit. (Noise at
    # h near 1 is a different story: the log transform amplifies it
    # without bound, so saturated points are kept out of this check.)
    rng = np.random.default_rng(9)
    true = ExponentialSaturation(beta=1.0, entry_size_gb=1.0)
    caps = np.geomspace(0.1, 3.0, 12)
    pts = [(float(m), float(np.clip(true.hit_rate(m) + rng.normal(0, 0.005), 0.0, 0.999)))
           for m in caps]
    r = fit_hit_rate(pts, ExponentialSaturation, entry_size_gb=1.0)
    assert abs(r.model.beta - 1.0) < 0.1
