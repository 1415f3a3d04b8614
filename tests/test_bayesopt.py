import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gp_reference
from scipy.special import ndtr

from dcbacktest import bayesopt
from dcbacktest.bayesopt import FAILED_OBJECTIVE, SearchSpace, Trial, optimize, optimize_theta_only


def quad(theta, alpha):
    return -((theta - 0.001) ** 2 + (alpha - 0.5) ** 2)


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(theta_bounds=(0.003, 0.0003))
    with pytest.raises(ValueError):
        SearchSpace(alpha_fixed=0.05)
    assert SearchSpace(alpha_fixed=1.0).ndim == 1
    assert SearchSpace().ndim == 2


def test_theta_clamped_below_alpha_where_the_box_allows_theta_above_alpha():
    space = SearchSpace(theta_bounds=(0.1, 0.9), alpha_bounds=(0.2, 0.5))
    assert space.from_unit(np.array([1.0, 0.0])) == (math.nextafter(0.2, 0.0), 0.2)
    assert space.from_unit(np.array([0.0, 1.0])) == (0.1, 0.5)


def test_failed_first_evaluations_fall_back_to_seeded_uniform_draws():
    # With fewer than two successful trials there is no surrogate, so the
    # next points are the seeded generator's uniform draws after the design.
    calls = []

    def objective(theta, alpha):
        calls.append((theta, alpha))
        return math.nan if len(calls) <= 3 else quad(theta, alpha)

    space = SearchSpace()
    best, hist = optimize(objective, space, n_iters=7, n_init=3, seed=5)
    rng = np.random.default_rng(5)
    for _ in range(space.ndim):
        rng.permutation(3)
    rng.random((3, space.ndim))
    draws = [space.from_unit(rng.random(space.ndim)) for _ in range(2)]
    assert [(t.theta, t.alpha) for t in hist[3:5]] == draws
    assert [t.objective for t in hist[:3]] == [FAILED_OBJECTIVE] * 3
    assert all(math.isfinite(t.objective) and t.objective != FAILED_OBJECTIVE for t in hist[3:])
    assert best == max(hist[3:], key=lambda t: t.objective)


def test_budget_and_bounds():
    best, hist = optimize(quad, SearchSpace(), n_iters=25, n_init=6, seed=1)
    assert len(hist) == 25
    assert [t.iteration for t in hist] == list(range(25))
    for t in hist:
        assert 0.0003 <= t.theta <= 0.003
        assert 0.1 <= t.alpha <= 1.0
    assert best.objective == max(t.objective for t in hist)


def test_determinism():
    r1 = optimize(quad, SearchSpace(), n_iters=30, n_init=5, seed=9)
    r2 = optimize(quad, SearchSpace(), n_iters=30, n_init=5, seed=9)
    assert r1 == r2


def test_single_evaluation_budget():
    best, hist = optimize(quad, SearchSpace(), n_iters=1, n_init=1, seed=0)
    assert len(hist) == 1 and best == hist[0]


def test_invalid_budget():
    with pytest.raises(ValueError):
        optimize(quad, SearchSpace(), n_iters=5, n_init=6, seed=0)
    with pytest.raises(ValueError):
        optimize(quad, SearchSpace(), n_iters=5, n_init=0, seed=0)


def test_constant_objective():
    best, hist = optimize(lambda t, a: 1.25, SearchSpace(), n_iters=20, n_init=5, seed=2)
    assert len(hist) == 20
    assert best.objective == 1.25
    # earliest trial wins ties
    assert best.iteration == 0


def test_nonfinite_objective_recorded_as_sentinel():
    calls = []

    def flaky(theta, alpha):
        calls.append(theta)
        if len(calls) % 3 == 0:
            return float("nan")
        return quad(theta, alpha)

    best, hist = optimize(flaky, SearchSpace(), n_iters=20, n_init=5, seed=3)
    assert len(hist) == 20
    bad = [t for t in hist if t.objective == FAILED_OBJECTIVE]
    assert bad and math.isfinite(best.objective)


def test_theta_only_pins_alpha():
    best, hist = optimize_theta_only(lambda t, a: -(t - 0.002) ** 2, SearchSpace(), n_iters=30, n_init=5, seed=4)
    assert all(t.alpha == 1.0 for t in hist)
    assert len(hist) == 30
    assert abs(best.theta - 0.002) <= 0.05 * (0.003 - 0.0003)


def test_quadratic_convergence_smoke():
    # Full 20-seed sweep lives in the acceptance suite; spot-check 3 seeds.
    for seed in (0, 1, 2):
        best, _ = optimize(quad, SearchSpace(), n_iters=100, n_init=10, seed=seed)
        assert abs(best.theta - 0.001) <= 0.05 * (0.003 - 0.0003)
        assert abs(best.alpha - 0.5) <= 0.05 * (1.0 - 0.1)


def test_theta_only_quadratic_20_seeds():
    hits = 0
    for seed in range(20):
        best, _ = optimize_theta_only(
            lambda t, a: -(t - 0.002) ** 2, SearchSpace(), n_iters=100, n_init=10, seed=seed
        )
        hits += abs(best.theta - 0.002) <= 0.05 * (0.003 - 0.0003)
    assert hits >= 18


def test_monotone_objective_hits_boundary():
    best, _ = optimize_theta_only(lambda t, a: t, SearchSpace(), n_iters=40, n_init=10, seed=5)
    assert abs(best.theta - 0.003) <= 0.05 * (0.003 - 0.0003)


def _grown_gp(x, y, first_nugget=bayesopt._NUGGET_VAR):
    with mock.patch.object(bayesopt, "_NUGGET_VAR", first_nugget):
        gp = bayesopt._Gp(x.shape[1], len(x))
        for u, value in zip(x, y):
            gp.add(u, float(value))
    gp.fit()
    return gp


def _assert_matches_reference(x, y, first_nugget):
    gp = _grown_gp(x, y, first_nugget)
    grown = dict(zip(bayesopt._LENGTHSCALES, gp.nugget.tolist()))
    own = gp_reference(x, y, first_nugget)
    ref = gp_reference(x, y, grown)
    for (ell, amp), nugget in ref.nuggets.items():
        # The grown factor escalates where a Cholesky factorization fails,
        # or at most one step further on a pivot within rounding of zero.
        assert nugget == grown[ell]
        assert round(math.log(grown[ell] / own.nuggets[(ell, amp)], 100.0)) in (0, 1)
    # A (near-)duplicate point's pivot is about the nugget, found by
    # cancellation from 1 in both fits, so its log may differ by eps / nugget.
    lml_tol = {ell: x.shape[0] * np.finfo(float).eps / nugget for ell, nugget in grown.items()}
    for (i, ell), (j, amp) in itertools.product(enumerate(bayesopt._LENGTHSCALES), enumerate(bayesopt._AMPLITUDES)):
        assert abs(gp.lml[i, j] - ref.lml[(ell, amp)]) <= 1e-6 * abs(ref.lml[(ell, amp)]) + lml_tol[ell]
    if (gp.ell, gp.amp) != (ref.ell, ref.amp):  # only on a near tie
        assert ref.lml[(gp.ell, gp.amp)] >= ref.lml[(ref.ell, ref.amp)] - lml_tol[gp.ell] - lml_tol[ref.ell]
        ref = gp_reference(x, y, grown, lengthscales=(gp.ell,), amplitudes=(gp.amp,))
    xq = np.vstack([np.random.default_rng(x.shape[0]).random((64, x.shape[1])), x[:8]])
    mu, var = gp.posterior(xq)
    mu_ref, var_ref = ref.posterior(xq)
    np.testing.assert_allclose(mu, mu_ref, rtol=0, atol=1e-6 * max(1.0, float(np.abs(mu_ref).max())))
    np.testing.assert_allclose(var, var_ref, rtol=0, atol=1e-6 * gp.amp)
    sd = np.sqrt(var)
    z = (mu - gp.best) / sd
    ei = sd * (z * ndtr(z) + np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))
    np.testing.assert_allclose(bayesopt._expected_improvement(gp, xq), ei, rtol=1e-9, atol=1e-12 * ei.max() + 1e-300)
    return gp


@st.composite
def _designs(draw):
    """Points in the unit box, some snapped to a coarse grid so that
    duplicates occur, with a smooth objective (equal at duplicates)."""
    n = draw(st.integers(2, 100))
    ndim = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random((n, ndim))
    grid = draw(st.sampled_from([0, 4, 16]))
    if grid:
        snap = rng.random(n) < draw(st.sampled_from([0.5, 1.0]))
        x[snap] = np.round(x[snap] * grid) / grid
    freq = draw(st.floats(0.5, 8.0))
    center = rng.random(ndim)
    y = np.sin(freq * x.sum(axis=1)) - ((x - center) ** 2).sum(axis=1)
    return x, y


@settings(max_examples=60, deadline=None)
@given(design=_designs())
def test_grown_factor_matches_from_scratch_gp(design):
    x, y = design
    _assert_matches_reference(x, y, bayesopt._NUGGET_VAR)


@pytest.mark.parametrize("seed", [3, 5, 6])
def test_dense_one_dimensional_design_matches_reference(seed):
    # Eighty points on one axis, as a theta-only search gathers, make the
    # long-lengthscale kernel matrices nearly singular: there the explicit
    # inverse factor alone, without its refinement step, misses the oracle.
    x = np.random.default_rng(seed).random((80, 1))
    _assert_matches_reference(x, -((x[:, 0] - 0.3) ** 2), bayesopt._NUGGET_VAR)


def test_duplicate_points_escalate_the_nugget():
    # At the default nugget a duplicate's pivot is about twice the nugget,
    # far above rounding. Below half an ulp of 1 the nugget vanishes from
    # the diagonal, so a duplicate of the first point has a pivot of exactly
    # 0 in both fits until the nugget reaches 1e-14.
    x = np.array([[0.1], [0.1], [0.5], [0.9], [0.5], [0.9]])
    gp = _assert_matches_reference(x, np.sin(3.0 * x[:, 0]), 1e-20)
    assert gp.nugget.tolist() == [1e-20 * 100.0 * 100.0 * 100.0] * len(bayesopt._LENGTHSCALES)


def test_optimize_runs_on_one_blas_thread_and_restores_the_count():
    controls = bayesopt._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    original = [get() for get, _ in controls]
    try:
        for _, set_threads in controls:
            set_threads(2)
        before = [get() for get, _ in controls]
        seen = []

        def objective(theta, alpha):
            seen.append([get() for get, _ in controls])
            return quad(theta, alpha)

        optimize(objective, SearchSpace(), n_iters=12, n_init=4, seed=0)
        assert seen and all(counts == [1] * len(controls) for counts in seen)
        assert [get() for get, _ in controls] == before

        def failing(theta, alpha):
            seen.append([get() for get, _ in controls])
            raise RuntimeError("objective failed")

        with pytest.raises(RuntimeError, match="objective failed"):
            optimize(failing, SearchSpace(), n_iters=12, n_init=4, seed=0)
        assert seen[-1] == [1] * len(controls)
        assert [get() for get, _ in controls] == before
    finally:
        for (_, set_threads), count in zip(controls, original):
            set_threads(count)
