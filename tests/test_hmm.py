import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcbacktest.hmm import (
    VARIANCE_FLOOR,
    DegenerateDataError,
    GaussianHmm,
    RegimeLabel,
    _forward_backward,
    fit_baum_welch,
    label_regimes,
    predict_regime,
    viterbi,
    write_model,
)
from oracles import forward_backward_reference, viterbi_bruteforce


def _two_regime_obs(rng, n_blocks=10, block=50):
    parts = []
    for b in range(n_blocks):
        if b % 2 == 0:
            parts.append(rng.normal(1e-5, 1e-6, block))
        else:
            parts.append(rng.normal(1e-4, 1e-5, block))
    return np.abs(np.concatenate(parts))


def _random_model(rng, k=2):
    pi = rng.dirichlet(np.ones(k))
    a = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(k)])
    means = rng.normal(0.0, 1.0, k)
    variances = np.exp(rng.uniform(-2, 1, k))
    return GaussianHmm(pi, a, means, variances)


def test_fit_recovers_block_means():
    rng = np.random.default_rng(42)
    obs = _two_regime_obs(rng)
    fit = fit_baum_welch(obs, seed=0)
    got = np.sort(fit.model.emission_means)
    assert abs(got[0] - 1e-5) / 1e-5 < 0.10
    assert abs(got[1] - 1e-4) / 1e-4 < 0.10
    m = fit.model
    assert m.initial_probs.sum() == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(m.transitions.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    assert (m.emission_vars > 0).all()


def test_fit_loglik_monotone():
    rng = np.random.default_rng(7)
    for trial in range(10):
        obs = _two_regime_obs(rng, n_blocks=6, block=30)
        fit = fit_baum_welch(obs, seed=trial)
        diffs = np.diff(fit.ll_history)
        assert (diffs >= -1e-8).all()


def test_fit_zero_iterations_returns_seeded_init():
    obs = np.array([1e-5, 5e-5, 1e-4])
    fit = fit_baum_welch(obs, max_iters=0, seed=3)
    m = fit.model
    # Deterministic start: sorted-half means in original units, uniform
    # start probabilities, 0.9 self-transitions.
    srt = np.sort(obs)
    np.testing.assert_allclose(m.initial_probs, [0.5, 0.5])
    np.testing.assert_allclose(m.transitions, [[0.9, 0.1], [0.1, 0.9]])
    assert m.emission_means[0] == pytest.approx(srt[:1].mean())
    assert m.emission_means[1] == pytest.approx(srt[1:].mean())
    assert fit.n_iters_run == 0 and fit.ll_history == [fit.log_likelihood]


@pytest.mark.parametrize("max_iters", [1, 2, 3, 4, 5])
def test_fit_reports_the_likelihood_of_the_model_it_returns(max_iters):
    # Short caps stop every restart before convergence, so the restarts are
    # ranked on the likelihood after their last M-step.
    rng = np.random.default_rng(max_iters)
    obs = np.abs(np.concatenate([rng.normal(1.0, 0.3, 200), rng.normal(3.0, 0.5, 40), rng.normal(1.0, 0.3, 60)]))
    for seed in range(4):
        for n_restarts in (2, 3):
            fit = fit_baum_welch(obs, max_iters=max_iters, seed=seed, n_restarts=n_restarts)
            m = fit.model
            _, _, ref = forward_backward_reference(
                m.initial_probs, m.transitions, m.emission_means, m.emission_vars, obs
            )
            assert fit.log_likelihood == fit.ll_history[-1]
            assert fit.log_likelihood == pytest.approx(ref, rel=1e-9, abs=0)
            assert len(fit.ll_history) == fit.n_iters_run + 1 <= max_iters + 1


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"max_iters": -1}, "HMM max_iters must be >= 0, got -1"),
        ({"tol": 0.0}, "HMM tol must be > 0, got 0.0"),
        ({"tol": float("nan")}, "HMM tol must be > 0, got nan"),
        ({"n_restarts": 0}, "HMM n_restarts must be >= 1, got 0"),
    ],
)
def test_fit_rejects_bad_em_settings(knobs, message):
    with pytest.raises(ValueError) as info:
        fit_baum_welch(np.array([1e-5, 5e-5, 1e-4, 2e-4, 3e-5]), **knobs)
    assert str(info.value) == message


def test_fit_rejects_too_few_or_bad_observations():
    with pytest.raises(ValueError):
        fit_baum_welch(np.array([1e-5, 2e-5, 3e-5]))
    with pytest.raises(ValueError):
        fit_baum_welch(np.array([1e-5, np.nan, 3e-5, 4e-5]))
    with pytest.raises(ValueError):
        fit_baum_welch(np.array([1e-5, -2e-5, 3e-5, 4e-5]))
    with pytest.raises(DegenerateDataError):
        fit_baum_welch(np.full(10, 3.3e-5))


def test_variance_floor_respected():
    rng = np.random.default_rng(0)
    obs = np.concatenate([np.full(20, 1e-5), rng.normal(1e-4, 1e-5, 20)])
    fit = fit_baum_welch(np.abs(obs), seed=0)
    sd = np.abs(obs).std()
    assert (fit.model.emission_vars >= VARIANCE_FLOOR * sd * sd * (1 - 1e-12)).all()


def test_posteriors_sum_to_one():
    rng = np.random.default_rng(9)
    model = _random_model(rng)
    obs = rng.normal(0, 1, 200)
    gamma, _, _ = _forward_backward(
        model.initial_probs, model.transitions, model.emission_means, model.emission_vars, obs
    )
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-9)


@st.composite
def _forward_backward_case(draw):
    # Exact 0, 1/2 and 1 probabilities, and standardized observations up to
    # |z| = 40, so the emission max-shift matters and a forward step can
    # underflow to 0 and take the tiny-scale guard.
    prob = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    p0 = draw(prob)
    rows = [draw(prob) for _ in range(2)]
    pi = np.array([p0, 1.0 - p0])
    a = np.array([[r, 1.0 - r] for r in rows])
    means = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(2)])
    variances = np.array([draw(st.floats(1e-3, 4.0)) for _ in range(2)])
    z = st.one_of(st.floats(-40.0, 40.0), st.sampled_from([-40.0, 40.0, float(means[0]), float(means[1])]))
    obs = np.array(draw(st.lists(z, min_size=1, max_size=300)))
    return pi, a, means, variances, obs


@settings(max_examples=300, deadline=None)
@given(case=_forward_backward_case())
def test_forward_backward_matches_general_reference(case):
    pi, a, means, variances, obs = case
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gamma, xi_sum, ll = _forward_backward(pi, a, means, variances, obs)
        ref_gamma, ref_xi, ref_ll = forward_backward_reference(pi, a, means, variances, obs)
    assert gamma.shape == ref_gamma.shape == (obs.shape[0], 2)
    assert xi_sum.shape == ref_xi.shape == (2, 2)
    np.testing.assert_allclose(gamma, ref_gamma, rtol=0, atol=1e-12)
    np.testing.assert_allclose(xi_sum, ref_xi, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ll, ref_ll, rtol=1e-12)


def test_viterbi_single_observation():
    model = GaussianHmm(
        np.array([0.7, 0.3]),
        np.array([[0.5, 0.5], [0.5, 0.5]]),
        np.array([0.0, 1.0]),
        np.array([1.0, 1.0]),
    )
    # argmax_k log pi_k + log N(o | mu_k, var_k)
    assert viterbi(model, np.array([0.0]))[0] == 0
    assert viterbi(model, np.array([5.0]))[0] == 1


def test_viterbi_identity_transitions_pin_state():
    model = GaussianHmm(
        np.array([1.0, 0.0]),
        np.eye(2),
        np.array([0.0, 0.0]),
        np.array([1.0, 1.0]),
    )
    path = viterbi(model, np.zeros(8))
    assert (path == 0).all()


def test_viterbi_exact_ties_go_to_lower_state():
    # Identical states: every start, transition and final score ties.
    model = GaussianHmm([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [0.0, 0.0], [1.0, 1.0])
    obs = np.array([0.3, -1.0, 2.0, 0.0, 0.5])
    ref = viterbi_bruteforce(model.initial_probs, model.transitions, model.emission_means, model.emission_vars, obs)
    assert ref.tolist() == [0] * 5
    assert viterbi(model, obs).tolist() == [0] * 5
    assert label_regimes(model)[0] is RegimeLabel.NORMAL
    assert predict_regime(model, obs) == [RegimeLabel.NORMAL] * 5
    # Means 0 and 5: 2.5 ties both states, so the path into the final
    # state 1 ties at every back-pointer.
    model = GaussianHmm([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [0.0, 5.0], [1.0, 1.0])
    obs = np.array([2.5, 2.5, 5.0])
    ref = viterbi_bruteforce(model.initial_probs, model.transitions, model.emission_means, model.emission_vars, obs)
    assert ref.tolist() == viterbi(model, obs).tolist() == [0, 0, 1]


def test_viterbi_matches_bruteforce_small():
    rng = np.random.default_rng(13)
    for _ in range(40):
        model = _random_model(rng)
        t_len = int(rng.integers(1, 9))
        obs = rng.normal(0, 1, t_len)
        got = viterbi(model, obs)
        ref = viterbi_bruteforce(
            model.initial_probs, model.transitions, model.emission_means, model.emission_vars, obs
        )
        assert np.array_equal(got, ref)


def test_label_regimes_rules():
    m = GaussianHmm(np.array([0.5, 0.5]), np.full((2, 2), 0.5), np.array([1e-5, 1e-4]), np.array([1e-12, 1e-12]))
    assert label_regimes(m)[1] is RegimeLabel.ABNORMAL
    assert label_regimes(m)[0] is RegimeLabel.NORMAL
    # exact mean tie: larger variance is abnormal
    m2 = GaussianHmm(np.array([0.5, 0.5]), np.full((2, 2), 0.5), np.array([2e-5, 2e-5]), np.array([1e-12, 1e-10]))
    assert label_regimes(m2)[1] is RegimeLabel.ABNORMAL


def test_label_regimes_permutation_invariant():
    rng = np.random.default_rng(3)
    m = _random_model(rng)
    labels = label_regimes(m)
    perm = GaussianHmm(
        m.initial_probs[::-1].copy(),
        m.transitions[::-1, ::-1].copy(),
        m.emission_means[::-1].copy(),
        m.emission_vars[::-1].copy(),
    )
    swapped = label_regimes(perm)
    assert labels[0] is swapped[1] and labels[1] is swapped[0]


def test_predict_regime_flips_on_extreme_observation():
    rng = np.random.default_rng(4)
    obs = _two_regime_obs(rng)
    fit = fit_baum_welch(obs, seed=0)
    calm = np.full(30, 1e-5)
    assert predict_regime(fit.model, calm)[-1] is RegimeLabel.NORMAL
    assert predict_regime(fit.model, calm) == [RegimeLabel.NORMAL] * 30
    burst = np.concatenate([calm, np.full(3, 2e-4)])
    labels = predict_regime(fit.model, burst)
    assert labels[-1] is RegimeLabel.ABNORMAL
    # The calm prefix keeps its labels; every burst observation is abnormal.
    assert labels == [RegimeLabel.NORMAL] * 30 + [RegimeLabel.ABNORMAL] * 3
    # determinism
    assert predict_regime(fit.model, burst) == labels


def test_predict_regime_single_observation():
    rng = np.random.default_rng(4)
    fit = fit_baum_welch(_two_regime_obs(rng), seed=0)
    one = np.array([1e-4])
    path = viterbi(fit.model, one)
    labels = predict_regime(fit.model, one)
    assert labels[-1] is label_regimes(fit.model)[int(path[0])]
    assert labels == [label_regimes(fit.model)[int(path[0])]]


def test_predict_regime_rejects_empty_history():
    rng = np.random.default_rng(4)
    fit = fit_baum_welch(_two_regime_obs(rng), seed=0)
    with pytest.raises(ValueError):
        predict_regime(fit.model, np.array([]))


@st.composite
def _prefix_case(draw):
    # Probabilities include exact 0 (log 0 = -inf) and exact 1/2, and the
    # emissions may be identical, so equal scores at the final state occur.
    prob = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.01, 0.99))
    p0 = draw(prob)
    rows = [draw(prob) for _ in range(2)]
    if draw(st.booleans()):
        means = [draw(st.floats(-2.0, 2.0))] * 2
        variances = [draw(st.floats(0.1, 3.0))] * 2
    else:
        means = [draw(st.floats(-2.0, 2.0)) for _ in range(2)]
        variances = [draw(st.floats(0.1, 3.0)) for _ in range(2)]
    model = GaussianHmm([p0, 1.0 - p0], [[r, 1.0 - r] for r in rows], means, variances)
    values = st.one_of(st.sampled_from(means), st.floats(-3.0, 3.0))
    obs = draw(st.lists(values, min_size=1, max_size=24))
    return model, np.array(obs)


@settings(max_examples=200, deadline=None)
@given(case=_prefix_case())
def test_predict_regime_matches_final_viterbi_state_of_every_prefix(case):
    model, obs = case
    labels = label_regimes(model)
    got = predict_regime(model, obs)
    assert len(got) == len(obs)
    for t in range(len(obs)):
        prefix = obs[: t + 1]
        if len(prefix) <= 8:
            ref = viterbi_bruteforce(
                model.initial_probs, model.transitions, model.emission_means, model.emission_vars, prefix
            )
        else:
            ref = viterbi(model, prefix)
        assert got[t] is labels[int(ref[-1])], t


def test_model_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    fit = fit_baum_welch(_two_regime_obs(rng), seed=1)
    path = tmp_path / "model.txt"
    write_model(path, fit.model)
    text = path.read_text()
    assert "abnormal_state" in text and "pi_0" in text and "a_01" in text
    kv = dict(line.split(" = ") for line in text.splitlines())
    m = fit.model
    # Every parameter is written at full precision.
    for k in (0, 1):
        assert float(kv[f"pi_{k}"]) == m.initial_probs[k]
        assert float(kv[f"mu_{k}"]) == m.emission_means[k]
        assert float(kv[f"var_{k}"]) == m.emission_vars[k]
        for j in (0, 1):
            assert float(kv[f"a_{k}{j}"]) == m.transitions[k, j]
    assert label_regimes(m)[int(kv["abnormal_state"])] is RegimeLabel.ABNORMAL
