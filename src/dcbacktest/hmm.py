"""Two-state Gaussian HMM over per-leg return rates.

The model has exactly two states, one per regime (normal and abnormal), and
every recursion is written for two states on Python floats. Fitting runs scaled forward-backward EM on
internally standardized observations and reports parameters in original
units; decoding is log-domain Viterbi. The state with the larger emission
mean is labeled the abnormal regime (ties fall to the larger variance).

Viterbi and online regime labels share one max-product forward recursion.
Its running maximum after observation t does not depend on later
observations, so one pass over a history labels every prefix of it: label t
is the final state Viterbi would decode from the first t + 1 observations.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "RegimeLabel",
    "GaussianHmm",
    "FitResult",
    "DegenerateDataError",
    "VARIANCE_FLOOR",
    "check_fit_settings",
    "fit_baum_welch",
    "viterbi",
    "label_regimes",
    "predict_regime",
    "write_model",
]

# Lower bound on emission variances, in standardized (z-score) units.
VARIANCE_FLOOR = 1e-12
# Stand-in for a forward step whose scaled mass underflows to 0.
_TINY = float(np.finfo(float).tiny)


class DegenerateDataError(ValueError):
    """Raised when observations carry no variance to fit."""


class RegimeLabel(Enum):
    NORMAL = "normal"
    ABNORMAL = "abnormal"


@dataclass
class GaussianHmm:
    """Two-state model parameters in the observations' original units."""

    initial_probs: np.ndarray
    transitions: np.ndarray
    emission_means: np.ndarray
    emission_vars: np.ndarray

    def __post_init__(self) -> None:
        self.initial_probs = np.asarray(self.initial_probs, dtype=np.float64)
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.emission_means = np.asarray(self.emission_means, dtype=np.float64)
        self.emission_vars = np.asarray(self.emission_vars, dtype=np.float64)


@dataclass
class FitResult:
    """The best restart's fit: ``ll_history`` holds one log-likelihood per
    E-step, the last being ``log_likelihood``, that of ``model``;
    ``n_iters_run`` counts M-steps."""

    model: GaussianHmm
    log_likelihood: float
    ll_history: list[float]
    converged: bool
    n_iters_run: int


def _log_emissions(obs: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    # (K, T) log N(o_t | mu_k, var_k)
    diff = obs[None, :] - means[:, None]
    return -0.5 * (diff * diff / variances[:, None] + np.log(2.0 * np.pi * variances)[:, None])


def _forward_backward(
    pi: np.ndarray, a: np.ndarray, means: np.ndarray, variances: np.ndarray, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Scaled two-state forward-backward pass.

    Returns per-time state posteriors ``gamma`` (T, 2), summed transition
    posteriors ``xi_sum`` (2, 2) and the sequence log-likelihood. Emission
    rows are max-shifted before scaling so extreme observations cannot
    underflow every state at once. The recursions run on Python floats:
    with two states, per-step numpy calls cost far more than the arithmetic.
    """
    logb = _log_emissions(obs, means, variances)
    shift = logb.max(axis=0)
    b = np.exp(logb - shift[None, :])  # (2, T)
    b0, b1 = b.tolist()
    p0, p1 = pi.tolist()
    (a00, a01), (a10, a11) = a.tolist()
    t_len = len(b0)

    v0, v1 = p0 * b0[0], p1 * b1[0]
    s = v0 + v1
    if s <= 0.0:
        s = _TINY
    u0, u1 = v0 / s, v1 / s
    alpha0, alpha1, scale = [u0], [u1], [s]
    for e0, e1 in zip(b0[1:], b1[1:]):
        v0 = (a00 * u0 + a10 * u1) * e0
        v1 = (a01 * u0 + a11 * u1) * e1
        s = v0 + v1
        if s <= 0.0:
            s = _TINY
        u0, u1 = v0 / s, v1 / s
        alpha0.append(u0)
        alpha1.append(u1)
        scale.append(s)

    # Built from the last step back, then reversed.
    w0 = w1 = 1.0
    beta0, beta1 = [w0], [w1]
    for e0, e1, s in zip(b0[:0:-1], b1[:0:-1], scale[:0:-1]):
        c0, c1 = e0 * w0, e1 * w1
        w0 = (a00 * c0 + a01 * c1) / s
        w1 = (a10 * c0 + a11 * c1) / s
        beta0.append(w0)
        beta1.append(w1)

    alpha = np.empty((t_len, 2))
    alpha[:, 0], alpha[:, 1] = alpha0, alpha1
    beta = np.empty((t_len, 2))
    beta[::-1, 0], beta[::-1, 1] = beta0, beta1
    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)

    # xi_t(i, j) for every t at once; steps whose mass underflows to 0 are left out.
    m = (alpha[:-1, :, None] * a) * (b[:, 1:].T * beta[1:])[:, None, :]  # (T - 1, from, to)
    tot = m.sum(axis=(1, 2))
    keep = tot > 0.0
    xi_sum = (m[keep] / tot[keep, None, None]).sum(axis=0)

    ll = float(np.log(scale).sum() + shift.sum())
    return gamma, xi_sum, ll


def _sorted_half_init(obs_z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic start: emission means from the lower and upper halves of
    the sorted observations, uniform start probabilities, sticky transitions."""
    srt = np.sort(obs_z)
    half = srt.shape[0] // 2
    chunks = (srt[: max(half, 1)], srt[half:])
    means = np.array([c.mean() for c in chunks])
    variances = np.array([max(c.var(), VARIANCE_FLOOR) for c in chunks])
    return np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.1, 0.9]]), means, variances


def _m_step(
    obs_z: np.ndarray, gamma: np.ndarray, xi_sum: np.ndarray, a: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form Gaussian updates; a state with no posterior mass keeps its parameters."""
    pi = gamma[0] / gamma[0].sum()
    occ = gamma[:-1].sum(axis=0)
    w = gamma.sum(axis=0)
    a, means, variances = a.copy(), means.copy(), variances.copy()
    for k in range(2):
        if occ[k] > 0:
            a[k] = xi_sum[k] / occ[k]
            a[k] /= a[k].sum()
        if w[k] > 0:
            means[k] = float(gamma[:, k] @ obs_z) / w[k]
            d = obs_z - means[k]
            variances[k] = max(float(gamma[:, k] @ (d * d)) / w[k], VARIANCE_FLOOR)
    return pi, a, means, variances


def check_fit_settings(max_iters: int, tol: float, n_restarts: int) -> None:
    """Reject EM settings ``fit_baum_welch`` cannot run with."""
    if max_iters < 0:
        raise ValueError(f"HMM max_iters must be >= 0, got {max_iters}")
    if not tol > 0:
        raise ValueError(f"HMM tol must be > 0, got {tol}")
    if n_restarts < 1:
        raise ValueError(f"HMM n_restarts must be >= 1, got {n_restarts}")


def fit_baum_welch(
    observations: np.ndarray,
    max_iters: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
    n_restarts: int = 5,
) -> FitResult:
    """Fit by EM with seeded restarts, keeping the highest final likelihood.

    Restart 0 starts from the deterministic sorted-split initialization;
    later restarts jitter it. Each restart alternates E-steps (likelihood
    and posteriors) with M-steps until an E-step gains less than ``tol`` or
    ``max_iters`` M-steps have run, so ``ll_history`` holds one likelihood
    per E-step and its last entry is the returned model's. ``max_iters == 0``
    evaluates the initialization once and returns it unchanged.
    """
    check_fit_settings(max_iters, tol, n_restarts)
    obs = np.asarray(observations, dtype=np.float64).ravel()
    # Zero-iteration calls only need the initialization to be well defined.
    min_obs = 4 if max_iters > 0 else 2
    if obs.shape[0] < min_obs:
        raise ValueError(f"need at least {min_obs} observations, got {obs.shape[0]}")
    if not np.isfinite(obs).all():
        raise ValueError("observations must be finite")
    if (obs < 0).any():
        raise ValueError("observations must be non-negative")
    center = obs.mean()
    sd = obs.std()
    if sd == 0.0:
        raise DegenerateDataError("all observations identical; no variance to fit")
    obs_z = (obs - center) / sd
    # Likelihoods are reported in original units: a constant Jacobian shift.
    shift = obs.shape[0] * math.log(sd)

    pi0, a0, mu0, var0 = _sorted_half_init(obs_z)
    # Restarts differ only in where EM starts; with no M-step there is only the deterministic start.
    for r in range(n_restarts if max_iters > 0 else 1):
        pi, a, mu, var = pi0, a0, mu0, var0
        if r > 0:
            rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
            spread = max(float(mu0.max() - mu0.min()), 1.0)
            mu = mu0 + rng.normal(0.0, 0.25 * spread, size=2)
            var = var0 * np.exp(rng.normal(0.0, 0.5, size=2))
            var = np.maximum(var, VARIANCE_FLOOR)
        gamma, xi_sum, ll = _forward_backward(pi, a, mu, var, obs_z)
        hist = [ll]
        converged = False
        while len(hist) <= max_iters and not converged:
            pi, a, mu, var = _m_step(obs_z, gamma, xi_sum, a, mu, var)
            gamma, xi_sum, ll = _forward_backward(pi, a, mu, var, obs_z)
            converged = ll - hist[-1] < tol
            hist.append(ll)
        model = GaussianHmm(pi, a, mu * sd + center, var * sd * sd)
        fit = FitResult(model, hist[-1] - shift, [h - shift for h in hist], converged, len(hist) - 1)
        if r == 0 or fit.log_likelihood > best.log_likelihood:
            best = fit
    return best


def _max_product_forward(model: GaussianHmm, observations: np.ndarray) -> tuple[list[tuple[int, int]], list[int]]:
    """Log-domain two-state max-product forward recursion over a nonempty sequence.

    Returns back-pointers ``back`` (T - 1 pairs; ``back[t - 1][j]`` is the
    best state at step t - 1 on a path into state j at step t) and ``last``
    (T,), where ``last[t]`` is the argmax of the running maximum after observation t, i.e. the final state
    of the most likely path over the first t + 1 observations. Every argmax
    takes the lower index on ties: state 1 wins only by a strict ``>``.
    """
    obs = np.asarray(observations, dtype=np.float64).ravel()
    if obs.shape[0] == 0:
        raise ValueError("observations must be nonempty")
    logb0, logb1 = _log_emissions(obs, model.emission_means, model.emission_vars).tolist()
    with np.errstate(divide="ignore"):
        lp0, lp1 = np.log(model.initial_probs).tolist()
        (la00, la01), (la10, la11) = np.log(model.transitions).tolist()
    d0, d1 = lp0 + logb0[0], lp1 + logb1[0]
    back = []
    last = [int(d1 > d0)]
    for e0, e1 in zip(logb0[1:], logb1[1:]):
        c00, c10, c01, c11 = d0 + la00, d1 + la10, d0 + la01, d1 + la11
        from0, from1 = int(c10 > c00), int(c11 > c01)
        d0 = (c10 if from0 else c00) + e0
        d1 = (c11 if from1 else c01) + e1
        back.append((from0, from1))
        last.append(int(d1 > d0))
    return back, last


def viterbi(model: GaussianHmm, observations: np.ndarray) -> np.ndarray:
    """Most likely joint state path, log-domain.

    Ties break toward the lower state index, both at the final state and at
    every backtracking step.
    """
    back, last = _max_product_forward(model, observations)
    state = last[-1]
    path = [state]
    for pointers in reversed(back):
        state = pointers[state]
        path.append(state)
    return np.array(path[::-1], dtype=np.intp)


def label_regimes(model: GaussianHmm) -> dict[int, RegimeLabel]:
    """Map state index to regime: the largest emission mean is abnormal,
    with variance breaking exact mean ties."""
    mean, var = model.emission_means.tolist(), model.emission_vars.tolist()
    abnormal = int((mean[1], var[1]) >= (mean[0], var[0]))  # an exact tie in both goes to state 1
    return {k: (RegimeLabel.ABNORMAL if k == abnormal else RegimeLabel.NORMAL) for k in (0, 1)}


def predict_regime(model: GaussianHmm, rdc_history: np.ndarray) -> list[RegimeLabel]:
    """Online regime labels, one per prefix of the history.

    Element t is the regime of the final Viterbi state over
    ``rdc_history[:t + 1]``, so the last element labels the whole history.
    One forward pass computes them all.
    """
    _, last = _max_product_forward(model, rdc_history)
    labels = label_regimes(model)
    return [labels[s] for s in last]


def write_model(path: str | os.PathLike, model: GaussianHmm) -> None:
    abnormal = [k for k, lab in label_regimes(model).items() if lab is RegimeLabel.ABNORMAL][0]
    with open(path, "w", encoding="utf-8") as fh:
        for k in (0, 1):
            fh.write(f"pi_{k} = {float(model.initial_probs[k])!r}\n")
        for i in (0, 1):
            for j in (0, 1):
                fh.write(f"a_{i}{j} = {float(model.transitions[i, j])!r}\n")
        for k in (0, 1):
            fh.write(f"mu_{k} = {float(model.emission_means[k])!r}\n")
            fh.write(f"var_{k} = {float(model.emission_vars[k])!r}\n")
        fh.write(f"abnormal_state = {abnormal}\n")
