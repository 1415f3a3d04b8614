"""Two-state Gaussian HMM over per-leg return rates.

Fitting runs scaled forward-backward EM on internally standardized
observations and reports parameters in original units; decoding is
log-domain Viterbi. The state with the larger emission mean is labeled the
abnormal regime (ties fall to the larger variance).

Viterbi and online regime labels share one max-product forward recursion.
Its running maximum after observation t does not depend on later
observations, so one pass over a history labels every prefix of it: label t
is the final state Viterbi would decode from the first t + 1 observations.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "RegimeLabel",
    "GaussianHmm",
    "FitResult",
    "DegenerateDataError",
    "VARIANCE_FLOOR",
    "fit_baum_welch",
    "viterbi",
    "label_regimes",
    "predict_regime",
    "state_posteriors",
    "write_model",
    "read_model",
]

# Lower bound on emission variances, in standardized (z-score) units.
VARIANCE_FLOOR = 1e-12


class DegenerateDataError(ValueError):
    """Raised when observations carry no variance to fit."""


class RegimeLabel(Enum):
    NORMAL = "normal"
    ABNORMAL = "abnormal"


@dataclass
class GaussianHmm:
    """Model parameters in the observations' original units."""

    n_states: int
    initial_probs: np.ndarray
    transitions: np.ndarray
    emission_means: np.ndarray
    emission_vars: np.ndarray

    def __post_init__(self) -> None:
        self.initial_probs = np.asarray(self.initial_probs, dtype=np.float64)
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.emission_means = np.asarray(self.emission_means, dtype=np.float64)
        self.emission_vars = np.asarray(self.emission_vars, dtype=np.float64)

    def validate(self, atol: float = 1e-9) -> None:
        if abs(self.initial_probs.sum() - 1.0) > atol:
            raise ValueError("initial probabilities must sum to 1")
        if np.abs(self.transitions.sum(axis=1) - 1.0).max() > atol:
            raise ValueError("transition rows must sum to 1")
        if (self.emission_vars <= 0).any():
            raise ValueError("emission variances must be positive")


@dataclass
class FitResult:
    model: GaussianHmm
    log_likelihood: float
    ll_history: list[float] = field(default_factory=list)
    converged: bool = False
    n_iters_run: int = 0


def _log_emissions(obs: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    # (K, T) log N(o_t | mu_k, var_k)
    diff = obs[None, :] - means[:, None]
    return -0.5 * (diff * diff / variances[:, None] + np.log(2.0 * np.pi * variances)[:, None])


def _forward_backward(
    pi: np.ndarray, a: np.ndarray, means: np.ndarray, variances: np.ndarray, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Scaled forward-backward pass.

    Returns per-time state posteriors ``gamma`` (T, K), summed transition
    posteriors ``xi_sum`` (K, K) and the sequence log-likelihood. Emission
    rows are max-shifted before scaling so extreme observations cannot
    underflow every state at once.
    """
    t_len = obs.shape[0]
    k = pi.shape[0]
    logb = _log_emissions(obs, means, variances)
    shift = logb.max(axis=0)
    b = np.exp(logb - shift[None, :])  # (K, T)

    alpha = np.empty((t_len, k))
    scale = np.empty(t_len)
    alpha[0] = pi * b[:, 0]
    scale[0] = alpha[0].sum()
    if scale[0] <= 0.0:
        scale[0] = np.finfo(float).tiny
    alpha[0] /= scale[0]
    a_t = a.T
    for t in range(1, t_len):
        v = (a_t @ alpha[t - 1]) * b[:, t]
        s = v.sum()
        if s <= 0.0:
            s = np.finfo(float).tiny
        alpha[t] = v / s
        scale[t] = s

    beta = np.empty((t_len, k))
    beta[-1] = 1.0
    for t in range(t_len - 2, -1, -1):
        beta[t] = (a @ (b[:, t + 1] * beta[t + 1])) / scale[t + 1]

    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)

    xi_sum = np.zeros((k, k))
    for t in range(t_len - 1):
        m = (alpha[t][:, None] * a) * (b[:, t + 1] * beta[t + 1])[None, :]
        tot = m.sum()
        if tot > 0.0:
            xi_sum += m / tot

    ll = float(np.log(scale).sum() + shift.sum())
    return gamma, xi_sum, ll


def _sorted_half_init(obs_z: np.ndarray, n_states: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic start: emission means from equal quantile slices of the
    sorted observations, uniform start probabilities, sticky transitions."""
    srt = np.sort(obs_z)
    n = srt.shape[0]
    means = np.empty(n_states)
    variances = np.empty(n_states)
    bounds = [(n * j) // n_states for j in range(n_states + 1)]
    for j in range(n_states):
        lo, hi = bounds[j], max(bounds[j + 1], bounds[j] + 1)
        chunk = srt[lo:hi]
        means[j] = chunk.mean()
        variances[j] = max(chunk.var(), VARIANCE_FLOOR)
    pi = np.full(n_states, 1.0 / n_states)
    a = np.full((n_states, n_states), 0.1 / max(n_states - 1, 1))
    np.fill_diagonal(a, 0.9)
    return pi, a, means, variances


def _run_em(
    obs_z: np.ndarray,
    pi: np.ndarray,
    a: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    max_iters: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[float], bool, int]:
    ll_history: list[float] = []
    converged = False
    iters = 0
    for it in range(max_iters):
        gamma, xi_sum, ll = _forward_backward(pi, a, means, variances, obs_z)
        ll_history.append(ll)
        iters = it + 1
        if it > 0 and ll - ll_history[-2] < tol:
            converged = True
            break
        # M step: closed-form Gaussian updates.
        pi = gamma[0] / gamma[0].sum()
        occ = gamma[:-1].sum(axis=0)
        new_a = a.copy()
        for k in range(a.shape[0]):
            if occ[k] > 0:
                new_a[k] = xi_sum[k] / occ[k]
                new_a[k] /= new_a[k].sum()
        a = new_a
        w = gamma.sum(axis=0)
        for k in range(means.shape[0]):
            if w[k] > 0:
                means[k] = float(gamma[:, k] @ obs_z) / w[k]
                d = obs_z - means[k]
                variances[k] = max(float(gamma[:, k] @ (d * d)) / w[k], VARIANCE_FLOOR)
    return pi, a, means, variances, ll_history, converged, iters


def fit_baum_welch(
    observations: np.ndarray,
    n_states: int = 2,
    max_iters: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
    n_restarts: int = 5,
) -> FitResult:
    """Fit by EM with seeded restarts, keeping the highest final likelihood.

    Restart 0 starts from the deterministic sorted-split initialization;
    later restarts jitter it. ``max_iters == 0`` returns that
    initialization unchanged (with its likelihood evaluated once).
    """
    obs = np.asarray(observations, dtype=np.float64).ravel()
    # Zero-iteration calls only need the initialization to be well defined.
    min_obs = 2 * n_states if max_iters > 0 else n_states
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

    pi0, a0, mu0, var0 = _sorted_half_init(obs_z, n_states)

    if max_iters == 0:
        _, _, ll = _forward_backward(pi0, a0, mu0, var0, obs_z)
        model = _to_original_units(n_states, pi0, a0, mu0, var0, center, sd)
        return FitResult(model, ll - obs.shape[0] * math.log(sd), [], False, 0)

    best: tuple[float, FitResult] | None = None
    for r in range(max(n_restarts, 1)):
        if r == 0:
            pi, a, mu, var = pi0.copy(), a0.copy(), mu0.copy(), var0.copy()
        else:
            rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
            spread = max(float(mu0.max() - mu0.min()), 1.0)
            mu = mu0 + rng.normal(0.0, 0.25 * spread, size=n_states)
            var = var0 * np.exp(rng.normal(0.0, 0.5, size=n_states))
            var = np.maximum(var, VARIANCE_FLOOR)
            pi, a = pi0.copy(), a0.copy()
        pi, a, mu, var, hist, conv, iters = _run_em(obs_z, pi, a, mu, var, max_iters, tol)
        # Report likelihoods in original units (constant Jacobian shift).
        shift = obs.shape[0] * math.log(sd)
        hist = [h - shift for h in hist]
        model = _to_original_units(n_states, pi, a, mu, var, center, sd)
        result = FitResult(model, hist[-1], hist, conv, iters)
        if best is None or result.log_likelihood > best[0]:
            best = (result.log_likelihood, result)
    assert best is not None
    return best[1]


def _to_original_units(
    n_states: int,
    pi: np.ndarray,
    a: np.ndarray,
    mu_z: np.ndarray,
    var_z: np.ndarray,
    center: float,
    sd: float,
) -> GaussianHmm:
    return GaussianHmm(
        n_states=n_states,
        initial_probs=pi.copy(),
        transitions=a.copy(),
        emission_means=mu_z * sd + center,
        emission_vars=var_z * sd * sd,
    )


def _max_product_forward(model: GaussianHmm, observations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-domain max-product forward recursion over a nonempty sequence.

    Returns back-pointers ``back`` (T, K; row 0 unused) and ``last`` (T,),
    where ``last[t]`` is the argmax of the running maximum after
    observation t, i.e. the final state of the most likely path over the
    first t + 1 observations. Every argmax takes the lowest index on ties.
    """
    obs = np.asarray(observations, dtype=np.float64).ravel()
    if obs.shape[0] == 0:
        raise ValueError("observations must be nonempty")
    logb = _log_emissions(obs, model.emission_means, model.emission_vars)
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.initial_probs)
        log_a = np.log(model.transitions)
    t_len = obs.shape[0]
    k = model.n_states
    to_state = np.arange(k)
    delta = log_pi + logb[:, 0]
    back = np.empty((t_len, k), dtype=np.intp)
    last = np.empty(t_len, dtype=np.intp)
    last[0] = delta.argmax()
    for t in range(1, t_len):
        cand = delta[:, None] + log_a  # (from, to)
        best_from = cand.argmax(axis=0)  # first (lowest) index on ties
        delta = cand[best_from, to_state] + logb[:, t]
        back[t] = best_from
        last[t] = delta.argmax()
    return back, last


def viterbi(model: GaussianHmm, observations: np.ndarray) -> np.ndarray:
    """Most likely joint state path, log-domain.

    Ties break toward the lower state index, both at the final state and at
    every backtracking step.
    """
    back, last = _max_product_forward(model, observations)
    path = np.empty(last.shape[0], dtype=np.intp)
    path[-1] = last[-1]
    for t in range(path.shape[0] - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path


def label_regimes(model: GaussianHmm) -> dict[int, RegimeLabel]:
    """Map state index to regime: the largest emission mean is abnormal,
    with variance breaking exact mean ties."""
    order = sorted(
        range(model.n_states),
        key=lambda k: (float(model.emission_means[k]), float(model.emission_vars[k])),
    )
    abnormal = order[-1]
    return {k: (RegimeLabel.ABNORMAL if k == abnormal else RegimeLabel.NORMAL) for k in range(model.n_states)}


def predict_regime(model: GaussianHmm, rdc_history: np.ndarray) -> list[RegimeLabel]:
    """Online regime labels, one per prefix of the history.

    Element t is the regime of the final Viterbi state over
    ``rdc_history[:t + 1]``, so the last element labels the whole history.
    One forward pass computes them all.
    """
    _, last = _max_product_forward(model, rdc_history)
    labels = label_regimes(model)
    return [labels[s] for s in last.tolist()]


def state_posteriors(model: GaussianHmm, observations: np.ndarray) -> np.ndarray:
    """Per-time marginal state posteriors (T, K) from forward-backward."""
    obs = np.asarray(observations, dtype=np.float64).ravel()
    gamma, _, _ = _forward_backward(
        model.initial_probs, model.transitions, model.emission_means, model.emission_vars, obs
    )
    return gamma


def write_model(path: str | os.PathLike, model: GaussianHmm) -> None:
    abnormal = [k for k, lab in label_regimes(model).items() if lab is RegimeLabel.ABNORMAL][0]
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(model.n_states):
            fh.write(f"pi_{k} = {float(model.initial_probs[k])!r}\n")
        for i in range(model.n_states):
            for j in range(model.n_states):
                fh.write(f"a_{i}{j} = {float(model.transitions[i, j])!r}\n")
        for k in range(model.n_states):
            fh.write(f"mu_{k} = {float(model.emission_means[k])!r}\n")
            fh.write(f"var_{k} = {float(model.emission_vars[k])!r}\n")
        fh.write(f"abnormal_state = {abnormal}\n")


def read_model(path: str | os.PathLike) -> GaussianHmm:
    kv: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    n = sum(1 for key in kv if key.startswith("pi_"))
    pi = np.array([float(kv[f"pi_{k}"]) for k in range(n)])
    a = np.array([[float(kv[f"a_{i}{j}"]) for j in range(n)] for i in range(n)])
    mu = np.array([float(kv[f"mu_{k}"]) for k in range(n)])
    var = np.array([float(kv[f"var_{k}"]) for k in range(n)])
    return GaussianHmm(n, pi, a, mu, var)
