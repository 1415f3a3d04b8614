"""Sequential surrogate search over the (theta, alpha) box.

A Matern-5/2 Gaussian process on unit-box-normalized inputs drives
expected-improvement selection after a Latin-hypercube initial design.
Each proposal is the candidate with the highest closed-form expected
improvement among uniform draws plus crossovers of the incumbent; there is
no gradient polish. Everything is driven by one seeded generator, so a run
replays exactly.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.special import ndtr

__all__ = [
    "SearchSpace",
    "Trial",
    "FAILED_OBJECTIVE",
    "optimize",
    "optimize_theta_only",
    "write_trials",
]

# Sentinel recorded for objective evaluations that returned a non-finite
# value; such trials are excluded from surrogate fitting.
FAILED_OBJECTIVE = -1e18

# Observation-noise nugget: 1e-6 standard deviation on standardized
# objectives, escalated only if the Cholesky factorization needs it.
_NUGGET_VAR = 1e-12
_NUGGET_VAR_MAX = 1e-3
_N_CANDIDATES = 256
_N_CROSSOVER = 64
_LENGTHSCALES = (0.08, 0.15, 0.25, 0.4, 0.65, 1.0, 1.6)
_AMPLITUDES = (0.25, 1.0, 4.0)


@dataclass(frozen=True)
class SearchSpace:
    """Closed box for the threshold pair, optionally pinning alpha."""

    theta_bounds: tuple[float, float] = (0.0003, 0.003)
    alpha_bounds: tuple[float, float] = (0.1, 1.0)
    alpha_fixed: float | None = None

    def __post_init__(self) -> None:
        if not self.theta_bounds[0] < self.theta_bounds[1]:
            raise ValueError("theta_bounds must be well ordered")
        if not self.alpha_bounds[0] < self.alpha_bounds[1]:
            raise ValueError("alpha_bounds must be well ordered")
        if self.alpha_fixed is not None:
            lo, hi = self.alpha_bounds
            if not (lo <= self.alpha_fixed <= hi or self.alpha_fixed == 1.0):
                raise ValueError("alpha_fixed must lie in alpha_bounds or equal 1")

    @property
    def ndim(self) -> int:
        return 1 if self.alpha_fixed is not None else 2

    def from_unit(self, u: np.ndarray) -> tuple[float, float]:
        t_lo, t_hi = self.theta_bounds
        theta = t_lo + float(u[0]) * (t_hi - t_lo)
        if self.alpha_fixed is not None:
            alpha = float(self.alpha_fixed)
        else:
            a_lo, a_hi = self.alpha_bounds
            alpha = a_lo + float(u[1]) * (a_hi - a_lo)
        # The detector requires theta < alpha; inside the default box this
        # never binds (alpha >= 0.1 > theta_max).
        if theta >= alpha:
            theta = math.nextafter(alpha, 0.0)
        return theta, alpha


@dataclass(frozen=True)
class Trial:
    iteration: int
    theta: float
    alpha: float
    objective: float


def _matern52(sq_dists: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.maximum(sq_dists, 0.0))
    s = math.sqrt(5.0) * d
    return (1.0 + s + s * s / 3.0) * np.exp(-s)


def _cross_sq_dists(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    diff = xa[:, None, :] - xb[None, :, :]
    return (diff * diff).sum(axis=-1)


class _Gp:
    """Matern-5/2 GP with hyperparameters picked from a small grid by
    marginal likelihood; observations standardized internally."""

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        self.x = x
        self.y_mean = float(y.mean())
        self.y_std = float(y.std())
        if self.y_std <= 0.0:
            self.y_std = 1.0
        self.y = (y - self.y_mean) / self.y_std
        n = x.shape[0]
        sq = _cross_sq_dists(x, x)
        eye = np.eye(n)
        best = None
        for ell in _LENGTHSCALES:
            base = _matern52(sq / (ell * ell))
            for amp in _AMPLITUDES:
                low = None
                nugget = _NUGGET_VAR
                while nugget <= _NUGGET_VAR_MAX:
                    try:
                        low = cholesky(amp * base + nugget * eye, lower=True)
                        break
                    except np.linalg.LinAlgError:
                        nugget *= 100.0
                if low is None:
                    continue
                alpha_vec = cho_solve((low, True), self.y)
                lml = -0.5 * float(self.y @ alpha_vec) - float(np.log(np.diag(low)).sum()) - 0.5 * n * math.log(
                    2.0 * math.pi
                )
                if best is None or lml > best[0]:
                    best = (lml, ell, amp, low, alpha_vec)
        assert best is not None
        _, self.ell, self.amp, self._low, self._alpha = best

    def posterior(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ks = self.amp * _matern52(_cross_sq_dists(xq, self.x) / (self.ell * self.ell))
        mu = ks @ self._alpha
        v = cho_solve((self._low, True), ks.T)
        var = np.maximum(self.amp - (ks * v.T).sum(axis=1), 1e-12)
        return mu, var

    def best_standardized(self) -> float:
        return float(self.y.max())


def _expected_improvement(gp: _Gp, xq: np.ndarray) -> np.ndarray:
    mu, var = gp.posterior(xq)
    sd = np.sqrt(var)
    z = (mu - gp.best_standardized()) / sd
    return sd * (z * ndtr(z) + np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))


def _propose(gp: _Gp, ndim: int, rng: np.random.Generator, incumbent: np.ndarray) -> np.ndarray:
    cands = rng.random((_N_CANDIDATES, ndim))
    if ndim > 1:
        # Incumbent crossover: vary one coordinate at a time around the best
        # point so the acquisition can refine each axis independently.
        extra = np.tile(incumbent, (_N_CROSSOVER, 1))
        rows = np.arange(_N_CROSSOVER)
        extra[rows, rows % ndim] = rng.random(_N_CROSSOVER)
        cands = np.vstack([cands, extra])
    return cands[int(_expected_improvement(gp, cands).argmax())]


def optimize(
    objective_fn: Callable[[float, float], float],
    space: SearchSpace | None = None,
    n_iters: int = 100,
    n_init: int = 10,
    seed: int = 0,
) -> tuple[Trial, list[Trial]]:
    """Maximize ``objective_fn(theta, alpha)`` with exactly ``n_iters``
    evaluations; returns the best trial (earliest on ties) and the history.
    """
    space = space or SearchSpace()
    if n_init < 1 or n_iters < n_init:
        raise ValueError("require n_iters >= n_init >= 1")
    ndim = space.ndim
    rng = np.random.default_rng(seed)

    # Latin hypercube: one point in each of n_init strata along every axis.
    strata = np.column_stack([rng.permutation(n_init) for _ in range(ndim)])
    units = (strata + rng.random((n_init, ndim))) / n_init

    history: list[Trial] = []
    xs: list[np.ndarray] = []
    ys: list[float] = []

    def _evaluate(u: np.ndarray) -> None:
        theta, alpha = space.from_unit(u)
        raw = objective_fn(theta, alpha)
        ok = raw is not None and math.isfinite(raw)
        value = float(raw) if ok else FAILED_OBJECTIVE
        history.append(Trial(len(history), theta, alpha, value))
        if ok:
            xs.append(np.asarray(u, dtype=np.float64))
            ys.append(value)

    for u in units:
        _evaluate(u)

    while len(history) < n_iters:
        if len(xs) >= 2:
            gp = _Gp(np.vstack(xs), np.asarray(ys))
            incumbent = xs[int(np.argmax(ys))]
            u = _propose(gp, ndim, rng, incumbent)
        else:
            # Not enough surrogate data (e.g. failed evaluations): fall back
            # to a seeded uniform draw.
            u = rng.random(ndim)
        _evaluate(u)

    best = max(history, key=lambda t: (t.objective, -t.iteration))
    return best, history


def optimize_theta_only(
    objective_fn: Callable[[float, float], float],
    space: SearchSpace | None = None,
    n_iters: int = 100,
    n_init: int = 10,
    seed: int = 0,
) -> tuple[Trial, list[Trial]]:
    """One-dimensional variant with the decay coefficient pinned at 1."""
    base = space or SearchSpace()
    pinned = SearchSpace(theta_bounds=base.theta_bounds, alpha_bounds=base.alpha_bounds, alpha_fixed=1.0)
    return optimize(objective_fn, pinned, n_iters=n_iters, n_init=n_init, seed=seed)


def write_trials(path: str | os.PathLike, history: Sequence[Trial]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,theta,alpha,objective\n")
        for t in history:
            fh.write(f"{t.iteration},{t.theta:.10g},{t.alpha:.10g},{t.objective:.10g}\n")
