"""Sequential surrogate search over the (theta, alpha) box.

A Matern-5/2 Gaussian process on unit-box-normalized inputs drives
expected-improvement selection after a Latin-hypercube initial design.
Each proposal is the candidate with the highest closed-form expected
improvement among uniform draws plus crossovers of the incumbent; there is
no gradient polish. Everything is driven by one seeded generator, so a run
replays exactly.

The surrogate needs numpy only. Across a search it keeps, per lengthscale,
one Cholesky factor and its inverse, and borders both with one row per
trial, so the likelihood and the posterior are matrix products (Rasmussen &
Williams, *Gaussian Processes for Machine Learning*, 2006, Alg. 2.1). A
search runs with the loaded OpenBLAS pinned to one thread.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .ingest import write_csv

__all__ = [
    "SearchSpace",
    "Trial",
    "FAILED_OBJECTIVE",
    "check_budget",
    "optimize",
    "optimize_theta_only",
    "write_trials",
]

# Sentinel recorded for objective evaluations that returned a non-finite
# value; such trials are excluded from surrogate fitting.
FAILED_OBJECTIVE = -1e18

# Observation-noise nugget relative to the amplitude: 1e-6 standard
# deviation on standardized objectives at unit amplitude, escalated only if
# a lengthscale's factor needs it.
_NUGGET_VAR = 1e-12
_NUGGET_VAR_MAX = 1e-3
_N_CANDIDATES = 256
_N_CROSSOVER = 64
_LENGTHSCALES = (0.08, 0.15, 0.25, 0.4, 0.65, 1.0, 1.6)
_AMPLITUDES = (0.25, 1.0, 4.0)  # squares of powers of two
_AMP = np.array(_AMPLITUDES)
_LOG_AMP = np.log(_AMP)
# (prefix, suffix) of the thread-count symbols of OpenBLAS builds: plain, and
# the scipy-openblas wheels bundled with scipy and (64-bit ints) with numpy.
_OPENBLAS_SYMBOLS = (("openblas", ""), ("scipy_openblas", "64_"), ("scipy_openblas", ""))


@dataclass(frozen=True)
class SearchSpace:
    """Closed box for the threshold pair, optionally pinning alpha."""

    theta_bounds: tuple[float, float] = (0.0003, 0.003)
    alpha_bounds: tuple[float, float] = (0.1, 1.0)
    alpha_fixed: float | None = None

    def __post_init__(self) -> None:
        # Every point of the box must suit the detector, 0 < theta and
        # 0 < alpha <= 1; ``from_unit`` keeps theta below alpha.
        if not all(map(math.isfinite, (*self.theta_bounds, *self.alpha_bounds))):
            raise ValueError(f"search bounds must be finite, got theta_bounds={self.theta_bounds} "
                             f"alpha_bounds={self.alpha_bounds}")
        if not self.theta_bounds[0] < self.theta_bounds[1]:
            raise ValueError("theta_bounds must be well ordered")
        if not self.alpha_bounds[0] < self.alpha_bounds[1]:
            raise ValueError("alpha_bounds must be well ordered")
        if not self.theta_bounds[0] > 0:
            raise ValueError(f"theta_bounds must lie above 0, got {self.theta_bounds}")
        if not (self.alpha_bounds[0] > 0 and self.alpha_bounds[1] <= 1):
            raise ValueError(f"alpha_bounds must lie in (0, 1], got {self.alpha_bounds}")
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


def _matern52(sq_dists: np.ndarray, ell: float | np.ndarray) -> np.ndarray:
    """Matern-5/2 correlation at squared distances, for lengthscale ``ell``."""
    s = np.multiply(sq_dists, 5.0 / (ell * ell))
    np.sqrt(s, out=s)
    poly = s * s
    poly /= 3.0
    poly += s
    poly += 1.0
    np.negative(s, out=s)
    np.exp(s, out=s)
    poly *= s
    return poly


def _cross_sq_dists(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    sq = np.subtract.outer(xa[:, 0], xb[:, 0])
    sq *= sq
    for axis in range(1, xa.shape[1]):
        diff = np.subtract.outer(xa[:, axis], xb[:, axis])
        diff *= diff
        sq += diff
    return sq


def _solve(low: np.ndarray, inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``L⁻¹b`` by products only, from a triangular factor and its inverse.

    Applying the explicit inverse loses accuracy on an ill-conditioned
    matrix, where ``L⁻¹b`` cancels heavily; one refinement step against
    ``L`` brings it to what a triangular solve gives.
    """
    x = inv @ b
    return x + inv @ (b - low @ x)


class _Gp:
    """Matern-5/2 GP over the successful trials, with (lengthscale,
    amplitude) picked from a small grid by marginal likelihood.

    For each lengthscale it keeps the Cholesky factor ``L`` of the
    unit-amplitude kernel matrix ``R + nugget·I`` and its inverse ``L⁻¹``,
    stacked over lengthscales. Each trial borders both with one row: with
    ``l = L⁻¹k`` and ``d = √(1 + nugget − l·l)``, ``L`` gains ``[lᵀ, d]``
    and ``L⁻¹`` gains ``[−lᵀL⁻¹/d, 1/d]``, so a trial costs O(n²) and no
    factorization. Where ``d²`` is not positive that lengthscale's nugget is
    escalated and its factor rebuilt row by row; the refinement in
    :func:`_solve` keeps ``d²`` as accurate as a Cholesky factorization's
    pivot, so it escalates where that would fail.

    Observations are standardized at each fit. Amplitude ``a`` scales the
    whole kernel matrix, nugget included: ``K = a·LLᵀ``, so with
    ``z = L⁻¹y`` the likelihood needs only ``z·z / a`` and
    ``log det L + n·log(a) / 2``, and each factor serves all three
    amplitudes (powers of two, so the scaling is exact).
    """

    def __init__(self, ndim: int, capacity: int) -> None:
        self.ys: list[float] = []
        self.nugget = np.full(len(_LENGTHSCALES), _NUGGET_VAR)
        self._ell = np.array(_LENGTHSCALES)[:, None]
        # Buffers with room for ``capacity`` trials; the first n rows are in use.
        self._x = np.zeros((capacity, ndim))
        self._low = np.zeros((len(_LENGTHSCALES), capacity, capacity))
        self._inv = np.zeros_like(self._low)

    @property
    def x(self) -> np.ndarray:
        return self._x[: len(self.ys)]

    def add(self, u: np.ndarray, value: float) -> None:
        n = len(self.ys)
        self._x[n] = u
        self.ys.append(value)
        ok = self._border(slice(None), n)
        if not ok.all():
            for i in np.flatnonzero(~ok):
                self._rebuild(i, n)

    def _border(self, rows: slice, n: int) -> np.ndarray:
        """Border the factors of lengthscales ``rows`` with trial ``n``;
        returns per lengthscale whether its pivot was positive."""
        low, inv = self._low[rows, :n, :n], self._inv[rows, :n, :n]
        diff = self._x[:n] - self._x[n]
        k = _matern52(np.einsum("ij,ij->i", diff, diff), self._ell[rows])
        l = _solve(low, inv, k[:, :, None])
        d2 = 1.0 + self.nugget[rows] - np.einsum("bij,bij->b", l, l)
        ok = d2 > 0.0
        d = np.sqrt(np.where(ok, d2, 1.0))
        self._low[rows, n, :n] = l[:, :, 0]
        self._low[rows, n, n] = d
        self._inv[rows, n, :n] = (l.transpose(0, 2, 1) @ inv)[:, 0, :] / -d[:, None]
        self._inv[rows, n, n] = 1.0 / d
        return ok

    def _rebuild(self, i: int, n: int) -> None:
        """Refactor lengthscale ``i`` over trials ``0..n`` at the next nugget up."""
        one = slice(i, i + 1)
        while True:
            self.nugget[i] *= 100.0
            if self.nugget[i] > _NUGGET_VAR_MAX:
                raise np.linalg.LinAlgError("kernel matrix is not positive definite at the largest nugget")
            if all(self._border(one, j)[0] for j in range(n + 1)):
                return

    def fit(self) -> None:
        """Standardize the observations and pick the hyperparameters."""
        n = len(self.ys)
        y = np.array(self.ys)
        y -= y.sum() / n
        y_std = math.sqrt(float(y @ y) / n)
        y /= y_std if y_std > 0.0 else 1.0
        low = self._low[:, :n, :n]
        z = _solve(low, self._inv[:, :n, :n], y[:, None])[:, :, 0]
        quad = np.einsum("ij,ij->i", z, z)[:, None]  # yᵀK⁻¹y = z·z / a
        log_det = np.log(np.diagonal(low, axis1=1, axis2=2)).sum(axis=1)[:, None]  # log det L
        # Log marginal likelihood per (lengthscale, amplitude); the first
        # maximum in that order wins ties.
        self.lml = -0.5 * quad / _AMP - (log_det + 0.5 * n * _LOG_AMP) - 0.5 * n * math.log(2.0 * math.pi)
        self._i, j = divmod(int(self.lml.argmax()), len(_AMPLITUDES))
        self.ell, self.amp = _LENGTHSCALES[self._i], _AMPLITUDES[j]
        self._z = z[self._i]
        self.best = float(y.max())

    def posterior(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, i = len(self.ys), self._i
        # With u = L⁻¹k*ᵀ at unit amplitude: mean a·k*K⁻¹y = uᵀz, variance a·(1 − u·u).
        k = _matern52(_cross_sq_dists(self.x, xq), self.ell)
        u = _solve(self._low[i, :n, :n], self._inv[i, :n, :n], k)
        mu = self._z @ u
        var = np.maximum(self.amp - self.amp * np.einsum("ij,ij->j", u, u), 1e-12)
        return mu, var


_SQRT_HALF = math.sqrt(0.5)


def _expected_improvement(gp: _Gp, xq: np.ndarray) -> np.ndarray:
    mu, var = gp.posterior(xq)
    sd = np.sqrt(var)
    z = (mu - gp.best) / sd
    cdf = 0.5 * np.fromiter(map(math.erfc, (z * -_SQRT_HALF).tolist()), dtype=np.float64, count=z.size)
    return sd * (z * cdf + np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))


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


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count functions of every OpenBLAS mapped into this
    process when first asked (numpy's is loaded with numpy); empty off Linux
    or where none is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # only ever a library already loaded
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block with every loaded OpenBLAS on one thread, then restore
    each previous count. The GP's matrices have one row per trial, where
    waking a second thread costs more than it saves."""
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, previous):
            set_threads(count)


def check_budget(n_iters: int, n_init: int) -> None:
    """Raise ``ValueError`` unless ``n_iters >= n_init >= 1`` (evaluations in all, and in the initial design)."""
    if not n_iters >= n_init >= 1:
        raise ValueError(f"require iters >= init >= 1, got iters={n_iters} init={n_init}")


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
    check_budget(n_iters, n_init)
    ndim = space.ndim
    rng = np.random.default_rng(seed)

    # Latin hypercube: one point in each of n_init strata along every axis.
    strata = np.column_stack([rng.permutation(n_init) for _ in range(ndim)])
    units = (strata + rng.random((n_init, ndim))) / n_init

    history: list[Trial] = []
    gp = _Gp(ndim, n_iters)

    def _evaluate(u: np.ndarray) -> None:
        theta, alpha = space.from_unit(u)
        raw = objective_fn(theta, alpha)
        ok = raw is not None and math.isfinite(raw)
        value = float(raw) if ok else FAILED_OBJECTIVE
        history.append(Trial(len(history), theta, alpha, value))
        if ok:
            gp.add(np.asarray(u, dtype=np.float64), value)

    with _one_blas_thread():
        for u in units:
            _evaluate(u)

        while len(history) < n_iters:
            if len(gp.ys) >= 2:
                gp.fit()
                incumbent = gp.x[int(np.argmax(gp.ys))]
                u = _propose(gp, ndim, rng, incumbent)
            else:
                # Not enough surrogate data (e.g. failed evaluations): fall
                # back to a seeded uniform draw.
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
    iterations = np.array([t.iteration for t in history], dtype=np.int64)
    values = np.array([(t.theta, t.alpha, t.objective) for t in history], dtype=np.float64).reshape(-1, 3)
    write_csv(path, "iteration,theta,alpha,objective", [iterations, *values.T])
