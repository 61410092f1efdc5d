"""Gaussian noise models, the tuning thresholds, and their tail bounds.

Every coordinate of the noise vector is N(0, sigma^2); coordinates may be
correlated. Three correlation structures are supported:

  * ``iid`` - independent coordinates,
  * ``ar1(rho)`` - stationary first-order autoregression with correlation
    rho^|i-j|, generated by the recursive filter z_i = rho z_{i-1} +
    sigma sqrt(1-rho^2) g_i with the variance-correcting start z_0 =
    sigma g_0, so the marginal variance is sigma^2 at every index. The
    recurrence is evaluated in index order on Python floats, which performs
    the definition's IEEE-double operations in the definition's order and
    so gives the same bytes (see ``sample_noise``),
  * ``explicit`` - any unit-diagonal PSD correlation matrix C; samples are
    sigma L g with L the symmetric PSD square root of C (eigenvalues
    clipped at zero, tolerance 1e-12).

The thresholds follow the l1-normalized-design tail analysis:
Lambda = 2 sigma sqrt(log n), Lambda_t = (1+t) sigma sqrt(log n),
eta_n = 1 / (sqrt(2 pi) n sqrt(log n)), and for t >= 1 the event
||X^T z||_inf <= Lambda_t has probability at least
1 - sqrt(2) / ((1+t) sqrt(pi log n) n^((1+t)^2/2 - 1)). Monte Carlo checks
compare empirical frequencies against those bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import DesignMatrix
from .rng import derive_seed, gaussians


@dataclass(eq=False)
class NoiseModel:
    n: int
    sigma: float
    kind: str = "iid"                       # "iid" | "ar1" | "explicit"
    rho: float | None = None
    corr: np.ndarray | None = None
    _sqrt: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.kind == "iid":
            pass
        elif self.kind == "ar1":
            if self.rho is None or not -1.0 < self.rho < 1.0:
                raise ValueError("ar1 needs rho in (-1, 1)")
        elif self.kind == "explicit":
            c = np.asarray(self.corr, dtype=np.float64)
            if not np.isfinite(c).all():        # NaN would pass every check below
                raise ValueError("correlation matrix must be finite")
            if c.shape != (self.n, self.n):
                raise ValueError(f"correlation matrix must be {self.n}x{self.n}")
            if float(np.max(np.abs(c - c.T))) > 1e-12:
                raise ValueError("correlation matrix must be symmetric")
            if float(np.max(np.abs(np.diag(c) - 1.0))) > 1e-12:
                raise ValueError("correlation matrix must have unit diagonal")
            vals, vecs = np.linalg.eigh(c)
            if float(vals[0]) < -1e-12:
                raise ValueError(f"correlation matrix is not PSD: eigenvalue {vals[0]}")
            self.corr = c
            self._sqrt = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        else:
            raise ValueError(f"unknown noise kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "ar1":
            return f"ar1({self.rho})"
        return self.kind


@dataclass
class Thresholds:
    sigma: float
    n: int
    t: float
    lam: float              # Lambda = 2 sigma sqrt(log n)
    lam_t: float            # Lambda_t = (1+t) sigma sqrt(log n)
    eta_n: float            # 1 / (sqrt(2 pi) n sqrt(log n))
    high_prob_bound: float  # lower bound on P(||X^T z||_inf <= Lambda_t)


def thresholds(sigma: float, n: int, t: float = 1.0) -> Thresholds:
    """All four threshold quantities, natural logarithm throughout."""
    if n < 2:
        raise ValueError("n must be >= 2 (log n would degenerate)")
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if not t >= 1:
        raise ValueError(f"t must be >= 1, got {t}")
    logn = math.log(n)
    root = math.sqrt(logn)
    lam = 2.0 * sigma * root
    lam_t = (1.0 + t) * sigma * root
    if not math.isfinite(lam_t):
        raise ValueError(f"Lambda_t overflows at sigma={sigma}, t={t}")
    eta = 1.0 / (math.sqrt(2.0 * math.pi) * n * root)
    try:
        bound = 1.0 - math.sqrt(2.0) / ((1.0 + t) * math.sqrt(math.pi * logn)
                                        * n ** ((1.0 + t) ** 2 / 2.0 - 1.0))
    except OverflowError:   # the power passes a double: the tail is below 2**-1024
        bound = 1.0
    return Thresholds(sigma, n, t, lam, lam_t, eta, bound)


def sample_noise(model: NoiseModel, seed: int) -> np.ndarray:
    """One noise vector; identical (model, seed) give identical samples.

    sigma = 0 returns zeros without drawing. The AR(1) filter evaluates
    z_i = rho z_{i-1} + (scale g_i) in index order on Python floats: the
    vectorised ``scale * g`` rounds each product as the scalar product
    does, and the addition commutes exactly, so the result is the
    definition's, bit for bit. Indexing numpy arrays in the loop would box
    three numpy scalars per step, which cost most of a draw; a prefix scan
    or closed form would change the rounding.
    """
    if model.sigma == 0.0:
        return np.zeros(model.n)
    g = gaussians(seed, model.n)
    if model.kind == "iid":
        return model.sigma * g
    if model.kind == "ar1":
        rho = model.rho
        scale = model.sigma * math.sqrt(1.0 - rho * rho)
        w = (scale * g).tolist()
        prev = w[0] = model.sigma * float(g[0])
        for i in range(1, model.n):
            prev = w[i] = rho * prev + w[i]
        return np.array(w)
    return model.sigma * (model._sqrt @ g)


@dataclass
class NoiseBoundCheck:
    frequency: float     # empirical P(||X^T z||_inf <= Lambda_t)
    bound: float         # theoretical lower bound for that probability
    passed: bool         # frequency >= bound - 3 binomial standard errors
    trials: int
    t: float
    lam_t: float
    nonamp_ok: bool      # ||X^T z||_inf <= ||z||_inf held on every draw

    def to_json_dict(self) -> dict:
        return {"frequency": self.frequency, "bound": self.bound, "pass": self.passed}


def empirical_noise_bound(X: DesignMatrix, model: NoiseModel, t: float,
                          trials: int, seed: int) -> NoiseBoundCheck:
    """Monte Carlo frequency of the event ||X^T z||_inf <= Lambda_t.

    Passing means the frequency is no more than three binomial standard
    errors (computed at the bound) below the theoretical lower bound. The
    sup-norm non-amplification ||X^T z||_inf <= ||z||_inf is recorded as a
    side check; it must hold exactly on every draw. At sigma = 0 every draw
    is zero and the bound is 1; n and t are validated at every sigma.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if model.n != X.n:
        raise ValueError(f"noise length {model.n} differs from design rows {X.n}")
    th = thresholds(model.sigma, model.n, t)
    bound = th.high_prob_bound if model.sigma > 0 else 1.0
    hits = 0
    nonamp_ok = True
    for k in range(trials):
        z = sample_noise(model, derive_seed(seed, k))
        xtz = float(np.max(np.abs(X.transpose_matvec(z))))
        if xtz <= th.lam_t:
            hits += 1
        if z.size and xtz > float(np.max(np.abs(z))):
            nonamp_ok = False
    freq = hits / trials
    se = math.sqrt(max(bound * (1.0 - bound), 0.0) / trials)
    return NoiseBoundCheck(freq, bound, freq >= bound - 3.0 * se, trials, t,
                           th.lam_t, nonamp_ok)
