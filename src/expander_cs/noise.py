"""Gaussian noise models, the tuning thresholds, and their tail bounds.

Every coordinate of the noise vector is N(0, sigma^2); coordinates may be
correlated. Three correlation structures are supported:

  * ``iid`` - independent coordinates,
  * ``ar1(rho)`` - stationary first-order autoregression with correlation
    rho^|i-j|, generated by the recursive filter z_i = rho z_{i-1} +
    sigma sqrt(1-rho^2) g_i with the variance-correcting start z_0 =
    sigma g_0, so the marginal variance is sigma^2 at every index. The
    samples are the definition's IEEE-double operations in the
    definition's order, bit for bit, however they are computed: a
    speculative scan proposes every position at once, one check confirms
    each position against the recurrence, and a sequential repair redoes
    what fails (see ``sample_noise_rows``),
  * ``explicit`` - any unit-diagonal PSD correlation matrix C; samples are
    sigma L g with L the symmetric PSD square root of C (eigenvalues
    clipped at zero, tolerance 1e-12).

The thresholds follow the l1-normalized-design tail analysis:
Lambda = 2 sigma sqrt(log n), Lambda_t = (1+t) sigma sqrt(log n),
eta_n = 1 / (sqrt(2 pi) n sqrt(log n)), and for t >= 1 the event
||X^T z||_inf <= Lambda_t has probability at least
1 - sqrt(2) / ((1+t) sqrt(pi log n) n^((1+t)^2/2 - 1)). Monte Carlo checks
compare empirical frequencies against those bounds; ``trial_noise`` draws
their noise in blocks of at most _BLOCK entries, one row per trial, and
its consumers take each block's products in one stack product (blocks of
at most the design's ``stack_rows`` rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import DesignMatrix
from .rng import derive_seed, gaussians

_BLOCK = 1 << 14  # entries of one block of noise rows drawn together
_STEP = 32        # one scan step costs about the repair loop on this many entries


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
    The one-row case of ``sample_noise_rows``: an AR(1) row that is too
    short for the speculative scan to pay runs the recurrence itself."""
    return sample_noise_rows(model, [seed])[0]


def sample_noise_rows(model: NoiseModel, seeds) -> np.ndarray:
    """One noise row per seed, row r byte for byte ``sample_noise(model,
    seeds[r])``; the rows are drawn together, so callers keep
    len(seeds) * n near _BLOCK (see ``trial_noise``).

    sigma = 0 returns zeros without drawing. iid rows scale the Gaussians,
    and explicit rows multiply them by the correlation root one row at a
    time. AR(1) rows come from ``_ar1``: w = scale g rounds each product
    as the scalar product does, and every z_i is fl(fl(rho z_{i-1}) + w_i)
    in index order, the definition's rounding bit for bit.
    """
    if model.sigma == 0.0:
        return np.zeros((len(seeds), model.n))
    g = gaussians(seeds, model.n)
    if model.kind == "iid":
        g *= model.sigma
        return g
    if model.kind == "ar1":
        first = model.sigma * g[:, 0]
        g *= model.sigma * math.sqrt(1.0 - model.rho * model.rho)
        g[:, 0] = first
        return _ar1(g, model.rho)[0]
    z = np.empty(g.shape)
    for r, row in enumerate(g):
        z[r] = model.sigma * (model._sqrt @ row)
    return z


def block_rows(n: int, max_rows: int | None = None) -> int:
    """Rows of a block of trials whose rows have n entries: at most _BLOCK
    entries (one row when n passes it) and at most ``max_rows`` rows."""
    rows = max(1, _BLOCK // n)
    return rows if max_rows is None else max(1, min(rows, max_rows))


def trial_noise(model: NoiseModel, seed: int, trials: int, max_rows: int | None = None):
    """Yield the noise of trials 0 .. trials-1, trial k drawn from
    derive_seed(seed, k), in (rows, n) blocks of at most _BLOCK entries
    (one row when n passes it) and at most ``max_rows`` rows: row r of a
    block is the trial that follows the previous blocks' rows. Consumers
    that stack a block's products pass the design's ``stack_rows``, which
    bounds the (rows, p) arrays they hold."""
    rows = block_rows(model.n, max_rows)
    for first in range(0, trials, rows):
        seeds = [derive_seed(seed, k) for k in range(first, min(first + rows, trials))]
        yield sample_noise_rows(model, seeds)


def _ar1(w: np.ndarray, rho: float) -> tuple[np.ndarray, int]:
    """The rows z of z_0 = w_0, z_i = fl(fl(rho z_{i-1}) + w_i) for the
    rows of w, and the number of positions the sequential repair computed.

    Speculate: positions 1 .. n-1 are cut into chunks, and every chunk of
    every row runs the recurrence at once from 0, ``burn`` positions before
    its first (``_scan``). |rho|^burn <= 2**-64, so the contracting
    recurrence has forgotten its wrong start, to the last bit, well before
    the chunk begins; a burn-in that would reach back past position 0
    starts there, from z_0 itself. Check: one vectorised pass computes
    fl(fl(rho z_{i-1}) + w_i) at every position and compares bits. A
    candidate that passes at every position is, by induction, the
    sequential result. Repair: ``_repair`` recomputes on Python floats
    from each failing position. Where the scan's steps cost more than the
    recurrence it replaces (one row, or |rho| near 1), nothing is
    speculated and the repair runs every row from position 1, which is
    the recurrence itself.
    """
    rows, n = w.shape
    burn = 0 if rho == 0.0 else math.ceil(64 / -math.log2(abs(rho)))
    # a step's fixed cost is about that of 1024 entries' arithmetic, so this
    # chunk length balances the step count against the repeated burn-in work
    chunk = max(1, min(n - 1, math.isqrt(burn * rows * n >> 10)))
    count = -(-(n - 1) // chunk)
    burn = min(burn, 1 + (count - 1) * chunk)   # the last chunk's reaches back to position 0
    if (burn + chunk) * _STEP <= rows * n:
        z = _scan(w, rho, burn, chunk)
        fit = z[:, :-1] * rho
        fit += w[:, 1:]
        bad = fit.view(np.uint64) != z[:, 1:].view(np.uint64)
        starts: dict[int, list[int]] = {}
        if bad.any():
            bad_rows, bad_cols = np.nonzero(bad)
            for r, i in zip(bad_rows.tolist(), (bad_cols + 1).tolist()):
                starts.setdefault(r, []).append(i)
    else:
        z, chunk = w, n
        starts = {r: [1] for r in range(rows)} if n > 1 else {}
    work = 0
    for r, first in starts.items():
        row = z[r].tolist()
        work += _repair(row, row if z is w else w[r].tolist(), rho, first, chunk)
        z[r] = row
    return z, work


def _scan(w: np.ndarray, rho: float, burn: int, chunk: int) -> np.ndarray:
    """Candidate rows for ``_ar1``. Chunk c holds positions 1 + c chunk ..
    (c+1) chunk and runs the recurrence from 0 at ``burn`` positions
    before its first (w = 0 before position 0). Each step advances every
    row and chunk by one multiply and one add: the state is a contiguous
    (rows, chunks) array, and the step reads one offset of every chunk
    from a copy of w laid out in whole chunks, after enough leading chunks
    of zeros (and w_0) for the burn-in."""
    rows, n = w.shape
    count = -(-(n - 1) // chunk)
    lead = -(-burn // chunk) + 1                   # chunks of zeros, then w_0, before position 1
    flat = np.zeros((rows, (lead + count) * chunk))
    flat[:, lead * chunk - 1:lead * chunk - 1 + n] = w
    src = flat.reshape(rows, lead + count, chunk)  # src[:, lead + c, j] is w at c chunk + j + 1
    cand = np.empty((chunk, rows, count))
    prev = np.zeros((rows, count))
    for t in range(-burn, chunk):
        out = prev if t < 0 else cand[t]
        np.multiply(prev, rho, out=out)
        c = lead + t // chunk
        out += src[:, c:c + count, t % chunk]
        prev = out
    src[:, lead:] = cand.transpose(1, 2, 0)        # candidates replace w from position 1 on
    return flat[:, lead * chunk - 1:lead * chunk - 1 + n]


def _repair(z: list, w: list, rho: float, starts: list[int], chunk: int) -> int:
    """Recompute z_i = rho z_{i-1} + w_i on Python floats from each
    position in ``starts`` (ascending) through the first position of the
    next chunk, where a wrong chunk start has usually been outgrown, and
    on through later chunks' first positions until the value there
    equals, bit for bit, the one z held. Every position after it up to
    the next start passed the check against a right predecessor, so z is
    right up to there. Returns the number of positions computed."""
    n = len(z)
    work = done = 0
    for i in starts:
        if i < done:
            continue
        while True:
            stop = min(n, i + chunk - (i - 1) % chunk + 1)
            held = z[stop - 1]
            prev = z[i - 1]
            for j in range(i, stop):
                prev = z[j] = rho * prev + w[j]
            work += stop - i
            i = done = stop
            if stop == n or (prev == held and math.copysign(1.0, prev) == math.copysign(1.0, held)):
                break
    return work


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
    for z in trial_noise(model, seed, trials, X.stack_rows):
        xtz = np.max(np.abs(X.transpose_matvec(z)), axis=1)
        hits += int(np.count_nonzero(xtz <= th.lam_t))
        if np.any(xtz > np.max(np.abs(z), axis=1)):
            nonamp_ok = False
    freq = hits / trials
    se = math.sqrt(max(bound * (1.0 - bound), 0.0) / trials)
    return NoiseBoundCheck(freq, bound, freq >= bound - 3.0 * se, trials, t,
                           th.lam_t, nonamp_ok)
