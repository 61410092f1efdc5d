"""Certify or refute the structural conditions a design must satisfy.

Ground truth is the exact expansion certificate on the graph. It decides
every left subset of size 1..s, but it examines only the subsets that are
connected in the collision graph (left vertices linked when they share a
right vertex): neighbor counts add up over components, so the first
violator and the first worst subset of a full (size, lex) scan are always
connected, and the report equals that scan's, ``trials`` included (see
:func:`check_expansion_exhaustive`). The vector-quantified conditions
(RIP-1, the uncertainty-principle inequality, kernel concentration) are
quantified over all of R^p and can only be falsified by sampling, so those
checks are one-sided: a failure is definitive, a pass means "no violation
found". The nullspace property gets an exact LP-based decision at tiny
scale.

Sampling distributions are fixed: supports are uniform without
replacement, sparse magnitudes are uniform in [-1, 1], and dense test
vectors are standard Gaussian; every check derives all randomness from its
(seed, trial-index) pair, so verdicts do not depend on scheduling.

Reports serialize to JSON objects with exactly the fields ``condition``,
``ok``, ``worst_ratio``, ``witness``, ``trials`` and ``seed``. A failing
report carries enough of the witness to re-check the violation standalone
(see :func:`recheck_violation`); a non-finite worst ratio serializes as
null with the exact numerator and denominator kept in the witness.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .errors import CapacityError, SolverStatusError
from .graphs import BipartiteGraph, neighbor_set
from .rng import Stream, derive_seed, gaussians
from .solve import LinearProgram, lp_solve

SLACK = 1e-9  # absolute slack for near-integer / floating comparisons
EXPANSION_BUDGET = 10**7  # default cap on the subsets an exhaustive expansion check covers
NSP_BUDGET = 10**4        # default cap on the subset/sign pairs of the NSP oracle
MAX_MASK_BITS = 1 << 32   # cap on the bits of an expansion check's bitmasks: 512 MiB


@dataclass
class VerificationReport:
    condition: str
    ok: bool
    worst_ratio: float | None
    witness: dict | None
    trials: int | None
    seed: int | None

    def to_json_dict(self) -> dict:
        ratio = self.worst_ratio
        if ratio is not None and not math.isfinite(ratio):
            ratio = None
        return {
            "condition": self.condition,
            "ok": self.ok,
            "worst_ratio": ratio,
            "witness": self.witness,
            "trials": self.trials,
            "seed": self.seed,
        }


def report_from_json_dict(obj: dict) -> VerificationReport:
    try:
        return VerificationReport(
            str(obj["condition"]), bool(obj["ok"]),
            None if obj["worst_ratio"] is None else float(obj["worst_ratio"]),
            obj["witness"], obj["trials"], obj["seed"])
    except KeyError as exc:
        raise ValueError(f"verification report is missing field {exc}") from exc


def _subset_budget(p: int, s: int) -> int:
    return sum(math.comb(p, k) for k in range(1, s + 1))


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def _least_counts(d: int, s: int, eps: float) -> list[int]:
    """Entry k is the least neighbor count that k left vertices may have
    without violating |N(I)| >= (1 - eps) d |I| (beyond SLACK); d k + 1
    when every count violates."""
    return [bisect.bisect_left(range(d * k + 1), True,
                               key=lambda c: not c + SLACK < (1.0 - eps) * d * k)
            for k in range(s + 1)]


def _check_mask_bits(bits: int) -> None:
    """Refuse, before any bitmask is built, a check whose masks would hold
    more than MAX_MASK_BITS bits."""
    if bits > MAX_MASK_BITS:
        raise CapacityError(f"expansion bitmasks of {bits} bits exceed limit {MAX_MASK_BITS}")


def _expansion_scan(g: BipartiteGraph, subsets, s: int, eps: float):
    """Shared core: scan subsets, track the first strict minimum of
    |N(I)| / (d |I|) and stop at the first violator.
    Returns (first violator or None, worst ratio, witness, subsets examined)."""
    masks = [0] * g.p
    for i, nb in enumerate(g.neighbors.tolist()):
        m = 0
        for j in nb:
            m |= 1 << j
        masks[i] = m
    worst = math.inf
    worst_subset = None
    worst_count = 0
    violator = None
    examined = 0
    least = _least_counts(g.d, s, eps)
    for subset in subsets:
        examined += 1
        m = 0
        for i in subset:
            m |= masks[i]
        cnt = m.bit_count()
        ratio = cnt / (g.d * len(subset))
        if ratio < worst:
            worst, worst_subset, worst_count = ratio, tuple(subset), cnt
        if cnt < least[len(subset)]:
            violator = tuple(subset)
            break
    witness = {"s": s, "eps": eps, "p": g.p, "n": g.n, "d": g.d,
               "subset": list(worst_subset), "neighbor_count": worst_count}
    return violator, worst, witness, examined


def _collision_graph(g: BipartiteGraph) -> list[int]:
    """Left-vertex collision graph: entry i is a bitmask with bit j set when
    left vertices i != j share a right vertex."""
    table = g.neighbors.tolist()
    rows = [0] * g.n
    for i, nb in enumerate(table):
        bit = 1 << i
        for j in nb:
            rows[j] |= bit
    adj = []
    for i, nb in enumerate(table):
        m = 0
        for j in nb:
            m |= rows[j]
        adj.append(m & ~(1 << i))
    return adj


def _connected_sets(adj: list[int], root: int, k: int, cap: int) -> list[tuple[int, ...]]:
    """The k-sets (k >= 2) that are connected in the collision graph and
    whose smallest vertex is ``root``, as ascending tuples in lex order.
    Raises CapacityError as soon as more than ``cap`` are found.

    ESU enumeration (Wernicke 2006): a set grows only by vertices above the
    root that neighbor it, and a vertex joins the candidate list only
    through the first member it neighbors, so each set is built once."""
    above = ~((2 << root) - 1)
    if not adj[root] & above:
        return []
    found = []
    stack = [((root,), adj[root] | (1 << root), adj[root] & above)]
    while stack:
        members, closed, ext = stack.pop()
        while ext:
            low = ext & -ext
            ext ^= low
            w = low.bit_length() - 1
            grown = (*members, w) if w > members[-1] else tuple(sorted((*members, w)))
            if len(grown) == k:
                found.append(grown)
                if len(found) > cap:
                    raise CapacityError(f"connected {k}-sets exceed the budget ({cap} left)")
            else:
                stack.append((grown, closed | adj[w], ext | (adj[w] & ~closed & above)))
    found.sort()
    return found


def _connected_subsets(g: BipartiteGraph, s: int, budget: int = EXPANSION_BUDGET):
    """Connected subsets of size 1..s in (size, lex) order, one (size,
    smallest vertex) block at a time; past ``budget`` raises CapacityError."""
    left = budget - g.p
    if left < 0:
        raise CapacityError(f"{g.p} singletons exceed budget {budget}")
    yield from ((i,) for i in range(g.p))
    adj = _collision_graph(g)
    for k in range(2, s + 1):
        for root in range(g.p):
            block = _connected_sets(adj, root, k, left)
            left -= len(block)
            yield from block
            del block  # freed before the next block is built


def _lex_rank(subset: tuple[int, ...], p: int) -> int:
    """0-based position of an ascending k-subset of range(p) among all
    k-subsets in lex order (combinatorial number system)."""
    k = len(subset)
    rank = 0
    prev = -1
    for i, c in enumerate(subset):
        rank += math.comb(p - prev - 1, k - i) - math.comb(p - c, k - i)
        prev = c
    return rank


def _check_eps(eps: float) -> None:
    """Reject an eps outside (0, 1), NaN included: the bound
    (1 - eps) d |I| would then hold for every graph or for none."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"need 0 < eps < 1, got eps={eps!r}")


def _check_s_range(p: int, s: int, trials: int = 1) -> None:
    """Reject an order s outside [1, p] and, for a sampled check, fewer
    than one trial: either would make the report vacuous."""
    if not 1 <= s <= p:
        raise ValueError(f"need 1 <= s <= p, got s={s}, p={p}")
    if trials < 1:
        raise ValueError("trials must be >= 1")


def check_expansion_exhaustive(g: BipartiteGraph, s: int, eps: float,
                               budget: int = EXPANSION_BUDGET) -> VerificationReport:
    """Exact decision: every left subset of size 1..s must have at least
    (1 - eps) d |I| distinct neighbors. ``budget`` caps the connected
    subsets enumerated, never more than the sum of C(p, k) over k = 1..s;
    past it CapacityError is raised, unless a violator came first. A graph
    whose bitmasks would pass MAX_MASK_BITS bits is refused before any is
    built, by CapacityError too.

    The report is the one a scan of every subset in (size, lex) order would
    give, stopping at the first violator, but only subsets that are
    connected in the collision graph are examined (two left vertices are
    linked when they share a right vertex). The deficiency d|I| - |N(I)|
    adds up over the components of I, so |N(I)| / (d |I|) is a weighted
    mean of its components' ratios, and every component precedes I in the
    scan order. Hence the first violator and the first strict minimiser of
    the ratio are connected. ``trials`` counts the subsets the full scan
    decides: the sum of C(p, k) on a pass, and on a refutation the first
    violator's 1-based position in (size, lex) order.

    The argument needs the least passing count per size to be
    subadditive. An eps that puts (1 - eps) d k just past an integer can
    break that, because components that each pass within SLACK can add up
    to a violation; such an eps raises ValueError.
    """
    _check_s_range(g.p, s)
    _check_eps(eps)
    _check_mask_bits(2 * g.p * g.n + g.p**2)   # masks, right-to-left rows, collision graph
    least = _least_counts(g.d, s, eps)
    if any(least[a] + least[k - a] < least[k]
           for k in range(2, s + 1) for a in range(1, k // 2 + 1)):
        raise ValueError(f"eps={eps!r} is within slack of an integer threshold "
                         f"at d={g.d}; the connected-subset certificate is not exact there")
    violator, worst, witness, _ = _expansion_scan(g, _connected_subsets(g, s, budget), s, eps)
    if violator is None:
        trials = _subset_budget(g.p, s)
    else:
        trials = _subset_budget(g.p, len(violator) - 1) + _lex_rank(violator, g.p) + 1
    return VerificationReport("expansion_exhaustive", violator is None, worst,
                              witness, trials, None)


def check_expansion_sampled(g: BipartiteGraph, s: int, eps: float,
                            trials: int, seed: int) -> VerificationReport:
    """One-sided randomized relaxation of the exhaustive check: samples
    uniformly random subsets of sizes 1..s and can only refute."""
    _check_s_range(g.p, s, trials)
    _check_eps(eps)
    _check_mask_bits(g.p * g.n)
    rng = Stream(seed)
    subsets = (rng.sample_without_replacement(g.p, 1 + rng.below(s))
               for _ in range(trials))
    violator, worst, witness, _ = _expansion_scan(g, subsets, s, eps)
    return VerificationReport("expansion_sampled", violator is None, worst,
                              witness, trials, seed)


# ---------------------------------------------------------------------------
# vector-side sampled checks
# ---------------------------------------------------------------------------

def _sparse_sample(p: int, s: int, seed: int) -> tuple[list[int], np.ndarray]:
    """Uniform support of size s, entries uniform in [-1, 1]."""
    rng = Stream(seed)
    support = rng.sample_without_replacement(p, s)
    gamma = np.zeros(p)
    for i in support:
        gamma[i] = 2.0 * rng.uniform() - 1.0
    return support, gamma


def _rip1_num_den(X: DesignMatrix, gamma: np.ndarray) -> tuple[float, float]:
    """|X gamma|_1 and |gamma|_1."""
    return float(np.abs(X.matvec(gamma)).sum()), float(np.abs(gamma).sum())


def check_rip1_sampled(X: DesignMatrix, s: int, eps: float,
                       trials: int, seed: int) -> VerificationReport:
    """Sampled check of (1-2 eps) |gamma_S|_1 <= |X gamma_S|_1 <= |gamma_S|_1
    for s-sparse gamma. Records the worst lower ratio."""
    _check_s_range(X.p, s, trials)
    _check_eps(eps)
    lower = 1.0 - 2.0 * eps
    worst = math.inf
    worst_witness = {}
    ok = True
    for t in range(trials):
        support, gamma = _sparse_sample(X.p, s, derive_seed(seed, t))
        num, den = _rip1_num_den(X, gamma)
        if den == 0.0:
            continue
        ratio = num / den
        broken = ratio < lower - 1e-12 or ratio > 1.0 + 1e-12
        if ratio < worst or broken:
            worst = ratio
            worst_witness = {"support": support, "values": [float(gamma[i]) for i in support]}
        if broken:
            ok = False
            break
    return VerificationReport("rip1_sampled", ok, worst,
                              {"s": s, "eps": eps, **worst_witness}, trials, seed)


def _top_s(gamma: np.ndarray, s: int) -> list[int]:
    """Indices of the s largest magnitudes (stable ties), ascending."""
    order = np.argsort(-np.abs(gamma), kind="stable")
    return sorted(int(i) for i in order[:s])


def _mass_split(gamma: np.ndarray, support) -> tuple[float, float]:
    """(|gamma_S|_1, |gamma_{S^c}|_1); the support mass is summed in the
    order of ``support``, the complement as total minus that mass."""
    mass_s = float(sum(abs(gamma[i]) for i in support))
    return mass_s, float(np.abs(gamma).sum()) - mass_s


def _top_s_scan(vectors, lhs_rhs) -> tuple[bool, float, dict]:
    """Scan test vectors for the worst ratio lhs/rhs, where ``lhs_rhs(gamma)``
    returns (lhs, rhs, support). Stops at the first lhs > rhs + SLACK.
    Returns (ok, worst ratio, witness of the worst vector)."""
    worst = 0.0
    witness = {}
    for gamma in vectors:
        lhs, rhs, support = lhs_rhs(gamma)
        ratio = lhs / rhs if rhs > 0 else math.inf
        if ratio > worst or not math.isfinite(ratio):
            worst = ratio
            witness = {"support": support, "gamma": [float(v) for v in gamma],
                       "lhs": lhs, "rhs": rhs}
        if lhs > rhs + SLACK:
            return False, worst, witness
    return True, worst, witness


def up2_lhs_rhs(X: DesignMatrix, gamma: np.ndarray, s: int) -> tuple[float, float, list[int]]:
    """Evaluate the order-s uncertainty inequality at the worst subset for
    this gamma, the s largest magnitudes: |gamma_S|_1 vs
    2 |X gamma|_1 + 1/2 |gamma_{S^c}|_1."""
    top = _top_s(gamma, s)
    mass_s, mass_c = _mass_split(gamma, top)
    return mass_s, 2.0 * float(np.abs(X.matvec(gamma)).sum()) + 0.5 * mass_c, top


def check_up2_sampled(X: DesignMatrix, s: int, trials: int, seed: int) -> VerificationReport:
    """Sampled check of the uncertainty inequality on dense Gaussian
    vectors. For fixed gamma the top-s support maximizes
    |gamma_S|_1 - 1/2 |gamma_{S^c}|_1 over all |S| <= s, so testing it
    covers every subset."""
    _check_s_range(X.p, s, trials)
    ok, worst, witness = _top_s_scan(
        (gaussians(derive_seed(seed, t), X.p) for t in range(trials)),
        lambda gamma: up2_lhs_rhs(X, gamma, s))
    return VerificationReport("up2_sampled", ok, worst, {"s": s, **witness}, trials, seed)


def kernel_basis(X: DesignMatrix, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal kernel basis columns from the SVD, singular values
    below ``tol`` treated as zero."""
    dense = X.to_dense()
    _, svals, vt = np.linalg.svd(dense, full_matrices=True)
    rank = int(np.sum(svals > tol))
    return vt[rank:].T.copy()


def _kernel_lhs_rhs(gamma: np.ndarray, s: int) -> tuple[float, float, list[int]]:
    """|gamma_S|_1 vs 1/2 |gamma_{S^c}|_1 at the top-s support."""
    top = _top_s(gamma, s)
    mass_s, mass_c = _mass_split(gamma, top)
    return mass_s, 0.5 * mass_c, top


def check_kernel_concentration(X: DesignMatrix, s: int, trials: int,
                               seed: int) -> VerificationReport:
    """Sampled check that kernel vectors satisfy
    |gamma_S|_1 <= 1/2 |gamma_{S^c}|_1 at the top-s support. Vacuously ok
    for a trivial kernel."""
    _check_s_range(X.p, s, trials)
    basis = kernel_basis(X)
    dim = int(basis.shape[1])
    if dim == 0:
        return VerificationReport("kernel_concentration", True, 0.0,
                                  {"s": s, "kernel_dim": 0}, 0, seed)
    ok, worst, witness = _top_s_scan(
        (basis @ gaussians(derive_seed(seed, t), dim) for t in range(trials)),
        lambda gamma: _kernel_lhs_rhs(gamma, s))
    return VerificationReport("kernel_concentration", ok, worst,
                              {"s": s, "kernel_dim": dim, **witness}, trials, seed)


# ---------------------------------------------------------------------------
# nullspace property, exact at tiny scale
# ---------------------------------------------------------------------------

def nullspace_property_oracle(X: DesignMatrix, s: int,
                              budget: int = NSP_BUDGET) -> VerificationReport:
    """Exact decision of the order-s nullspace property.

    For every |S| = s and sign pattern sigma on S, solve the LP
    maximize sigma^T gamma_S subject to X gamma = 0, |gamma_{S^c}|_1 <= 1
    (gamma split into nonnegative parts, the l1 bound written with a slack
    variable). The property holds iff every optimum is < 1 - 1e-9. When the
    columns of S are linearly dependent the LP is unbounded and the
    property fails outright; that case is detected by a rank test first.
    """
    p = X.p
    _check_s_range(p, s)
    count = math.comb(p, s) * 2**s
    if count > budget:
        raise CapacityError(f"{count} subset/sign pairs exceed budget {budget}")
    dense = X.to_dense()
    n = X.n
    # one constraint matrix [[X, -X, 0], [l1 row, 1]] for every LP; each
    # support rewrites only the off-support l1 row, each sign pattern only c
    A = np.zeros((n + 1, 2 * p + 1))
    A[:n, :p] = dense
    A[:n, p:2 * p] = -dense
    A[n, 2 * p] = 1.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    worst = 0.0
    worst_witness = None
    ok = True
    examined = 0
    for support in itertools.combinations(range(p), s):
        cols = dense[:, support]
        svals = np.linalg.svd(cols, compute_uv=False)
        if svals[-1] <= 1e-10:
            null = np.linalg.svd(cols)[2][-1]
            gamma = np.zeros(p)
            gamma[list(support)] = null
            witness = {"s": s, "support": list(support), "unbounded": True,
                       "gamma": [float(v) for v in gamma]}
            return VerificationReport("nullspace_property", False, math.inf,
                                      witness, examined, None)
        A[n, :2 * p] = 1.0
        for i in support:
            A[n, i] = A[n, p + i] = 0.0
        for signs in itertools.product((1.0, -1.0), repeat=s):
            examined += 1
            c = np.zeros(2 * p + 1)
            for pos, i in enumerate(support):
                c[i] = -signs[pos]
                c[p + i] = signs[pos]
            res = lp_solve(LinearProgram(c, A, b))
            if res.status == "unbounded":
                witness = {"s": s, "support": list(support), "signs": list(signs),
                           "unbounded": True}
                return VerificationReport("nullspace_property", False, math.inf,
                                          witness, examined, None)
            if res.status != "optimal":
                raise SolverStatusError(f"NSP LP for support {list(support)} is {res.status}")
            value = -res.objective
            if value > worst:
                gamma = res.x[:p] - res.x[p:2 * p]
                worst = value
                worst_witness = {"support": list(support), "signs": list(signs),
                                 "optimum": value, "gamma": [float(v) for v in gamma]}
            if value >= 1.0 - SLACK:
                ok = False
    witness = {"s": s, **(worst_witness or {})}
    return VerificationReport("nullspace_property", ok, worst, witness, examined, None)


# ---------------------------------------------------------------------------
# standalone witness re-check
# ---------------------------------------------------------------------------

def recheck_violation(report: VerificationReport,
                      g: BipartiteGraph | None = None,
                      X: DesignMatrix | None = None) -> float:
    """Re-evaluate a failing report's witness from scratch.

    Returns the violation margin (how far the witnessed quantity sits past
    its bound; > 0 confirms a genuine violation). Raises if the report is
    not a failure or lacks the needed object.
    """
    if report.ok:
        raise ValueError("report is not a violation")
    w = report.witness or {}
    cond = report.condition
    if cond.startswith("expansion"):
        if g is None:
            raise ValueError("expansion recheck needs the graph")
        subset = w["subset"]
        return (1.0 - w["eps"]) * g.d * len(subset) - len(neighbor_set(g, subset))
    if X is None:
        raise ValueError(f"{cond} recheck needs the design matrix")
    if cond == "rip1_sampled":
        gamma = np.zeros(X.p)
        for i, v in zip(w["support"], w["values"]):
            gamma[i] = v
        num, den = _rip1_num_den(X, gamma)
        lower = (1.0 - 2.0 * w["eps"]) * den
        return max(lower - num, num - den)
    if cond == "up2_sampled":
        lhs, rhs, _ = up2_lhs_rhs(X, np.asarray(w["gamma"]), w["s"])
        return lhs - rhs
    if cond in ("kernel_concentration", "nullspace_property"):
        gamma = np.asarray(w["gamma"])
        mass_s, mass_c = _mass_split(gamma, w["support"])
        if cond == "kernel_concentration":
            return mass_s - 0.5 * mass_c
        if np.max(np.abs(X.matvec(gamma))) > 1e-8:
            return -math.inf  # witness is not a kernel vector; recheck fails
        return mass_s - mass_c + SLACK
    raise ValueError(f"unknown condition {cond!r}")
