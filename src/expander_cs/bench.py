"""Experiment harness: reproduce the error-prediction and variable-selection
inequalities empirically, at desk scale.

Each bound is restated as a per-trial assertion: conditional on the noise
event ||X^T z||_inf <= Lambda the inequality is a deterministic fact, so on
every event trial it must hold up to 1e-9 numerical slack. Aggregates then
report the event frequency (which must clear its own tail bound) and the
per-inequality pass fractions. Trials whose solver did not converge are
flagged and excluded from pass statistics, never silently dropped.

Bound catalogue (scaling matches the solvers in :mod:`.solve`):

  lasso, lam >= 6 Lambda:
      ||X(b* - b)||_2^2 + (lam - 6 Lambda) ||b_{S^c} - b*_{S^c}||_1
          <= 4 lam (2 lam n + ||b*_{S^c}||_1)
      s-sparse, lam = 6 Lambda:  ||X(b* - b)||_2 <= 24 sqrt(2) sigma sqrt(n log n)
      s-sparse, lam = 7 Lambda:  ||b_{S^c}||_1 <= 392 sqrt(2) sigma n sqrt(log n)

  Dantzig, lam >= Lambda:
      ||X(b* - b)||_2^2 <= 4 (lam + Lambda) (16 (lam + Lambda) n + 3 ||b*_{S^c}||_1)
      s-sparse:                  ||X(b* - b)||_2 <= 8 (lam + Lambda) sqrt(n)
      s-sparse, lam = Lambda:    ||X(b* - b)||_2 <= 32 sigma sqrt(n log n)
      s-sparse:                  ||b_{S^c}||_1 <= 32 (lam + Lambda) n
      s-sparse, lam = Lambda:    ||b_{S^c}||_1 <= 128 sigma n sqrt(log n)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import DesignMatrix
from .errors import CapacityError, SolverStatusError
from .graphs import random_left_regular
from .noise import NoiseModel, sample_noise, thresholds
from .rng import Stream, derive_seed
from .solve import basis_pursuit, dantzig, lasso, ols_on_support
from .verify import VerificationReport, check_expansion_exhaustive

SLACK = 1e-9

SQRT2 = math.sqrt(2.0)

MVSE_SEEDS = 200      # graph seeds mvse_sweep tries per p before skipping it


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def lasso_oracle_rhs(lam: float, n: int, tail_mass: float) -> float:
    return 4.0 * lam * (2.0 * lam * n + tail_mass)

def lasso_prediction_bound(sigma: float, n: int) -> float:
    return 24.0 * SQRT2 * sigma * math.sqrt(n * math.log(n))

def lasso_selection_bound(sigma: float, n: int) -> float:
    return 392.0 * SQRT2 * sigma * n * math.sqrt(math.log(n))

def dantzig_oracle_rhs(lam: float, lam_noise: float, n: int, tail_mass: float) -> float:
    return 4.0 * (lam + lam_noise) * (16.0 * (lam + lam_noise) * n + 3.0 * tail_mass)

def dantzig_err_pred_bound(lam: float, lam_noise: float, n: int) -> float:
    return 8.0 * (lam + lam_noise) * math.sqrt(n)

def dantzig_prediction_bound(sigma: float, n: int) -> float:
    return 32.0 * sigma * math.sqrt(n * math.log(n))

def dantzig_selection_general_bound(lam: float, lam_noise: float, n: int) -> float:
    return 32.0 * (lam + lam_noise) * n

def dantzig_selection_bound(sigma: float, n: int) -> float:
    return 128.0 * sigma * n * math.sqrt(math.log(n))


def oracle_factors(s: int, p: int, alpha: float, theta: float) -> tuple[float, float]:
    """The explicit optimality factors rho(s, p) and tau(s, p).

    rho = ((1+a) log s + (2+2/a) log(theta log p log s)) s^a (theta log p log s)^(2+2/a)
    tau = s^a (theta log p log s)^(3+3/a)
          * log(s^(1+a) (theta log p log s)^(2+2/a)) / log p
    """
    if not (p > s >= 2):
        raise ValueError("need p > s >= 2")
    if alpha <= 0 or theta <= 0:
        raise ValueError("alpha and theta must be positive")
    a = alpha
    inner = theta * math.log(p) * math.log(s)
    rho = ((1.0 + a) * math.log(s) + (2.0 + 2.0 / a) * math.log(inner)) \
        * s**a * inner ** (2.0 + 2.0 / a)
    tau = s**a * inner ** (3.0 + 3.0 / a) \
        * (math.log(s ** (1.0 + a) * inner ** (2.0 + 2.0 / a)) / math.log(p))
    return rho, tau


# ---------------------------------------------------------------------------
# instances and reports
# ---------------------------------------------------------------------------

def sparse_target(p: int, s: int, seed: int) -> tuple[np.ndarray, list[int]]:
    """Exactly s-sparse target: uniform support, random sign, magnitude
    uniform in [1, 2] (bounded away from zero so support diagnostics mean
    something)."""
    rng = Stream(seed)
    support = rng.sample_without_replacement(p, s)
    beta = np.zeros(p)
    for i in support:
        beta[i] = rng.signed_uniform(1.0, 2.0)
    return beta, support


def compressible_target(p: int, s: int, seed: int) -> tuple[np.ndarray, list[int]]:
    """Power-law target b_i = +/- (i+1)^-2; the s largest magnitudes are the
    first s coordinates, and the tail keeps every ||b*_{S^c}||_1 term of
    the bounds strictly positive."""
    rng = Stream(seed)
    beta = np.array([rng.sign() * (i + 1) ** -2.0 for i in range(p)])
    return beta, list(range(s))


@dataclass
class RecoveryInstance:
    design: DesignMatrix
    beta_star: np.ndarray
    kind: str                 # "exact-sparse" | "compressible"
    s: int
    support: list[int]        # indices of the s largest magnitudes
    noise: NoiseModel
    lambda_multiple: float
    seed: int

    @classmethod
    def build(cls, design: DesignMatrix, kind: str, s: int, noise: NoiseModel,
              lambda_multiple: float, seed: int) -> "RecoveryInstance":
        if noise.n != design.n:
            raise ValueError("noise length differs from design rows")
        maker = {"exact-sparse": sparse_target, "compressible": compressible_target}
        if kind not in maker:
            raise ValueError(f"unknown target kind {kind!r}")
        beta, support = maker[kind](design.p, s, derive_seed(seed, 0))
        return cls(design, beta, kind, s, support, noise, lambda_multiple, seed)

    def offsupport(self, v: np.ndarray) -> float:
        return _offsupport_mass(v, self.support)


def _offsupport_mass(v: np.ndarray, support) -> float:
    mask = np.ones(v.shape[0], dtype=bool)
    mask[support] = False
    return float(np.abs(v[mask]).sum())


@dataclass
class CheckResult:
    name: str
    lhs: float
    rhs: float
    holds: bool


@dataclass
class TrialRecord:
    trial: int
    event: bool
    converged: bool
    pred_error: float
    offsupport_mass: float
    checks: list[CheckResult]


@dataclass
class ExperimentReport:
    kind: str
    params: dict
    records: list[TrialRecord] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def flagged(self) -> int:
        return sum(1 for r in self.records if not r.converged)

    @property
    def event_frequency(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.event) / len(self.records)

    def check_names(self) -> list[str]:
        names: list[str] = []
        for r in self.records:
            for c in r.checks:
                if c.name not in names:
                    names.append(c.name)
        return names

    def pass_fractions(self) -> dict[str, float]:
        """Fraction of event trials (converged only) on which each
        inequality held."""
        out = {}
        for name in self.check_names():
            num = den = 0
            for r in self.records:
                if not (r.event and r.converged):
                    continue
                for c in r.checks:
                    if c.name == name:
                        den += 1
                        num += c.holds
            out[name] = num / den if den else 1.0
        return out

    def all_event_checks_hold(self) -> bool:
        return all(f == 1.0 for f in self.pass_fractions().values())

    def event_bound_ok(self, eta: float) -> bool:
        """Event frequency must clear 1 - eta minus three binomial SEs."""
        if not self.records:
            return False
        se = math.sqrt(max(eta * (1.0 - eta), 0.0) / len(self.records))
        return self.event_frequency >= 1.0 - eta - 3.0 * se

    def csv_rows(self):
        yield ("trial", "check", "event", "converged", "lhs", "rhs", "holds",
               "pred_error", "offsupport_mass")
        for r in self.records:
            for c in r.checks:
                yield (r.trial, c.name, int(r.event), int(r.converged),
                       f"{c.lhs:.17g}", f"{c.rhs:.17g}", int(c.holds),
                       f"{r.pred_error:.17g}", f"{r.offsupport_mass:.17g}")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _check(name: str, lhs: float, rhs: float, slack: float = SLACK) -> CheckResult:
    return CheckResult(name, lhs, rhs, lhs <= rhs + slack)


def _noise_lambda(sigma: float, n: int) -> float:
    """Lambda = 2 sigma sqrt(log n); 0 for noiseless instances."""
    return thresholds(sigma, n).lam if sigma > 0 else 0.0


def _penalty(instance: RecoveryInstance, floor: float, need: str) -> tuple[float, float]:
    """(lam, Lambda) with lam = lambda_multiple * Lambda. Raises ValueError
    with ``need`` when the multiple is below ``floor`` (NaN included), and
    when lam is not finite."""
    lam_noise = _noise_lambda(instance.noise.sigma, instance.design.n)
    lam = instance.lambda_multiple * lam_noise
    if not instance.lambda_multiple >= floor:
        raise ValueError(need)
    if not math.isfinite(lam):
        raise ValueError(f"lambda = {instance.lambda_multiple} * Lambda is not finite")
    return lam, lam_noise


def _pred_error(X: DesignMatrix, xb: np.ndarray, beta: np.ndarray) -> float:
    return float(np.linalg.norm(xb - X.matvec(beta)))


def _noisy_trials(instance: RecoveryInstance, xb: np.ndarray, lam_noise: float,
                  trials: int):
    """Per trial k, draw z from (seed, k) and yield
    (k, y = X b* + z, event ||X^T z||_inf <= Lambda, ||X^T z||_inf)."""
    X = instance.design
    for k in range(trials):
        z = sample_noise(instance.noise, derive_seed(instance.seed, k))
        sup = float(np.max(np.abs(X.transpose_matvec(z))))
        yield k, xb + z, sup <= lam_noise + 1e-12, sup


def _params(estimator: str, instance: RecoveryInstance, lam: float,
            lam_noise: float, trials: int) -> dict:
    X = instance.design
    return {
        "estimator": estimator, "p": X.p, "n": X.n, "d": X.d, "s": instance.s,
        "target": instance.kind, "sigma": instance.noise.sigma,
        "noise": instance.noise.describe(),
        "lambda_multiple": instance.lambda_multiple, "lambda": lam,
        "Lambda": lam_noise, "trials": trials, "seed": instance.seed,
    }


def run_lasso_experiment(instance: RecoveryInstance, trials: int) -> ExperimentReport:
    """Per trial: draw noise, solve the lasso, assert the oracle inequality
    on event trials. Exactly sparse targets additionally get the
    lam = 6 Lambda prediction bound and lam = 7 Lambda selection bound,
    each solved at its own penalty."""
    lam_main, lam_noise = _penalty(instance, 6.0, "lasso experiments need lambda >= 6 Lambda")
    X = instance.design
    sigma, n = instance.noise.sigma, X.n
    tail = instance.offsupport(instance.beta_star)

    lambdas = {lam_main}
    extras = instance.kind == "exact-sparse" and sigma > 0
    if extras:
        lambdas.update({6.0 * lam_noise, 7.0 * lam_noise})

    report = ExperimentReport("lasso", _params("lasso", instance, lam_main, lam_noise, trials))
    xb = X.matvec(instance.beta_star)
    for k, y, event, _ in _noisy_trials(instance, xb, lam_noise, trials):
        sols = {lam: lasso(X, y, lam) for lam in sorted(lambdas)}
        converged = all(s.converged for s in sols.values())

        sol = sols[lam_main]
        gamma_pred = _pred_error(X, xb, sol.beta)
        off_err = instance.offsupport(sol.beta - instance.beta_star)
        checks = [_check("lasso_oracle",
                         gamma_pred**2 + (lam_main - 6.0 * lam_noise) * off_err,
                         lasso_oracle_rhs(lam_main, n, tail))]
        if extras:
            checks.append(_check("lasso_prediction",
                                 _pred_error(X, xb, sols[6.0 * lam_noise].beta),
                                 lasso_prediction_bound(sigma, n)))
            checks.append(_check("lasso_selection",
                                 instance.offsupport(sols[7.0 * lam_noise].beta),
                                 lasso_selection_bound(sigma, n)))

        report.records.append(TrialRecord(
            k, event, converged, gamma_pred, instance.offsupport(sol.beta), checks))
    return report


def run_dantzig_experiment(instance: RecoveryInstance, trials: int) -> ExperimentReport:
    """Per trial: solve the Dantzig selector, assert the oracle inequality,
    and for sparse targets the corollary and consistency bounds; also check
    that the target itself is feasible on every event trial."""
    lam, lam_noise = _penalty(instance, 1.0, "Dantzig experiments need lambda >= Lambda")
    X = instance.design
    sigma, n = instance.noise.sigma, X.n
    tail = instance.offsupport(instance.beta_star)
    # feasibility of the target makes its l1 norm an upper bound
    target_l1 = float(np.abs(instance.beta_star).sum())
    sparse = instance.kind == "exact-sparse"
    at_floor = instance.lambda_multiple == 1.0 and sigma > 0

    report = ExperimentReport("dantzig", _params("dantzig", instance, lam, lam_noise, trials))
    xb = X.matvec(instance.beta_star)
    for k, y, event, noise_sup in _noisy_trials(instance, xb, lam_noise, trials):
        try:
            sol = dantzig(X, y, lam)
        except SolverStatusError:
            report.records.append(TrialRecord(k, event, False, math.nan, math.nan, []))
            continue

        gamma_pred = _pred_error(X, xb, sol.beta)
        off = instance.offsupport(sol.beta)
        checks = [_check("dantzig_oracle", gamma_pred**2,
                         dantzig_oracle_rhs(lam, lam_noise, n, tail)),
                  _check("target_feasible", noise_sup, lam, 1e-12),
                  _check("dantzig_l1_bound", sol.l1_norm, target_l1)]
        if sparse:
            checks.append(_check("dantzig_err_pred", gamma_pred,
                                 dantzig_err_pred_bound(lam, lam_noise, n)))
            checks.append(_check("dantzig_selection_general", off,
                                 dantzig_selection_general_bound(lam, lam_noise, n)))
            if at_floor:
                checks.append(_check("dantzig_prediction", gamma_pred,
                                     dantzig_prediction_bound(sigma, n)))
                checks.append(_check("dantzig_selection", off,
                                     dantzig_selection_bound(sigma, n)))
        report.records.append(TrialRecord(k, event, True, gamma_pred, off, checks))
    return report


def require_expander_certificate(X: DesignMatrix, s: int,
                                 certificate: VerificationReport) -> None:
    """Refuse to run recovery claims without a (2s, eps <= 1/8) expansion
    certificate matching this design.

    The match is a necessary check only: (p, n, d) must agree, and the
    witness subset's neighbour count is recounted on X. A certificate of
    another graph of the same shape still passes when its witness subset
    has the same count here; binding it fully needs a graph digest in the
    report, which would change report bytes."""
    w = certificate.witness if isinstance(certificate.witness, dict) else {}
    order, p, n, d, eps = (w.get(key) for key in ("s", "p", "n", "d", "eps"))
    if (certificate.condition != "expansion_exhaustive" or not certificate.ok
            or not all(type(v) is int for v in (order, p, n, d))
            or type(eps) not in (int, float) or (p, n, d) != (X.p, X.n, X.d)
            or order < 2 * s or not 0.0 < eps <= 0.125 + 1e-12):
        raise ValueError(
            "recovery experiment needs an exhaustive expansion certificate of "
            f"order >= {2 * s} at eps <= 1/8 for this exact design")
    subset = w.get("subset")
    if (not isinstance(subset, list) or not subset
            or not all(type(i) is int and 0 <= i < X.p for i in subset)):
        raise ValueError("expansion certificate has no valid witness subset")
    count = len(set(X.rows[subset].ravel().tolist()))
    if count != w.get("neighbor_count"):
        raise ValueError(
            f"expansion certificate does not match this design: its witness "
            f"subset {subset} has {w.get('neighbor_count')} neighbours in the "
            f"certified graph and {count} here")


def run_recovery_experiment(X: DesignMatrix, s: int, trials: int, seed: int,
                            certificate: VerificationReport) -> ExperimentReport:
    """Noiseless basis-pursuit recovery of random s-sparse targets on a
    certified design; records the relative l1 recovery error per trial."""
    require_expander_certificate(X, s, certificate)
    report = ExperimentReport("recovery", {
        "estimator": "basis_pursuit", "p": X.p, "n": X.n, "d": X.d, "s": s,
        "trials": trials, "seed": seed,
    })
    for k in range(trials):
        beta, support = sparse_target(X.p, s, derive_seed(seed, k))
        y = X.matvec(beta)
        try:
            est = basis_pursuit(X, y)
            converged = True
        except SolverStatusError:
            report.records.append(TrialRecord(k, True, False, math.nan, math.nan, []))
            continue
        denom = float(np.abs(beta).sum())
        err = float(np.abs(est - beta).sum())
        rel = err / denom if denom > 0 else err
        report.records.append(TrialRecord(
            k, True, converged,
            float(np.linalg.norm(X.matvec(est - beta))),
            _offsupport_mass(est, support),
            [_check("exact_recovery", rel, 1e-6, 0.0)]))
    return report


def ols_oracle_comparison(instance: RecoveryInstance, trials: int,
                          include_estimators: bool = False) -> dict:
    """Monte Carlo mean of (1/n) ||X b_ols - X b*||_2^2 for least squares
    on the known support, against its expectation sigma^2 s / n, plus
    informational comparison lines for the l1 estimators (the rho and tau
    lines use alpha = 1 and theta = 8)."""
    X = instance.design
    sigma, n = instance.noise.sigma, X.n
    lam_noise = _noise_lambda(sigma, n)
    ols_sum = lasso_sum = dantzig_sum = 0.0
    xb = X.matvec(instance.beta_star)
    for _, y, _, _ in _noisy_trials(instance, xb, lam_noise, trials):
        b = ols_on_support(X, y, instance.support)
        ols_sum += _pred_error(X, xb, b) ** 2 / n
        if include_estimators:
            lasso_sum += _pred_error(X, xb, lasso(X, y, 6.0 * lam_noise).beta) ** 2 / n
            dantzig_sum += _pred_error(X, xb, dantzig(X, y, lam_noise).beta) ** 2 / n
    ols_mean = ols_sum / trials
    expected = sigma**2 * instance.s / n
    out = {
        "trials": trials,
        "ols_mean": ols_mean,
        "expected": expected,
        "within_10pct": abs(ols_mean - expected) <= 0.10 * expected if expected else ols_mean == 0.0,
    }
    if instance.s >= 2 and X.p > instance.s:
        rho, tau = oracle_factors(instance.s, X.p, 1.0, 8.0)
        out["rho_line"] = rho * expected
        out["tau_line"] = tau * sigma**2 * (1.0 / X.d) * instance.s * math.log(X.p) / n
    if include_estimators:
        out["lasso_mean"] = lasso_sum / trials
        out["dantzig_mean"] = dantzig_sum / trials
        out["lasso_over_ols"] = (lasso_sum / trials) / ols_mean if ols_mean else math.inf
        out["dantzig_over_ols"] = (dantzig_sum / trials) / ols_mean if ols_mean else math.inf
    return out


# ---------------------------------------------------------------------------
# certified-instance search and the selection-error sweep
# ---------------------------------------------------------------------------

def search_certified_graph(p: int, d: int, n_values, s: int, eps: float,
                           max_seeds: int):
    """Scan (n, seed) pairs, seeds 0 .. max_seeds-1, until the exhaustive
    expansion check passes.

    Returns (graph, report, attempts) or (None, None, attempts). Each
    check examines only the subsets that are connected in the collision
    graph, up to the first violator, so a full pass on a graph whose
    neighbor lists rarely overlap costs little more than a refutation.
    """
    attempts = 0
    for n in n_values:
        for j in range(max_seeds):
            attempts += 1
            g = random_left_regular(p, d, n, j)
            rep = check_expansion_exhaustive(g, s, eps)
            if rep.ok:
                return g, rep, attempts
    return None, None, attempts


def mvse_sweep(ps, s_rule, alpha: float, trials: int, seed: int, *,
               sigma: float = 1.0, d: int = 8, n: int = 1536) -> list[dict]:
    """Mean-variable-selection-error proxy across a size sweep.

    For each p: certify a random design at order 2 s(p) exactly, trying up
    to MVSE_SEEDS seeds, run the lasso at lam = 7 Lambda, and report the
    worst event-trial off-support mass per off-support coordinate. Rows
    with 2 s > p, rows that fail construction or certification, and rows
    whose first check past the default budget stops the seed search are
    marked skipped.
    """
    rows = []
    for idx, p in enumerate(ps):
        s = int(s_rule(p))
        row = {"p": p, "s": s, "d": d, "n": n, "alpha": alpha, "skipped": True,
               "certified": None, "graph_seed": None, "proxy": None, "bound": None}
        if not 1 <= s <= p // 2 or d > n:      # certified at order 2 s <= p
            rows.append(row)
            continue
        for j in range(MVSE_SEEDS):
            gseed = derive_seed(seed, idx * MVSE_SEEDS + j)
            graph = random_left_regular(p, d, n, gseed)
            try:
                if check_expansion_exhaustive(graph, 2 * s, 0.125).ok:
                    row["graph_seed"] = gseed
                    break
            except CapacityError:
                break
        if row["graph_seed"] is None:
            rows.append(row)
            continue
        X = DesignMatrix.from_graph(graph)
        model = NoiseModel(X.n, sigma)
        inst = RecoveryInstance.build(X, "exact-sparse", s, model, 7.0,
                                      derive_seed(seed, idx))
        rep = run_lasso_experiment(inst, trials)
        denom = p - s
        proxies = [r.offsupport_mass / denom for r in rep.records
                   if r.event and r.converged]
        row.update({
            "skipped": False,
            "certified": "exhaustive",
            "proxy": max(proxies) if proxies else None,
            "bound": lasso_selection_bound(sigma, X.n) / denom,
            "event_trials": len(proxies),
        })
        rows.append(row)
    return rows
