"""Closed-form bound evaluators and empirical verifiers.

Covers covering-number bounds for weight balls, the two data-dependent
lower bounds on the branch/trunk output dimension q (general bounded-output
classes, and the sigmoid-gate specialization), the risk perturbation bound
under weight covering, and Monte Carlo / brute-force checkers for each.

All products with parameter-count exponents are evaluated as sums of
logarithms; the "+2" inside the big logarithm goes through log-sum-exp.
The n^(1/4) prefactor is computed as sqrt(sqrt(n)) so that scaling n by 16
doubles the result exactly in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .deeponet import (
    Dataset,
    DeepONetModel,
    _WORKING_SET,
    _RiskEvaluator,
    _stack_size,
    _uniform_in_ball,
    j_upper_bound,
)
from .errors import InputError

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class FunctionClassSpec:
    """Capacity description of the branch/trunk classes.

    d_b, d_t are parameter counts; w_b, w_t the 2-norm weight bounds;
    c the sup-norm output bound; q the common output dimension. The
    input-Lipschitz constants l_b, l_t are carried as metadata only.
    """

    d_b: int
    d_t: int
    w_b: float
    w_t: float
    q: int = 1
    c: float = 1.0
    l_b: float | None = None
    l_t: float | None = None

    def __post_init__(self):
        # written so that NaN fails each check
        for name in ("d_b", "d_t", "w_b", "w_t", "c"):
            if not getattr(self, name) >= 1:
                raise InputError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 1 <= self.q <= min(self.d_b, self.d_t):
            raise InputError("q must satisfy 1 <= q <= min(d_b, d_t)")


@dataclass(frozen=True)
class BoundInputs:
    """Everything the q lower bounds consume."""

    n: int
    epsilon: float
    delta: float
    label_bound: float
    fclass: FunctionClassSpec
    j: float
    sigma2: float = 0.0
    alpha: float = 0.5
    j_source: str = "analytic"  # "estimated" | "analytic"

    def __post_init__(self):
        # written so that NaN fails each check
        if not self.n >= 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        for name in ("epsilon", "label_bound", "j"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 < self.delta < 1.0:
            raise InputError("delta must lie strictly in (0, 1)")
        if not self.sigma2 >= 0:
            raise InputError(f"sigma2 must be >= 0, got {self.sigma2}")
        if not 0.0 < self.alpha < 1.0:
            raise InputError("alpha must lie strictly in (0, 1)")
        if self.j_source not in ("estimated", "analytic"):
            raise InputError("j_source must be 'estimated' or 'analytic'")


@dataclass
class BoundReport:
    """Result of a q lower-bound evaluation, with the log-space breakdown."""

    q_lower: float
    threshold: float
    log_cover_terms: dict
    which_theorem: str
    j_source: str

    def to_dict(self) -> dict:
        return {
            "q_lower": self.q_lower,
            "q_lower_ceil": int(math.ceil(self.q_lower)),
            "threshold": self.threshold,
            "log_cover_terms": self.log_cover_terms,
            "which_theorem": self.which_theorem,
            "j_source": self.j_source,
        }


def log_covering_number_ball(theta: float, W: float, d: int) -> float:
    """Log of the covering-number bound (2 W sqrt(d) / theta)^d, floored at 0."""
    if not theta > 0:
        raise InputError(f"covering scale theta must be > 0, got {theta}")
    if not (W > 0 and d >= 1):
        raise InputError("need W > 0 and d >= 1")
    val = d * (LOG2 + math.log(W) + 0.5 * math.log(d) - math.log(theta))
    return max(val, 0.0)


def _fourth_root(x: float) -> float:
    # sqrt is correctly rounded, so x -> 16x maps the result to exactly 2x
    return math.sqrt(math.sqrt(x))


def _as_float(n: int) -> float:
    """Parameter counts beyond float range become the +inf sentinel."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


def _q_lower_report(inputs: BoundInputs, log_terms: dict, log_prod: float,
                    threshold: float, which_theorem: str) -> BoundReport:
    """The tail both q lower bounds share, from the log of their product term.

    q_lower = n^(1/4) * (eps^2 / (288 B^2) / (ln(e^log_prod + 2) + ln(2/(1-delta))))^(1/4);
    log_cover_terms is log_terms followed by the terms computed here.
    """
    eps = inputs.epsilon
    b = inputs.label_bound
    log_plus2 = float(np.logaddexp(log_prod, LOG2))
    log_conf = LOG2 - math.log1p(-inputs.delta)
    denom = log_plus2 + log_conf
    factor = eps * eps / (288.0 * b * b) / denom
    return BoundReport(
        q_lower=_fourth_root(inputs.n) * _fourth_root(factor),
        threshold=threshold,
        log_cover_terms={
            **log_terms,
            "log_product": log_prod,
            "log_product_plus_2": log_plus2,
            "log_confidence": log_conf,
            "log_denominator": denom,
        },
        which_theorem=which_theorem,
        j_source=inputs.j_source,
    )


def q_lower_bound_general(inputs: BoundInputs) -> BoundReport:
    """Lower bound on q for bounded-output branch/trunk classes.

    q_lower = n^(1/4) * (eps^2 / (288 B^2) / (ln(A + 2) + ln(2/(1-delta))))^(1/4)
    with ln A = (d_b+d_t) ln(4 min(d_b,d_t)^2 / eps)
             + d_b ln(w_b sqrt(d_b)) + d_t ln(w_t sqrt(d_t)).
    The threshold is sigma^2 - eps (1 + c J (B + 2 c^2)).
    """
    fc = inputs.fclass
    eps = inputs.epsilon
    b = inputs.label_bound
    dmin = min(fc.d_b, fc.d_t)
    db, dt = _as_float(fc.d_b), _as_float(fc.d_t)
    # math.log accepts arbitrarily large ints; only the count factors can
    # overflow, in which case the product term becomes the +inf sentinel
    log_prod = (
        (db + dt) * (math.log(4.0) + 2.0 * math.log(dmin) - math.log(eps))
        + db * (math.log(fc.w_b) + 0.5 * math.log(fc.d_b))
        + dt * (math.log(fc.w_t) + 0.5 * math.log(fc.d_t))
    )
    threshold = inputs.sigma2 - eps * (1.0 + fc.c * inputs.j * (b + 2.0 * fc.c * fc.c))
    return _q_lower_report(inputs, {}, log_prod, threshold, "general")


def alpha_prime(alpha: float) -> float:
    """(alpha/2) ln(1/alpha) + ((1-alpha)/2) ln(1/(1-alpha))."""
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie strictly in (0, 1)")
    return -0.5 * (alpha * math.log(alpha) + (1.0 - alpha) * math.log1p(-alpha))


def q_lower_bound_sigmoid(inputs: BoundInputs) -> BoundReport:
    """Specialization for branch and trunk ending in sigmoid gates (c = 1).

    Requires a common weight bound w = w_b = w_t; with s = d_b + d_t the
    denominator logarithm becomes
    ln(2 + e^(-s alpha') (4 min(d_b,d_t)^2 / eps * w sqrt(s))^s).
    The threshold specializes to sigma^2 - eps (1 + J (B + 2)).
    """
    fc = inputs.fclass
    if fc.c != 1.0:
        raise InputError("the sigmoid-gate bound assumes output bound c = 1")
    if fc.w_b != fc.w_t:
        raise InputError("the sigmoid-gate bound assumes a common weight bound")
    eps = inputs.epsilon
    b = inputs.label_bound
    w = fc.w_b
    s = fc.d_b + fc.d_t
    dmin = min(fc.d_b, fc.d_t)
    ap = alpha_prime(inputs.alpha)
    log_term = _as_float(s) * (
        -ap + math.log(4.0) + 2.0 * math.log(dmin) - math.log(eps)
        + math.log(w) + 0.5 * math.log(s)
    )
    threshold = inputs.sigma2 - eps * (1.0 + inputs.j * (b + 2.0))
    return _q_lower_report(inputs, {"alpha_prime": ap}, log_term, threshold, "sigmoid")


def perturbation_bound(q: int, c: float, j: float, theta: float, b: float) -> float:
    """Risk increment bound q c J theta (B + 2 q c^2) under a theta-cover move."""
    if not (q >= 1 and c > 0 and j > 0 and b > 0):
        raise InputError("q, c, J, B must be positive")
    if not theta >= 0:
        raise InputError(f"theta must be >= 0, got {theta}")
    return q * c * j * theta * (b + 2.0 * q * c * c)


@dataclass
class PerturbationReport:
    max_observed: float
    bound: float
    holds: bool
    j_used: float
    trials: int


def analytic_j_for_model(
    model: DeepONetModel, dataset: Dataset, theta: float
) -> float:
    """Analytic weight-Lipschitz constant valid on the theta/2 ball around the model.

    Uses the layered-net bound with Q = 1 (each parameter appears once in a
    dense net), R the largest input 2-norm in the dataset, and the entrywise
    weight bound max(1, |w|_inf + theta/2) so original and perturbed nets
    both qualify.
    """
    js = []
    for params, inputs in ((model.branch, dataset.s), (model.trunk, dataset.p)):
        p = nn.param_count(params.spec)
        depth = params.spec.depth
        r = float(np.max(np.linalg.norm(inputs, axis=1)))
        if r <= 0:
            r = 1.0
        w = max(1.0, float(np.max(np.abs(params.flat))) + theta / 2.0)
        js.append(j_upper_bound(w, p, 1, depth, r))
    return max(js)


def verify_perturbation(
    model: DeepONetModel,
    theta: float,
    dataset: Dataset,
    trials: int,
    seed,
    j: float | None = None,
) -> PerturbationReport:
    """Empirical check of the risk perturbation bound.

    Perturbs branch and trunk weights by random vectors of norm <= theta/2
    and compares the empirical-risk increment against the bound. With the
    analytic J (the default) a violation indicates an implementation bug.
    A chunk of trials is drawn as one block from four streams spawned from
    seed, each read row after row so the chunk size never changes the draws,
    and evaluated in one stacked pass; a NaN increment is skipped.
    """
    if not theta >= 0:
        raise InputError(f"theta must be >= 0, got {theta}")
    if not trials >= 1:
        raise InputError("need at least one trial")
    c = model.c_bound
    if not math.isfinite(c):
        raise InputError("perturbation check needs bounded output activations")
    if j is None:
        j = analytic_j_for_model(model, dataset, theta)
    bound = perturbation_bound(model.q, c, j, theta, dataset.B)
    risks = _RiskEvaluator(model, dataset).risks
    branch, trunk = model.branch.flat, model.trunk.flat
    base = float(risks(branch, trunk))
    # branch normals, branch radii, trunk normals, trunk radii
    bn, br, tn, tr = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(4))
    chunk = _stack_size(model, dataset.n)
    max_observed = -math.inf
    for start in range(0, trials, chunk):
        k = min(chunk, trials - start)
        db = _uniform_in_ball(bn, br, k, branch.size, theta / 2.0)
        dt = _uniform_in_ball(tn, tr, k, trunk.size, theta / 2.0)
        increments = risks(branch + db, trunk + dt) - base
        increments = increments[~np.isnan(increments)]  # NaN never counts
        if increments.size:
            max_observed = max(max_observed, float(increments.max()))
    return PerturbationReport(
        max_observed=max_observed,
        bound=bound,
        holds=bool(max_observed <= bound),
        j_used=j,
        trials=trials,
    )


def verify_cover_bruteforce(d: int, w: float, theta: float, probes: int, seed) -> bool:
    """Constructive covering check for the weight ball bound in d <= 3.

    Builds a centered uniform grid on [-w, w]^d whose cardinality stays
    within the ceiling of the (2 w sqrt(d) / theta)^d bound, then verifies
    that uniform random probes all lie within theta of some grid point. The
    probes are drawn and checked a chunk at a time, stopping at the first miss.
    """
    if not 1 <= d <= 3:
        raise InputError("brute-force cover check supports d in {1, 2, 3}")
    if not (w > 0 and theta > 0 and probes >= 1):
        raise InputError("need w > 0, theta > 0, probes >= 1")
    per_axis = max(1, math.ceil(w * math.sqrt(d) / theta))
    allowed = math.ceil((2.0 * w * math.sqrt(d) / theta) ** d)
    if per_axis**d > max(allowed, 1):
        return False
    h = 2.0 * w / per_axis
    rng = np.random.default_rng(seed)
    # uniform fills row after row, so the chunk size never changes the draws
    chunk = _WORKING_SET // d
    for start in range(0, probes, chunk):
        x = rng.uniform(-w, w, size=(min(chunk, probes - start), d))
        cell = np.clip(np.floor((x + w) / h), 0, per_axis - 1)
        centers = -w + (cell + 0.5) * h
        dist2 = np.sum((x - centers) ** 2, axis=1)
        if not np.all(dist2 <= theta * theta):
            return False
    return True


@dataclass
class HoeffdingReport:
    empirical_tail: float
    bound: float
    std_err: float
    holds: bool
    trials: int


def hoeffding_mc_check(
    a: float, b: float, n: int, t: float, trials: int, seed
) -> HoeffdingReport:
    """Monte Carlo check of the mean-deviation tail bound exp(-2 n t^2 / (b-a)^2).

    Samples `trials` means of n iid uniform[a, b] draws; the empirical tail
    P(mean - E >= t) must not exceed the bound by more than three Monte
    Carlo standard errors.
    """
    if not a < b:
        raise InputError("need a < b")
    if not (n >= 1 and trials >= 1):
        raise InputError("n and trials must be >= 1")
    if not t >= 0:
        raise InputError(f"t must be >= 0, got {t}")
    bound = math.exp(-2.0 * n * t * t / ((b - a) ** 2))
    mean = 0.5 * (a + b)
    rng = np.random.default_rng(seed)
    exceed = 0
    # uniform fills row after row, so the chunk size never changes the draws
    chunk = max(1, _WORKING_SET // n)
    for start in range(0, trials, chunk):
        means = rng.uniform(a, b, size=(min(chunk, trials - start), n)).mean(axis=1)
        exceed += int(np.count_nonzero(means - mean >= t))
    emp = exceed / trials
    se = math.sqrt(emp * (1.0 - emp) / trials)
    return HoeffdingReport(
        empirical_tail=emp,
        bound=bound,
        std_err=se,
        holds=bool(emp <= bound + 3.0 * se),
        trials=trials,
    )
