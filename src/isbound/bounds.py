"""Upper bounds on discrete divergences and necessary-sample-size thresholds.

The central quantity is the largest f-divergence a weight vector of length
N can have against uniform weights: (f(N) + (N-1) f(0)) / N, attained at a
vertex of the simplex.  Allowing total mass up to 1 + excess inflates the
first term to f((1 + excess) N).  Inverting these caps in N turns a known
divergence between target and proposal into a sample-size threshold below
which importance sampling must fail one of its two accuracy conditions
with probability at least one half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .divergences import (
    ConvexGenerator,
    DivergenceKind,
    DivergenceValue,
    generator_eval,
)

__all__ = [
    "ToleranceBudget",
    "SampleSizeReport",
    "divergence_bound",
    "symbolic_divergence_bound",
    "mse_minimum_size",
    "necessary_condition_holds",
    "necessary_sample_size",
    "necessary_size_from_generator",
    "max_certifiable_size",
]

@dataclass(frozen=True)
class ToleranceBudget:
    """Accuracy budget: mass inflation ``epsilon`` and estimate error ``delta``."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")


def _check_size(n: int) -> int:
    if n != int(n) or n < 1:
        raise ValueError(f"sample size must be an integer >= 1, got {n!r}")
    return int(n)


def divergence_bound(n: int, f: ConvexGenerator, excess_mass: float = 0.0) -> float:
    """Maximum divergence against uniform weights for vectors of length n.

    With ``excess_mass`` = 0 this covers probability vectors; a positive
    value covers nonnegative vectors of total mass up to 1 + excess_mass.
    """
    n = _check_size(n)
    if excess_mass < 0:
        raise ValueError(f"excess_mass must be nonnegative, got {excess_mass!r}")
    return (generator_eval(f, (1.0 + excess_mass) * n) + (n - 1) * f.value_at_zero) / n


class _MetricRules(NamedTuple):
    """The bound's closed forms for one built-in metric.

    ``cap`` is the largest value the divergence can take; ``bound(n, e)`` is
    ``divergence_bound`` at excess mass e; ``threshold(d, eps, delta)`` is
    the real N at which that bound plus delta reaches d; ``mse(d)`` is the
    numerator of ``mse_minimum_size``.
    """

    cap: float
    bound: Callable[[int, float], float]
    threshold: Callable[[float, float, float], float]
    mse: Callable[[float], float]


def _tv_threshold(d: float, eps: float, delta: float) -> float:
    gap = 1.0 + eps / 2.0 + delta - d
    if gap <= 0.0:
        # at d near the cap the sum rounds the tolerances away; regrouped it keeps them
        gap = (eps / 2.0 + delta) + (1.0 - d)
    return 1.0 / gap


def _over_square(x: float, y: float) -> float:
    """x / y**2; x / y / y where y**2 is past float range, +inf where it is 0."""
    try:
        square = y**2
    except OverflowError:
        return x / y / y
    return x / square if square else math.inf


def _hellinger_threshold(d: float, eps: float, delta: float) -> float:
    gap = 2.0 + eps + delta - d
    if gap <= 0.0:
        gap = (eps + delta) + (2.0 - d)
    return _over_square(4.0 * (1.0 + eps), gap)


_RULES = {
    DivergenceKind.KULLBACK_LEIBLER: _MetricRules(
        math.inf,
        lambda n, e: (1.0 + e) * math.log(n * (1.0 + e)),
        lambda d, eps, delta: math.exp((d - delta) / (1.0 + eps)) / (1.0 + eps),
        math.expm1,
    ),
    DivergenceKind.CHI_SQUARED: _MetricRules(
        math.inf,
        lambda n, e: n * (1.0 + e) ** 2 - (1.0 + 2.0 * e),
        lambda d, eps, delta: _over_square(1.0 + 2.0 * eps + d - delta, 1.0 + eps),
        lambda d: d,
    ),
    DivergenceKind.TOTAL_VARIATION: _MetricRules(
        1.0,
        lambda n, e: 1.0 - 1.0 / n + e / 2.0,
        _tv_threshold,
        lambda d: 4.0 * d * d,
    ),
    DivergenceKind.SQUARED_HELLINGER: _MetricRules(
        2.0,
        lambda n, e: 2.0 * (1.0 - math.sqrt((1.0 + e) / n) + e / 2.0),
        _hellinger_threshold,
        lambda d: d,
    ),
}


def _rules(kind: DivergenceKind) -> _MetricRules:
    try:
        return _RULES[kind]
    except KeyError:
        raise ValueError(f"no closed-form bound for kind {kind!r}") from None


def _threshold(kind: DivergenceKind, d: float, budget: ToleranceBudget) -> float:
    """The metric's threshold at divergence d; a ValueError names the budget
    when the threshold of a finite divergence is nonpositive or past float range,
    where a rule's OverflowError means past float range."""
    try:
        threshold = _rules(kind).threshold(d, budget.epsilon, budget.delta)
    except OverflowError:
        threshold = math.inf
    if math.isinf(threshold) and math.isfinite(d):
        raise ValueError(f"budget {budget} puts the {kind.value} threshold past float range")
    if not threshold > 0:
        raise ValueError(f"budget {budget} makes the {kind.value} threshold nonpositive")
    return threshold


def symbolic_divergence_bound(kind: DivergenceKind, n: int, excess_mass: float = 0.0) -> float:
    """Reference closed forms of the bound for the four built-in divergences."""
    n = _check_size(n)
    return _rules(kind).bound(n, float(excess_mass))


def _divergence_scalar(d, rules: _MetricRules) -> float:
    value = float(d)
    if math.isnan(value) or value < 0:
        raise ValueError(f"divergence must be nonnegative, got {value!r}")
    if value > rules.cap:
        raise ValueError(f"divergence cannot exceed the metric's cap {rules.cap:g}, got {value!r}")
    return value


def mse_minimum_size(mse_cap: float, d, kind: DivergenceKind) -> float:
    """Minimum N for the constant test function's MSE to stay below ``mse_cap``.

    The thresholds are chi2/C, (exp(KL) - 1)/C, 4 TV^2/C and Hell^2/C; the
    Hellinger input is the squared distance, total variation is unsquared.
    """
    if not (mse_cap > 0 and math.isfinite(mse_cap)):
        raise ValueError(f"MSE cap must be positive and finite, got {mse_cap!r}")
    rules = _rules(kind)
    return rules.mse(_divergence_scalar(d, rules)) / mse_cap


def necessary_condition_holds(
    d_f, n: int, budget: ToleranceBudget, f: ConvexGenerator
) -> bool:
    """Whether D_f <= bound(N, epsilon) + delta, the condition a successful
    run of importance sampling forces; +inf divergences fail for every N."""
    value = float(d_f)
    if math.isnan(value):
        raise ValueError("divergence must not be NaN")
    if math.isinf(value):
        return False
    return value <= divergence_bound(n, f, budget.epsilon) + budget.delta


def _guarded_ceil(x: float):
    """Ceiling that ignores float dust of up to 4 ulps, and under 1/2, above an integer.

    From 2**52 on every float is an integer, and x is its own ceiling.
    """
    if math.isinf(x):
        return math.inf
    if x >= 2.0**52:
        return int(x)
    return max(math.ceil(x - min(4.0 * math.ulp(x), 0.5)), 1)


@dataclass(frozen=True)
class SampleSizeReport:
    """A divergence together with its sample-size threshold.

    Sample sizes strictly below ``threshold`` guarantee, with probability at
    least 1/2, that one of the two accuracy conditions fails.  The real
    threshold is preserved; ``necessary_size`` is its ceiling.
    """

    metric: DivergenceKind
    divergence: DivergenceValue
    threshold: float
    budget: ToleranceBudget

    def __post_init__(self):
        if math.isinf(self.threshold) != math.isinf(self.divergence.value):
            raise ValueError("threshold is infinite exactly when the divergence is")
        if not math.isinf(self.threshold) and not self.threshold > 0:
            raise ValueError(f"finite thresholds must be positive, got {self.threshold!r}")

    @property
    def necessary_size(self):
        return _guarded_ceil(self.threshold)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.threshold)


def necessary_sample_size(
    d, kind: DivergenceKind, budget: ToleranceBudget
) -> SampleSizeReport:
    """Sample-size threshold below which importance sampling must break down.

    ``d`` may be a DivergenceValue or a bare float (recorded as closed form);
    Hellinger input is always the squared distance.  A Monte Carlo estimate,
    which sampling noise can carry outside the metric's range, is clamped
    into [0, cap] first, and the report carries the clamped value.
    """
    rules = _rules(kind)
    if not isinstance(d, DivergenceValue):
        d = DivergenceValue(_divergence_scalar(d, rules), "closed_form")
    elif d.method == "monte_carlo":
        d = replace(d, value=min(max(d.value, 0.0), rules.cap))
    else:
        _divergence_scalar(d, rules)
    return SampleSizeReport(kind, d, _threshold(kind, d.value, budget), budget)


def necessary_size_from_generator(
    d_f, f: ConvexGenerator, budget: ToleranceBudget
) -> int:
    """Smallest integer N whose inflated bound plus delta reaches the divergence.

    Solved by exponential search followed by bisection; works for any convex
    generator and matches the closed-form thresholds for the built-ins up to
    rounding.  The search needs the bound to be nondecreasing in N, which
    convexity guarantees: with c = 1 + epsilon,
    bound(N) = f(0) + c [f(cN) - f(0)] / (cN), and the secant slope
    [f(x) - f(0)] / x of a convex f does not decrease in x.  A ValueError
    names float range when cN or the bound leaves it before reaching d.
    """
    value = float(d_f)
    if math.isnan(value) or value < 0:
        raise ValueError(f"divergence must be nonnegative, got {value!r}")
    if math.isinf(value):
        raise ValueError("no finite sample size reaches an infinite divergence")
    # float dust of up to 4 ulps of d, as _guarded_ceil forgives
    tol = 4.0 * math.ulp(value)

    def satisfied(n: int) -> bool:
        try:
            in_range = (1.0 + budget.epsilon) * n < math.inf
        except OverflowError:  # n itself is past float range
            in_range = False
        with np.errstate(over="ignore"):
            bound = divergence_bound(n, f, budget.epsilon) if in_range else math.inf
        if not bound < math.inf:
            raise ValueError(f"the bound leaves float range before reaching divergence {value!r}")
        return bound + budget.delta >= value - tol

    hi = 1
    while not satisfied(hi):
        hi *= 2
    # invariant: satisfied(hi), not satisfied(lo) for lo >= 1
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


def max_certifiable_size(kind: DivergenceKind, budget: ToleranceBudget) -> float:
    """Largest threshold the metric can ever produce under this budget.

    Total variation and Hellinger are bounded metrics, so their thresholds
    cap out (at distance 1, resp. squared distance 2); the unbounded KL and
    chi-squared divergences can demand arbitrarily large sample sizes.  The
    cap is the threshold at the metric's largest value.
    """
    return _threshold(kind, _rules(kind).cap, budget)
