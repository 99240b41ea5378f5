"""Importance sampling: particles, weighting, estimation, ESS and breakdown.

The weighted empirical measure built here assigns weight g(v)/N to each of
N proposal draws v.  Its total mass is an estimator of one, not an
invariant: how far it strays, together with how well the plug-in divergence
estimate tracks the exact divergence, is exactly what the breakdown
experiment measures.

Replicated experiments derive one integer seed per replicate from the
master seed through ``numpy.random.SeedSequence``, so results do not depend
on scheduling and are reproducible from the master seed alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import ToleranceBudget
from .divergences import ConvexGenerator, ProbabilityVector
from .gaussian import (
    _EXP_OVERFLOW,
    DensityRatioModel,
    QuadratureSpec,
    WeightOverflowWarning,
    _window_breakpoints,
    adaptive_integral,
)

__all__ = [
    "WeightedEmpiricalMeasure",
    "Observable",
    "TrialOutcome",
    "BreakdownReport",
    "sample_particles",
    "estimate",
    "exact_mse",
    "normalized_weights",
    "ess_chi2",
    "ess_kl",
    "breakdown_trial",
    "breakdown_probability",
]


@dataclass(frozen=True)
class Observable:
    """A test function whose expectation under the target is estimated."""

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    @classmethod
    def one(cls) -> "Observable":
        return cls(lambda x: np.ones_like(np.asarray(x, dtype=float)), "1")

    @classmethod
    def identity(cls) -> "Observable":
        return cls(lambda x: np.asarray(x, dtype=float), "x")


@dataclass(frozen=True)
class WeightedEmpiricalMeasure:
    """Particles with nonnegative weights g(v)/N and the seed that drew them."""

    particles: np.ndarray
    weights: np.ndarray
    seed: int

    def __post_init__(self):
        particles = np.array(self.particles, dtype=float, copy=True)
        weights = np.array(self.weights, dtype=float, copy=True)
        if particles.ndim != 1 or weights.ndim != 1:
            raise ValueError("particles and weights must be one-dimensional")
        if particles.size != weights.size:
            raise ValueError(
                f"length mismatch: {particles.size} particles, {weights.size} weights"
            )
        if particles.size == 0:
            raise ValueError("a weighted empirical measure needs at least one particle")
        if np.any(np.isnan(weights)) or np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        particles.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "particles", particles)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return int(self.particles.size)

    def total_mass(self) -> float:
        """The measure applied to the constant function one."""
        return float(self.weights.sum())


def _draws_to_ratios(
    model: DensityRatioModel, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log ratios and ratios g(v) of proposal draws of any shape.

    ``model.log_ratio`` sees the draws flattened to one dimension.  A log
    ratio above the overflow limit gives an infinite ratio.
    """
    log_ratio = np.reshape(model.log_ratio(draws.ravel()), draws.shape)
    with np.errstate(over="ignore"):
        ratios = np.exp(log_ratio)
    ratios[log_ratio > _EXP_OVERFLOW] = np.inf
    return log_ratio, ratios


def sample_particles(model: DensityRatioModel, n: int, seed: int) -> WeightedEmpiricalMeasure:
    """Draw n proposal particles and weight them by g(v)/N.

    Deterministic for a given seed.  A density ratio that overflows the
    exponential is kept as an infinite weight and surfaced as a
    WeightOverflowWarning naming the first offending particle.
    """
    if n < 1:
        raise ValueError(f"particle count must be at least 1, got {n}")
    draws = np.asarray(model.proposal_sampler(n, seed))
    log_ratio, ratios = _draws_to_ratios(model, draws)
    bad = ~np.isfinite(ratios)
    if bad.any():
        index = int(np.argmax(bad))
        warnings.warn(
            f"{int(bad.sum())} weight(s) overflowed; first at particle index {index} "
            f"(v={draws[index]!r}, log ratio={log_ratio[index]!r})",
            WeightOverflowWarning,
            stacklevel=2,
        )
    return WeightedEmpiricalMeasure(draws, ratios / n, int(seed))


def estimate(measure: WeightedEmpiricalMeasure, phi: Observable) -> float:
    """The importance-sampling estimate: sum of weight times phi(particle)."""
    values = np.asarray(phi.fn(measure.particles), dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        index = int(np.argmax(~finite))
        raise ValueError(
            f"test function {phi.label or '<unnamed>'} is not finite at particle "
            f"index {index} (v={measure.particles[index]!r})"
        )
    return float(np.sum(measure.weights * values))


def exact_mse(
    model: DensityRatioModel,
    phi: Observable,
    n: int,
    spec: QuadratureSpec | None = None,
) -> float:
    """Var_Q(g phi) / N computed by quadrature.

    Returns +inf (diagnosed) when the second moment of g phi under the
    proposal diverges, e.g. the constant function with target variance >= 2.
    """
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    spec = spec or QuadratureSpec()
    lt = model.target_log_density
    lr = model.log_ratio
    lq = model.proposal_log_density
    points = _window_breakpoints(model, spec)

    def first_moment(x):
        return np.exp(lt(x)) * np.asarray(phi.fn(x), dtype=float)

    def second_moment(x):
        with np.errstate(over="ignore"):
            return np.exp(2.0 * lr(x) + lq(x)) * np.asarray(phi.fn(x), dtype=float) ** 2

    m2 = adaptive_integral(second_moment, points, spec)
    if math.isinf(m2):
        return math.inf
    m1 = adaptive_integral(first_moment, points, spec)
    return max(m2 - m1 * m1, 0.0) / n


def normalized_weights(measure: WeightedEmpiricalMeasure) -> ProbabilityVector:
    """Weights divided by their total mass."""
    total = measure.total_mass()
    if not math.isfinite(total):
        raise ValueError("cannot normalize weights with non-finite total mass")
    if total <= 0:
        raise ValueError("cannot normalize all-zero weights")
    return ProbabilityVector(measure.weights / total)


def ess_chi2(w_hat: ProbabilityVector) -> float:
    """Effective sample size 1 / sum of squared normalized weights, in [1, N]."""
    return float(1.0 / np.sum(w_hat.entries**2))


def ess_kl(w_hat: ProbabilityVector) -> float:
    """Entropy-based effective sample size N / exp(sum w log(N w)), in [1, N].

    Zero weights contribute zero to the exponent.  This is the definitional
    form of the KL divergence of the weights against uniform, which reaches
    1 at a vertex and N at uniform weights.
    """
    w = w_hat.entries
    n = w.size
    positive = w > 0
    exponent = float(np.sum(w[positive] * np.log(n * w[positive])))
    return n / math.exp(exponent)


@dataclass(frozen=True)
class TrialOutcome:
    """One breakdown trial: the two accuracy conditions and their inputs.

    ``mass_ok`` is the one-sided check total mass - 1 <= epsilon;
    ``estimate_ok`` checks the plug-in divergence estimate against the exact
    value within delta.  An overflowing weight fails the mass condition and
    sets ``overflowed``.
    """

    mass_ok: bool
    estimate_ok: bool
    mass: float
    divergence_estimate: float
    overflowed: bool = False

    @property
    def failed(self) -> bool:
        return not (self.mass_ok and self.estimate_ok)


def _check_trial(n: int, exact_divergence: float) -> None:
    if n < 1:
        raise ValueError(f"particle count must be at least 1, got {n}")
    if not math.isfinite(exact_divergence):
        raise ValueError("the exact divergence supplied to a trial must be finite")


def _block_draws(model: DensityRatioModel, n: int, seeds: list[int]) -> np.ndarray:
    """A (len(seeds), n) array whose row i is ``proposal_sampler(n, seeds[i])``."""
    samples = [model.proposal_sampler(n, seed) for seed in seeds]
    if len(samples) == 1:
        # a large replicate is used as drawn, without a copy
        return np.asarray(samples[0])[np.newaxis]
    return np.stack(samples)


def _trial_block(
    model: DensityRatioModel,
    f: ConvexGenerator,
    exact_divergence: float,
    n: int,
    budget: ToleranceBudget,
    seeds: list[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run one breakdown trial per seed, all in one vectorized pass.

    Row ``i`` holds the n draws of ``proposal_sampler(n, seeds[i])``, so
    each trial is the same as when run alone.  Returns per-trial arrays:
    mass, divergence estimate, mass_ok, estimate_ok and overflowed.
    """
    # the draws and log ratios are freed before f allocates its temporaries
    ratios = _draws_to_ratios(model, _block_draws(model, n, seeds))[1]
    overflowed = ~np.isfinite(ratios).all(axis=1)
    mass = ratios.mean(axis=1)
    # overflowed rows get a valid placeholder argument; their estimate is +inf
    ratios[overflowed] = 1.0
    divergence_estimate = f(ratios).mean(axis=1)
    divergence_estimate[overflowed] = np.inf
    mass_ok = (mass - 1.0) <= budget.epsilon
    estimate_ok = np.isfinite(divergence_estimate) & (
        np.abs(exact_divergence - divergence_estimate) <= budget.delta
    )
    return mass, divergence_estimate, mass_ok, estimate_ok, overflowed


def breakdown_trial(
    model: DensityRatioModel,
    f: ConvexGenerator,
    exact_divergence: float,
    n: int,
    budget: ToleranceBudget,
    seed: int,
) -> TrialOutcome:
    """Run one importance-sampling trial and test both accuracy conditions."""
    _check_trial(n, exact_divergence)
    mass, divergence_estimate, mass_ok, estimate_ok, overflowed = _trial_block(
        model, f, exact_divergence, n, budget, [seed]
    )
    return TrialOutcome(
        bool(mass_ok[0]),
        bool(estimate_ok[0]),
        float(mass[0]),
        float(divergence_estimate[0]),
        bool(overflowed[0]),
    )


@dataclass(frozen=True)
class BreakdownReport:
    """Aggregated breakdown trials at one sample size.

    A failed trial violates at least one of the two conditions, so the
    failure count lies between the larger violation count and their sum.
    """

    replicates: int
    n_particles: int
    budget: ToleranceBudget
    failure_count: int
    mass_violations: int
    estimate_violations: int

    def __post_init__(self):
        counts = (
            self.replicates,
            self.failure_count,
            self.mass_violations,
            self.estimate_violations,
        )
        if min(counts) < 0:
            raise ValueError("breakdown counts must be nonnegative")
        if self.failure_count > self.replicates:
            raise ValueError("failure count cannot exceed the number of replicates")
        if not (
            max(self.mass_violations, self.estimate_violations)
            <= self.failure_count
            <= self.mass_violations + self.estimate_violations
        ):
            raise ValueError(
                "failure count must lie between the larger violation count and their sum"
            )

    @property
    def failure_frequency(self) -> float:
        return self.failure_count / self.replicates


# Particles per block of replicates: enough to spread per-call overhead over
# many small replicates, few enough that a block's temporaries stay in cache.
# A larger replicate forms a block of its own.
_BLOCK_PARTICLES = 4096


def breakdown_probability(
    model: DensityRatioModel,
    f: ConvexGenerator,
    exact_divergence: float,
    n: int,
    budget: ToleranceBudget,
    replicates: int,
    seed: int,
) -> BreakdownReport:
    """Estimate the probability that a trial fails at sample size n.

    Replicate ``i`` runs with the integer seed drawn from
    ``SeedSequence(seed)``, so the report is a deterministic function of
    (model, f, n, budget, replicates, seed) and independent of scheduling.
    Replicates are evaluated in blocks of about 4096 particles; each still
    draws from its own seed, so the counts do not depend on the block size.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    _check_trial(n, exact_divergence)
    state = np.random.SeedSequence(int(seed)).generate_state(replicates, dtype=np.uint64)
    trial_seeds = state.tolist()
    rows = max(1, _BLOCK_PARTICLES // n)
    failures = 0
    mass_violations = 0
    estimate_violations = 0
    for start in range(0, replicates, rows):
        _, _, mass_ok, estimate_ok, _ = _trial_block(
            model, f, exact_divergence, n, budget, trial_seeds[start:start + rows]
        )
        failures += int(np.count_nonzero(~(mass_ok & estimate_ok)))
        mass_violations += int(np.count_nonzero(~mass_ok))
        estimate_violations += int(np.count_nonzero(~estimate_ok))
    return BreakdownReport(
        replicates=replicates,
        n_particles=n,
        budget=budget,
        failure_count=failures,
        mass_violations=mass_violations,
        estimate_violations=estimate_violations,
    )
