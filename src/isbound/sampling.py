"""Importance sampling: particles, weighting, estimation, ESS and breakdown.

The weighted empirical measure built here assigns weight g(v)/N to each of
N proposal draws v.  Its total mass is an estimator of one, not an
invariant: how far it strays, together with how well the plug-in divergence
estimate tracks the exact divergence, is exactly what the breakdown
experiment measures.

Replicated experiments derive one integer seed per replicate from the
master seed through ``numpy.random.SeedSequence``, so results do not depend
on scheduling and are reproducible from the master seed alone.  Breakdown
replicates compute the generator states of all their seeds in one pass and
draw through one reused generator, exactly as ``default_rng(seed)`` would.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .bounds import ToleranceBudget
from .divergences import ConvexGenerator, ProbabilityVector, _frozen, _generator_values
from .gaussian import GaussianPair, SeedLike, WeightOverflowWarning, _weighted_variance

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
        particles, weights = _frozen(self.particles), _frozen(self.weights)
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
        object.__setattr__(self, "particles", particles)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return int(self.particles.size)

    def total_mass(self) -> float:
        """The measure applied to the constant function one."""
        return float(self.weights.sum())


def sample_particles(pair: GaussianPair, n: int, seed: int) -> WeightedEmpiricalMeasure:
    """Draw n proposal particles and weight them by g(v)/N.

    Deterministic for a given seed.  A density ratio that overflows the
    exponential is kept as an infinite weight and surfaced as a
    WeightOverflowWarning naming the first offending particle.
    """
    if n < 1:
        raise ValueError(f"particle count must be at least 1, got {n}")
    draws = np.asarray(pair.proposal_sampler(n, seed))
    log_ratio, ratios = pair.ratios(draws)
    if not ratios.max() < math.inf:
        bad = ~np.isfinite(ratios)
        index = int(np.argmax(bad))
        warnings.warn(
            f"{int(bad.sum())} weight(s) overflowed; first at particle index {index} "
            f"(v={draws[index]!r}, log ratio={log_ratio[index]!r})",
            WeightOverflowWarning,
            stacklevel=2,
        )
    ratios /= n
    # both arrays are fresh: frozen here, the measure takes them without a copy
    draws.setflags(write=False)
    ratios.setflags(write=False)
    return WeightedEmpiricalMeasure(draws, ratios, int(seed))


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


def exact_mse(pair: GaussianPair, phi: Observable, n: int) -> float:
    """Var_Q(g phi) / N computed by quadrature.

    Returns +inf (diagnosed) when the second moment of g phi under the
    proposal diverges, e.g. the constant function with target variance >= 2.
    """
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    return _weighted_variance(pair, phi.fn) / n


def normalized_weights(measure: WeightedEmpiricalMeasure) -> ProbabilityVector:
    """Weights divided by their total mass."""
    total = measure.total_mass()
    if not math.isfinite(total):
        raise ValueError("cannot normalize weights with non-finite total mass")
    if total <= 0:
        raise ValueError("cannot normalize all-zero weights")
    entries = measure.weights / total
    entries.setflags(write=False)
    return ProbabilityVector(entries)


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
    if w.min() == 0.0:
        w = w[w > 0.0]
    terms = n * w
    np.log(terms, out=terms)
    terms *= w
    return n / math.exp(float(terms.sum()))


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


# numpy's SeedSequence hashing constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


def _hash_steps(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor, multiplier) of ``count`` successive hashmix calls.

    The hash constant advances the same way whatever the data, so every
    seed's lane uses the same sequence.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return [(np.uint32(a), np.uint32(b)) for a, b in zip(consts, consts[1:])]


def _hashmix(lanes: np.ndarray, step: tuple[np.uint32, np.uint32]) -> np.ndarray:
    xor, mult = step
    lanes = (lanes ^ xor) * mult
    return lanes ^ (lanes >> np.uint32(16))


def _seed_sequence_words(seeds: Iterable[int]) -> list[np.ndarray]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every uint64 seed.

    Array ``k`` of the result holds word ``k`` of every seed.  Runs on
    uint32 arrays, one lane per seed.  A seed below 2**32 has a high word
    of 0, as numpy pads its pool.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = [seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)]
    entropy += [np.zeros_like(entropy[0])] * (_POOL_SIZE - len(entropy))
    steps = iter(_hash_steps(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE))
    pool = [_hashmix(word, next(steps)) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed = _hashmix(pool[src], next(steps))
                mixed = pool[dst] * np.uint32(_MIX_MULT_L) - hashed * np.uint32(_MIX_MULT_R)
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    words = [
        _hashmix(pool[i % _POOL_SIZE], step).astype(np.uint64)
        for i, step in enumerate(_hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    ]
    # little-endian uint32 pairs form each uint64 word
    return [words[2 * k] | words[2 * k + 1] << np.uint64(32) for k in range(4)]


def _pcg64_states(seeds: Iterable[int]) -> Iterator[dict]:
    """``np.random.PCG64(seed).state`` of every uint64 seed, in turn.

    The seed words of all seeds come from one vectorized pass; PCG64's
    ``srandom`` step runs in Python ints as each state is taken.
    """
    for hi, lo, seq_hi, seq_lo in zip(*(w.tolist() for w in _seed_sequence_words(seeds))):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK_128
        state = ((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK_128
        yield {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


@functools.cache
def _bulk_seeding_matches_numpy() -> bool:
    """Whether ``_pcg64_states`` reproduces this numpy's seeding (checked once per process)."""
    seeds = (1, 2**64 - 1)
    return all(
        state == np.random.PCG64(seed).state
        for seed, state in zip(seeds, _pcg64_states(seeds))
    )


def _replicate_rngs(seeds: Iterable[int]) -> Iterator[SeedLike]:
    """Per seed, a ``proposal_sampler`` seed that draws as ``default_rng(seed)``.

    All states are computed in one pass and loaded in turn into one
    Generator, which is yielded for every seed: draw from it before taking
    the next.  If the bulk states ever differ from numpy's, the int seeds
    are yielded instead.
    """
    if not _bulk_seeding_matches_numpy():
        yield from map(int, seeds)
        return
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for state in _pcg64_states(seeds):
        bit_generator.state = state
        yield generator


def _block_draws(pair: GaussianPair, n: int, rngs: Iterable[SeedLike]) -> np.ndarray:
    """A (replicates, n) array whose row i is ``proposal_sampler(n, rng_i)``."""
    samples = [pair.proposal_sampler(n, rng) for rng in rngs]
    if len(samples) == 1:
        # a large replicate is used as drawn, without a copy
        return np.asarray(samples[0])[np.newaxis]
    return np.stack(samples)


def _trial_block(
    pair: GaussianPair,
    f: ConvexGenerator,
    exact_divergence: float,
    n: int,
    budget: ToleranceBudget,
    rngs: Iterable[SeedLike],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run one breakdown trial per replicate generator, all in one vectorized pass.

    Row ``i`` holds the n draws of ``proposal_sampler(n, rng_i)``, so
    each trial is the same as when run alone.  Returns per-trial arrays:
    mass, divergence estimate, mass_ok, estimate_ok and overflowed.
    """
    # the draws and log ratios are freed before f allocates its temporaries
    ratios = pair.ratios(_block_draws(pair, n, rngs))[1]
    mass = ratios.mean(axis=1)
    # an overflowed ratio makes the mass of its row +inf
    overflowed = np.isinf(mass)
    if overflowed.any():
        overflowed = np.isinf(ratios).any(axis=1)
    divergence_estimate = _generator_values(f, ratios).mean(axis=1)
    mass_ok = (mass - 1.0) <= budget.epsilon
    estimate_ok = np.isfinite(divergence_estimate) & (
        np.abs(exact_divergence - divergence_estimate) <= budget.delta
    )
    return mass, divergence_estimate, mass_ok, estimate_ok, overflowed


def breakdown_trial(
    pair: GaussianPair,
    f: ConvexGenerator,
    exact_divergence: float,
    n: int,
    budget: ToleranceBudget,
    seed: int,
) -> TrialOutcome:
    """Run one importance-sampling trial and test both accuracy conditions."""
    _check_trial(n, exact_divergence)
    mass, divergence_estimate, mass_ok, estimate_ok, overflowed = _trial_block(
        pair, f, exact_divergence, n, budget, [seed]
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
    pair: GaussianPair,
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
    (pair, f, n, budget, replicates, seed) and independent of scheduling.
    Replicates are evaluated in blocks of about 4096 particles; each still
    draws what ``default_rng`` of its own seed draws, so the counts do not
    depend on the block size.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    _check_trial(n, exact_divergence)
    trial_seeds = np.random.SeedSequence(int(seed)).generate_state(replicates, np.uint64)
    rngs = _replicate_rngs(trial_seeds)
    rows = max(1, _BLOCK_PARTICLES // n)
    failures = 0
    mass_violations = 0
    estimate_violations = 0
    for _ in range(0, replicates, rows):
        _, _, mass_ok, estimate_ok, _ = _trial_block(
            pair, f, exact_divergence, n, budget, itertools.islice(rngs, rows)
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
