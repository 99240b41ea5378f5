"""The estimator pass from proposal draws to generator values f(g), pinned bit for bit.

Monte Carlo, breakdown and ESS results are compared with exact equality
against a plain-numpy reference written here: ``default_rng`` draws, the
textbook log-ratio expression, ``exp``, the overflow cut at 700, ``f.fn`` on
the strictly positive finite ratios and one ``sum`` per full chunk.  The
contract of ``_generator_values`` (zero ratios, overflowed ratios, NaN) is
tested through every estimator that uses it.
"""

import contextlib
import functools
import io
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isbound import (
    BUILTIN_GENERATORS,
    CHI_SQUARED,
    KULLBACK_LEIBLER,
    TOTAL_VARIATION,
    Gaussian1D,
    GaussianPair,
    ToleranceBudget,
    WeightOverflowWarning,
    breakdown_probability,
    breakdown_trial,
    custom_generator,
    ess_chi2,
    ess_kl,
    gaussian_chi_squared,
    gaussian_kl,
    make_gaussian_model,
    monte_carlo_divergence,
    normalized_weights,
    quadrature_divergence,
    sample_particles,
)
from isbound import cli, gaussian, sampling
from isbound.gaussian import _RATIO_BLOCK, _generator_values
from isbound.sampling import _BLOCK_PARTICLES

STD_NORMAL = Gaussian1D(0.0, 1.0)
BUDGET = ToleranceBudget(0.1, 0.1)
MC_CHUNK = 1_000_000
GENERATORS = list(BUILTIN_GENERATORS.values())


# -- the plain-numpy reference -------------------------------------------------


def textbook_log_ratio(pair, x):
    mp, vp = pair.target.mean, pair.target.variance
    mq, vq = pair.proposal.mean, pair.proposal.variance
    return 0.5 * math.log(vq / vp) - (x - mp) ** 2 / (2.0 * vp) + (x - mq) ** 2 / (2.0 * vq)


def reference_draws(pair, n, seed):
    q = pair.proposal
    return np.random.default_rng(seed).normal(q.mean, math.sqrt(q.variance), n)


def reference_ratios(pair, draws):
    log_ratio = textbook_log_ratio(pair, draws)
    with np.errstate(over="ignore"):
        ratios = np.exp(log_ratio)
    ratios[log_ratio > 700.0] = np.inf
    return ratios


def reference_values(f, ratios):
    """f.fn on the strictly positive finite ratios, f(0+) at 0 and +inf at +inf."""
    values = np.full_like(ratios, np.inf)
    values[ratios == 0.0] = f.value_at_zero
    valid = (ratios > 0.0) & np.isfinite(ratios)
    values[valid] = f.fn(ratios[valid])
    return values


@functools.cache
def reference_chunk_ratios(mean, variance, sample_count, seed):
    """The ratios of every Monte Carlo chunk, chunk j drawn from spawn key (j,)."""
    pair = make_gaussian_model(Gaussian1D(mean, variance), STD_NORMAL)
    chunks = []
    for j, start in enumerate(range(0, sample_count, MC_CHUNK)):
        n = min(MC_CHUNK, sample_count - start)
        seq = np.random.SeedSequence(seed, spawn_key=(j,))
        chunks.append(reference_ratios(pair, reference_draws(pair, n, seq)))
    return chunks


def reference_monte_carlo(mean, variance, f, sample_count, seed):
    total = total_sq = 0.0
    for ratios in reference_chunk_ratios(mean, variance, sample_count, seed):
        values = reference_values(f, ratios)
        total += float(values.sum())
        total_sq += float((values * values).sum())
    mean_value = total / sample_count
    var = max(total_sq - sample_count * mean_value * mean_value, 0.0) / (sample_count - 1)
    return mean_value, math.sqrt(var / sample_count)


def reference_trials(pair, f, n, seeds):
    """Per replicate seed: the mass and the divergence estimate of one trial."""
    masses, estimates = [], []
    for seed in seeds:
        ratios = reference_ratios(pair, reference_draws(pair, n, int(seed)))
        masses.append(ratios.mean())
        estimates.append(reference_values(f, ratios).mean())
    return np.array(masses), np.array(estimates)


# -- Monte Carlo, ESS and breakdown against the reference ----------------------

# a light-tailed shift, a narrow target whose ratios mostly underflow to 0, a wide target
MC_TARGETS = [(3.5, 1.0), (0.0, 1e-4), (0.0, 16.0)]
# two chunks: a full one and a partial one
TWO_CHUNKS = MC_CHUNK + 4321


@pytest.mark.parametrize("mean, variance", [*MC_TARGETS, (0.0, 1e-9), (40.0, 1.0)])
def test_ratios_match_reference_bits(mean, variance):
    # widened draws reach exp's subnormal and zero ranges and the cut at 700
    pair = make_gaussian_model(Gaussian1D(mean, variance), STD_NORMAL)
    draws = reference_draws(pair, 200_000, 7) * 12.0
    assert np.array_equal(pair.log_ratio(draws), textbook_log_ratio(pair, draws))
    assert np.array_equal(pair.ratios(draws), reference_ratios(pair, draws))


@pytest.mark.parametrize("mean, variance", MC_TARGETS)
def test_monte_carlo_matches_reference_bits(mean, variance):
    pair = make_gaussian_model(Gaussian1D(mean, variance), STD_NORMAL)
    for f in GENERATORS:
        d = monte_carlo_divergence(pair, f, TWO_CHUNKS, seed=41)
        expected = reference_monte_carlo(mean, variance, f, TWO_CHUNKS, 41)
        assert (d.value, d.std_error) == expected, f.kind
        assert d.sample_count == TWO_CHUNKS


def reference_ess(pair, n, seed):
    weights = reference_ratios(pair, reference_draws(pair, n, seed)) / n
    w = weights / weights.sum()
    positive = w > 0
    exponent = float(np.sum(w[positive] * np.log(n * w[positive])))
    return n / math.exp(exponent), float(1.0 / np.sum(w**2)), int(np.count_nonzero(~positive))


# N(2, 1) has no zero weight; under N(0, 1e-4) most ratios underflow to 0
@pytest.mark.parametrize("mean, variance, zeros", [(2.0, 1.0, False), (0.0, 1e-4, True)])
def test_ess_matches_reference_bits(mean, variance, zeros):
    pair = make_gaussian_model(Gaussian1D(mean, variance), STD_NORMAL)
    n = 200_003
    w_hat = normalized_weights(sample_particles(pair, n, seed=19))
    expected_kl, expected_chi2, zero_count = reference_ess(pair, n, 19)
    assert (zero_count > 0) == zeros
    assert ess_kl(w_hat) == expected_kl
    assert ess_chi2(w_hat) == expected_chi2


# below the block size many replicates share a block; above it each is its own block
@pytest.mark.parametrize("n, replicates", [(25, 400), (_BLOCK_PARTICLES + 1, 5)])
@pytest.mark.parametrize("mean, variance", [(3.0, 1.0), (0.0, 1e-4)])
def test_breakdown_matches_reference_bits(n, replicates, mean, variance):
    target = Gaussian1D(mean, variance)
    pair = make_gaussian_model(target, STD_NORMAL)
    seeds = np.random.SeedSequence(23).generate_state(replicates, np.uint64)
    for f in (KULLBACK_LEIBLER, CHI_SQUARED):
        exact = (gaussian_kl if f is KULLBACK_LEIBLER else gaussian_chi_squared)(
            target, STD_NORMAL
        ).value
        masses, estimates = reference_trials(pair, f, n, seeds)
        block = sampling._trial_block(
            pair, f, exact, n, BUDGET, sampling._replicate_rngs(seeds, replicates)[0]
        )
        np.testing.assert_array_equal(block[0], masses)
        np.testing.assert_array_equal(block[1], estimates)
        mass_ok = masses - 1.0 <= BUDGET.epsilon
        estimate_ok = np.isfinite(estimates) & (np.abs(exact - estimates) <= BUDGET.delta)
        report = breakdown_probability(pair, f, exact, n, BUDGET, replicates, seed=23)
        assert report.failure_count == np.count_nonzero(~(mass_ok & estimate_ok))
        assert report.mass_violations == np.count_nonzero(~mass_ok)
        assert report.estimate_violations == np.count_nonzero(~estimate_ok)
        outcome = breakdown_trial(pair, f, exact, n, BUDGET, int(seeds[-1]))
        assert (outcome.mass, outcome.divergence_estimate) == (masses[-1], estimates[-1])


@given(
    target_mean=st.floats(min_value=-40.0, max_value=40.0),
    proposal_mean=st.floats(min_value=-40.0, max_value=40.0),
    target_log10_var=st.floats(min_value=-9.0, max_value=math.log10(25.0)),
    proposal_log10_var=st.floats(min_value=-9.0, max_value=math.log10(25.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_property_log_ratio_is_the_textbook_expression(
    target_mean, proposal_mean, target_log10_var, proposal_log10_var, seed
):
    pair = make_gaussian_model(
        Gaussian1D(target_mean, 10.0**target_log10_var),
        Gaussian1D(proposal_mean, 10.0**proposal_log10_var),
    )
    rng = np.random.default_rng(seed)
    # proposal draws, points around the target and far-off points
    x = np.concatenate([
        pair.proposal_sampler(200, rng),
        rng.normal(target_mean, math.sqrt(pair.target.variance), 50),
        rng.uniform(-200.0, 200.0, 50),
    ])
    assert np.array_equal(pair.log_ratio(x), textbook_log_ratio(pair, x))
    grid = x.reshape(20, 15)
    assert np.array_equal(pair.log_ratio(grid), textbook_log_ratio(pair, grid))


# -- the contract of _generator_values -----------------------------------------


def strict_chi2_fn(x):
    """(x - 1)^2 that raises when called outside (0, inf), as fn may."""
    x = np.asarray(x, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(x > 0.0)):
        raise AssertionError(f"fn called on {x[~(np.isfinite(x) & (x > 0.0))][:3]!r}")
    return (x - 1.0) ** 2


STRICT_CHI2 = custom_generator(strict_chi2_fn, value_at_zero=1.0)


@dataclass(frozen=True)
class CyclicRatioPair(GaussianPair):
    """Draws from N(0, 1); the log ratios of the draws cycle through ``levels``."""

    levels: tuple = (math.nan, -800.0, 0.0, 720.0)

    def log_ratio(self, x):
        return np.resize(np.array(self.levels), np.shape(x))


# ratios e, 0, 1 and +inf, without a NaN
MIXED_NO_NAN = CyclicRatioPair(STD_NORMAL, STD_NORMAL, (1.0, -800.0, 0.0, 720.0))


class TestGeneratorValues:
    def test_zero_ratios_give_value_at_zero(self):
        for f in [*GENERATORS, STRICT_CHI2]:
            values = _generator_values(f, np.array([0.0, 1.0, 4.0, 0.0]))
            expected = [f.value_at_zero, 0.0, float(f.fn(np.array([4.0]))[0]), f.value_at_zero]
            assert values.tolist() == expected, f.kind

    def test_overflowed_ratios_give_infinity(self):
        for f in [*GENERATORS, STRICT_CHI2]:
            values = _generator_values(f, np.array([[np.inf, 1.0], [0.0, np.inf]]))
            assert values.tolist() == [[math.inf, 0.0], [f.value_at_zero, math.inf]], f.kind

    def test_nan_ratio_raises(self):
        for f in [*GENERATORS, STRICT_CHI2]:
            with pytest.raises(ValueError):
                _generator_values(f, np.array([1.0, np.nan, 0.0, np.inf]))

    def test_all_valid_ratios_match_fn(self):
        ratios = np.exp(np.random.default_rng(3).normal(0.0, 3.0, 1000))
        for f in GENERATORS:
            np.testing.assert_array_equal(_generator_values(f, ratios), f.fn(ratios))

    def test_strict_fn_in_monte_carlo(self):
        # most ratios of N(0, 1e-4) against N(0, 1) underflow to exactly 0
        pair = make_gaussian_model(Gaussian1D(0.0, 1e-4), STD_NORMAL)
        assert monte_carlo_divergence(pair, STRICT_CHI2, 20_000, seed=2) == (
            monte_carlo_divergence(pair, CHI_SQUARED, 20_000, seed=2)
        )
        with pytest.warns(WeightOverflowWarning):
            d = monte_carlo_divergence(MIXED_NO_NAN, STRICT_CHI2, 10, seed=1)
        assert d.value == math.inf

    def test_strict_fn_in_breakdown(self):
        pair = make_gaussian_model(Gaussian1D(0.0, 1e-4), STD_NORMAL)
        exact = gaussian_chi_squared(Gaussian1D(0.0, 1e-4), STD_NORMAL).value
        for n, replicates in [(25, 300), (_BLOCK_PARTICLES + 1, 2)]:
            strict = breakdown_probability(pair, STRICT_CHI2, exact, n, BUDGET, replicates, 3)
            builtin = breakdown_probability(pair, CHI_SQUARED, exact, n, BUDGET, replicates, 3)
            assert strict == builtin
        outcome = breakdown_trial(MIXED_NO_NAN, STRICT_CHI2, 1.0, 8, BUDGET, 1)
        assert outcome.overflowed and outcome.divergence_estimate == math.inf

    def test_strict_fn_in_quadrature(self):
        # the ratio underflows to 0 toward the window edges
        target = Gaussian1D(0.0, 0.5)
        pair = make_gaussian_model(target, STD_NORMAL)
        exact = gaussian_chi_squared(target, STD_NORMAL).value
        assert quadrature_divergence(pair, STRICT_CHI2).value == pytest.approx(exact, rel=1e-8)
        # chi2 of N(0, 3) diverges: the ratio overflows at the window edges
        wide = make_gaussian_model(Gaussian1D(0.0, 3.0), STD_NORMAL)
        assert quadrature_divergence(wide, STRICT_CHI2).value == math.inf

    def test_all_zero_ratios_estimate_value_at_zero(self):
        pair = CyclicRatioPair(STD_NORMAL, STD_NORMAL, (-800.0,))
        for f in [*GENERATORS, STRICT_CHI2]:
            d = monte_carlo_divergence(pair, f, 1000, seed=4)
            assert (d.value, d.std_error) == (f.value_at_zero, 0.0), f.kind

    def test_nan_log_ratio_raises_in_every_estimator(self):
        pair = CyclicRatioPair(STD_NORMAL, STD_NORMAL)
        estimators = [
            lambda f: monte_carlo_divergence(pair, f, 10, seed=1),
            lambda f: breakdown_trial(pair, f, 0.5, 8, BUDGET, 1),
            lambda f: breakdown_probability(pair, f, 0.5, 8, BUDGET, 20, 1),
        ]
        for f in (KULLBACK_LEIBLER, TOTAL_VARIATION, STRICT_CHI2):
            for estimate in estimators:
                with pytest.raises(ValueError):
                    estimate(f)


# -- blocked ratios and threaded work units -----------------------------------

SHIFT = make_gaussian_model(Gaussian1D(3.5, 1.0), STD_NORMAL)
# log g of SHIFT is 3.5 x - 6.125: above 700 at x = 250, below -750 at x = -250
EXTREME_DRAWS = (250.0, -250.0)


@pytest.mark.parametrize("size", [
    _RATIO_BLOCK - 1, _RATIO_BLOCK, _RATIO_BLOCK + 1, 3 * _RATIO_BLOCK + 7,
])
def test_blocked_ratios_match_reference_bits(size):
    draws = reference_draws(SHIFT, size, 5)
    # the overflowing and underflowing draws sit in the last block only
    draws[-len(EXTREME_DRAWS):] = EXTREME_DRAWS
    ratios = SHIFT.ratios(draws)
    expected = reference_ratios(SHIFT, draws)
    assert expected[-2:].tolist() == [math.inf, 0.0]
    assert np.isfinite(expected[:-2]).all() and (expected[:-2] > 0).all()
    assert np.array_equal(ratios, expected)
    # a 2-D block of replicates gives the ratios of its flattened draws
    rows = draws[: size - size % 3].reshape(3, -1)
    assert np.array_equal(SHIFT.ratios(rows), reference_ratios(SHIFT, rows))


@pytest.mark.parametrize("size", [_RATIO_BLOCK, 2 * _RATIO_BLOCK + 1])
def test_ratios_pass_one_block_at_a_time(size):
    seen = []

    @dataclass(frozen=True)
    class RecordingPair(GaussianPair):
        def log_ratio(self, x):
            seen.append(x)
            return super().log_ratio(x)

    draws = reference_draws(SHIFT, size, 6)
    ratios = RecordingPair(SHIFT.target, SHIFT.proposal).ratios(draws)
    # the ratios own their data, so a measure takes them as weights without a copy
    assert ratios.flags.owndata and ratios.shape == draws.shape
    assert [x.size for x in seen] == [
        min(_RATIO_BLOCK, size - start) for start in range(0, size, _RATIO_BLOCK)
    ]
    # every block is a view of the draws, not a copy
    assert all(np.shares_memory(x, draws) for x in seen)


def cli_output(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main([*argv, "--format", "json"]) == 0
    return buffer.getvalue()


# the chi-squared cells of table3's wide targets are infinite and not estimated
THREADED_ARGV = {
    "table2-mc": ["table2", "--method", "mc", "--mc-samples", "65536", "--seed", "3"],
    "table3-mc": ["table3", "--method", "mc", "--mc-samples", "65536", "--seed", "3"],
    "breakdown": ["breakdown", "--target-mean", "1", "--metric", "kl", "--particles", "20000",
                  "--replicates", "6", "--seed", "4"],
}


@pytest.mark.parametrize("case", sorted(THREADED_ARGV))
def test_threaded_and_serial_cli_output_are_identical(case, cpus, drawing_threads):
    argv = THREADED_ARGV[case]
    cpus(1)
    serial = cli_output(argv)
    assert drawing_threads == {threading.main_thread()}
    drawing_threads.clear()
    cpus(4)
    threaded = cli_output(argv)
    assert drawing_threads and threading.main_thread() not in drawing_threads
    assert threaded == serial


def test_small_units_stay_on_the_calling_thread(cpus, drawing_threads):
    cpus(4)
    units = gaussian._PARALLEL_PARTICLES - 1
    cli_output(["table2", "--method", "mc", "--mc-samples", str(units)])
    cli_output(["breakdown", "--target-mean", "1", "--metric", "kl", "--particles",
                str(units), "--replicates", "3"])
    assert drawing_threads == {threading.main_thread()}


def test_more_workers_than_cpus_with_frequent_switches(cpus, drawing_threads):
    """Eight workers on this machine's CPUs, switching every 10 us, give the serial output."""
    units = str(gaussian._PARALLEL_PARTICLES)
    argvs = [["table2", "--method", "mc", "--mc-samples", units, "--seed", "8"],
             ["breakdown", "--target-mean", "2", "--metric", "tv", "--particles", units,
              "--replicates", "16", "--seed", "8"]]
    cpus(1)
    serial = [cli_output(argv) for argv in argvs]
    drawing_threads.clear()
    cpus(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = [cli_output(argv) for argv in argvs]
    finally:
        sys.setswitchinterval(interval)
    assert len(drawing_threads) > 1 and threading.main_thread() not in drawing_threads
    assert threaded == serial
