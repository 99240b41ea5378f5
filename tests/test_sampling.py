"""Tests for particle weighting, estimation, ESS diagnostics and breakdown."""

import itertools
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isbound import (
    BUILTIN_GENERATORS,
    CHI_SQUARED,
    KULLBACK_LEIBLER,
    TOTAL_VARIATION,
    BreakdownReport,
    Gaussian1D,
    GaussianPair,
    Observable,
    ProbabilityVector,
    ToleranceBudget,
    WeightedEmpiricalMeasure,
    WeightOverflowWarning,
    breakdown_probability,
    breakdown_trial,
    custom_generator,
    ess_chi2,
    ess_kl,
    estimate,
    exact_mse,
    gaussian_chi_squared,
    gaussian_kl,
    gaussian_squared_hellinger,
    gaussian_total_variation,
    make_gaussian_model,
    monte_carlo_divergence,
    normalized_weights,
    quadrature_divergence,
    sample_particles,
)
from isbound import gaussian, sampling
from isbound.cli import main
from isbound.gaussian import _PARALLEL_PARTICLES, _RATIO_BLOCK, _parallel_map
from isbound.sampling import _BLOCK_PARTICLES, _replicate_rngs

STD_NORMAL = Gaussian1D(0.0, 1.0)
BUDGET = ToleranceBudget(0.1, 0.1)


def shifted_model(mean: float, variance: float = 1.0):
    return make_gaussian_model(Gaussian1D(mean, variance), STD_NORMAL)


@dataclass(frozen=True)
class ConstantRatioPair(GaussianPair):
    """Draws from N(0, 1), with a density ratio of exp(level) at every draw."""

    level: float = 720.0

    def log_ratio(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.level)


class SteepRatioPair(GaussianPair):
    """Draws from N(0, 1), with log g = 300 v: about 1 % of the ratios overflow."""

    def log_ratio(self, x):
        return 300.0 * np.asarray(x, dtype=float)


def overflowing_model(log_ratio: float = 720.0):
    """A synthetic model whose density ratio is always exp(log_ratio)."""
    return ConstantRatioPair(STD_NORMAL, STD_NORMAL, log_ratio)


class TestWeightedEmpiricalMeasure:
    def test_validation(self):
        with pytest.raises(ValueError, match="mismatch"):
            WeightedEmpiricalMeasure([1.0, 2.0], [0.5], seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            WeightedEmpiricalMeasure([1.0], [-0.5], seed=0)
        with pytest.raises(ValueError, match="at least one"):
            WeightedEmpiricalMeasure([], [], seed=0)

    def test_arrays_are_immutable(self):
        measure = WeightedEmpiricalMeasure([1.0, 2.0], [0.5, 0.5], seed=0)
        with pytest.raises(ValueError):
            measure.weights[0] = 1.0


class TestSampleParticles:
    def test_identical_pair_gives_exactly_uniform_weights(self):
        model = make_gaussian_model(STD_NORMAL, STD_NORMAL)
        measure = sample_particles(model, 5, seed=0)
        assert np.all(measure.weights == 0.2)

    def test_weights_are_ratio_over_n(self):
        model = shifted_model(2.0)
        measure = sample_particles(model, 200, seed=9)
        recomputed = np.exp(model.log_ratio(measure.particles)) / 200
        np.testing.assert_array_equal(measure.weights, recomputed)

    def test_total_mass_near_one(self):
        # standard error of the mass at N=1000 is sqrt((e^4-1)/1000)
        model = shifted_model(2.0)
        measure = sample_particles(model, 1000, seed=7)
        se = math.sqrt((math.exp(4) - 1.0) / 1000)
        assert se == pytest.approx(0.2316, abs=5e-4)
        assert abs(measure.total_mass() - 1.0) <= 5.0 * se

    def test_deterministic_given_seed(self):
        model = shifted_model(2.0)
        a = sample_particles(model, 50, seed=3)
        b = sample_particles(model, 50, seed=3)
        np.testing.assert_array_equal(a.particles, b.particles)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            sample_particles(shifted_model(0.0), 0, seed=1)

    def test_overflow_surfaces_as_warning_with_index(self):
        with pytest.warns(WeightOverflowWarning, match="particle index 0"):
            measure = sample_particles(overflowing_model(), 3, seed=1)
        assert np.all(np.isinf(measure.weights))

    def test_overflow_warning_names_the_first_particle_and_its_log_ratio(self):
        pair = SteepRatioPair(STD_NORMAL, STD_NORMAL)
        n = 3 * _RATIO_BLOCK
        draws = pair.proposal_sampler(n, 8)
        log_ratio = pair.log_ratio(draws)
        index = int(np.argmax(log_ratio > 700.0))
        with pytest.warns(WeightOverflowWarning) as record:
            sample_particles(pair, n, seed=8)
        assert (
            f"first at particle index {index} "
            f"(v={draws[index]!r}, log ratio={log_ratio[index]!r})"
        ) in str(record[0].message)

    def test_log_ratio_past_the_cut_overflows_though_exp_is_finite(self):
        # exp(705) is a finite double; the overflow cut at 700 still applies
        with pytest.warns(WeightOverflowWarning):
            measure = sample_particles(overflowing_model(705.0), 3, seed=1)
        assert np.all(np.isinf(measure.weights))


class TestEstimate:
    def test_constant_one_on_identical_pair_is_exact(self):
        model = make_gaussian_model(STD_NORMAL, STD_NORMAL)
        measure = sample_particles(model, 5, seed=0)
        assert estimate(measure, Observable.one()) == 1.0

    def test_zero_function(self):
        measure = sample_particles(shifted_model(1.0), 64, seed=5)
        assert estimate(measure, Observable(lambda x: np.zeros_like(x), "0")) == 0.0

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_nonfinite_value_reports_particle_index(self):
        measure = WeightedEmpiricalMeasure([0.0, 1.0], [0.5, 0.5], seed=0)
        with pytest.raises(ValueError, match="index 0"):
            estimate(measure, Observable(lambda x: 1.0 / x, "1/x"))

    def test_unbiasedness_over_replicates(self):
        """Replicate means of the estimator match the target expectations."""
        model = shifted_model(1.0)
        replicates = 10_000
        seeds = np.random.SeedSequence(101).generate_state(replicates, dtype=np.uint64)
        ones = np.empty(replicates)
        firsts = np.empty(replicates)
        phi_one, phi_x = Observable.one(), Observable.identity()
        for i, seed in enumerate(seeds):
            measure = sample_particles(model, 100, int(seed))
            ones[i] = estimate(measure, phi_one)
            firsts[i] = estimate(measure, phi_x)
        # Var_Q(g) = e - 1; Var_Q(x g) = e(1 + 4) - 1
        se_one = math.sqrt((math.e - 1.0) / (100 * replicates))
        se_x = math.sqrt((math.e * 5.0 - 1.0) / (100 * replicates))
        assert abs(ones.mean() - 1.0) <= 4.0 * se_one
        assert abs(firsts.mean() - 1.0) <= 4.0 * se_x
        # empirical mean squared error of the mass matches Var_Q(g)/N to 10%
        mse = float(np.mean((ones - 1.0) ** 2))
        exact = exact_mse(model, phi_one, 100)
        assert abs(mse - exact) <= 0.1 * exact


class TestExactMse:
    def test_identical_pair_has_zero_mse(self):
        model = make_gaussian_model(STD_NORMAL, STD_NORMAL)
        assert exact_mse(model, Observable.one(), 7) == pytest.approx(0.0, abs=1e-12)

    def test_constant_function_mse_is_chi2_over_n(self):
        model = shifted_model(2.0)
        value = exact_mse(model, Observable.one(), 100)
        assert value == pytest.approx((math.exp(4) - 1.0) / 100, rel=1e-9)
        assert value == pytest.approx(0.535982, abs=1e-6)

    def test_heavy_target_is_diagnosed_infinite(self):
        model = make_gaussian_model(Gaussian1D(0.0, 4.0), STD_NORMAL)
        assert exact_mse(model, Observable.one(), 10) == math.inf

    def test_nonconstant_function(self):
        # phi(x) = x on the unit mean shift: Var_Q(x g) = 5e - 1
        model = shifted_model(1.0)
        value = exact_mse(model, Observable.identity(), 50)
        assert value == pytest.approx((5.0 * math.e - 1.0) / 50, rel=1e-9)


class TestNormalizedWeights:
    def test_uniform_stays_uniform(self):
        measure = WeightedEmpiricalMeasure([0.0, 1.0, 2.0], np.full(3, 1 / 3), seed=0)
        np.testing.assert_allclose(normalized_weights(measure).entries, 1 / 3, rtol=1e-15)

    def test_plain_normalization(self):
        measure = WeightedEmpiricalMeasure([0.0, 1.0], [0.2, 0.6], seed=0)
        np.testing.assert_allclose(normalized_weights(measure).entries, [0.25, 0.75])

    def test_zero_entry_is_preserved(self):
        measure = WeightedEmpiricalMeasure([0.0, 1.0, 2.0], [0.0, 0.25, 0.25], seed=0)
        np.testing.assert_allclose(normalized_weights(measure).entries, [0.0, 0.5, 0.5])

    def test_all_zero_rejected(self):
        measure = WeightedEmpiricalMeasure([0.0, 1.0], [0.0, 0.0], seed=0)
        with pytest.raises(ValueError, match="all-zero"):
            normalized_weights(measure)


class TestEffectiveSampleSizes:
    def test_uniform_weights_give_n(self):
        w = ProbabilityVector.uniform(10)
        assert ess_chi2(w) == pytest.approx(10.0, abs=1e-9)
        assert ess_kl(w) == pytest.approx(10.0, abs=1e-9)

    def test_vertex_gives_one(self):
        w = ProbabilityVector.vertex(10, 4)
        assert ess_chi2(w) == pytest.approx(1.0, abs=1e-9)
        assert ess_kl(w) == pytest.approx(1.0, abs=1e-9)

    def test_half_degenerate_vector(self):
        w = ProbabilityVector([0.5, 0.5, 0.0, 0.0])
        assert ess_chi2(w) == pytest.approx(2.0, abs=1e-12)
        assert ess_kl(w) == pytest.approx(2.0, abs=1e-12)

    def test_ranges_over_random_vectors(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            batch = rng.dirichlet(np.full(n, rng.uniform(0.2, 5.0)), size=100)
            for row in batch:
                w = ProbabilityVector(row / row.sum())
                for value in (ess_chi2(w), ess_kl(w)):
                    assert 1.0 - 1e-9 <= value <= n + 1e-9

    def test_equal_to_n_only_at_uniform(self):
        w = np.full(20, 0.05)
        w[0] += 1e-3
        w[1] -= 1e-3
        vec = ProbabilityVector(w)
        assert ess_chi2(vec) < 20.0 - 1e-9
        assert ess_kl(vec) < 20.0 - 1e-9

    def test_kl_ess_dominates_chi2_ess_on_heavy_case(self):
        measure = sample_particles(shifted_model(3.0), 100, seed=17)
        w = normalized_weights(measure)
        assert ess_chi2(w) <= ess_kl(w) <= 100.0


@given(
    raw=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=40,
    ).filter(lambda xs: sum(xs) > 0)
)
@settings(max_examples=200, deadline=None)
def test_property_ess_within_range(raw):
    arr = np.asarray(raw)
    w = ProbabilityVector(arr / arr.sum())
    n = len(w)
    assert 1.0 - 1e-9 <= ess_chi2(w) <= n + 1e-9
    assert 1.0 - 1e-9 <= ess_kl(w) <= n + 1e-9


class TestBreakdownTrial:
    def test_identical_pair_passes_both_conditions(self):
        model = make_gaussian_model(STD_NORMAL, STD_NORMAL)
        outcome = breakdown_trial(model, KULLBACK_LEIBLER, 0.0, 50, BUDGET, seed=2)
        assert outcome.mass_ok and outcome.estimate_ok
        assert outcome.mass == 1.0
        assert outcome.divergence_estimate == 0.0
        assert not outcome.failed

    def test_far_target_fails_below_threshold(self):
        # threshold for KL 4.5 is 49.63, so N=25 fails for most seeds
        model = shifted_model(3.0)
        failures = sum(
            breakdown_trial(model, KULLBACK_LEIBLER, 4.5, 25, BUDGET, seed=s).failed
            for s in range(50)
        )
        assert failures >= 40

    def test_near_target_succeeds_well_above_threshold(self):
        model = shifted_model(1.0)
        outcomes = [
            breakdown_trial(model, KULLBACK_LEIBLER, 0.5, 10_000, BUDGET, seed=s)
            for s in range(20)
        ]
        assert sum(not o.failed for o in outcomes) >= 19

    def test_overflow_fails_mass_condition_with_flag(self):
        outcome = breakdown_trial(overflowing_model(), CHI_SQUARED, 1.0, 4, BUDGET, seed=3)
        assert outcome.overflowed
        assert not outcome.mass_ok
        assert not outcome.estimate_ok
        assert outcome.failed

    def test_rejects_infinite_exact_divergence(self):
        with pytest.raises(ValueError, match="finite"):
            breakdown_trial(shifted_model(0.0), CHI_SQUARED, math.inf, 5, BUDGET, seed=0)


class TestBreakdownProbability:
    def test_identical_pair_never_fails(self):
        model = make_gaussian_model(STD_NORMAL, STD_NORMAL)
        report = breakdown_probability(model, KULLBACK_LEIBLER, 0.0, 100, BUDGET, 100, seed=4)
        assert report.failure_count == 0
        assert report.failure_frequency == 0.0

    def test_below_threshold_fails_at_least_half(self):
        model = shifted_model(3.0)
        report = breakdown_probability(model, KULLBACK_LEIBLER, 4.5, 25, BUDGET, 1000, seed=6)
        assert report.failure_frequency >= 0.5
        assert report.replicates == 1000
        assert report.n_particles == 25
        assert report.failure_count <= report.replicates
        assert max(report.mass_violations, report.estimate_violations) <= report.failure_count

    def test_deterministic_reports(self):
        model = shifted_model(3.0)
        a = breakdown_probability(model, KULLBACK_LEIBLER, 4.5, 25, BUDGET, 64, seed=8)
        b = breakdown_probability(model, KULLBACK_LEIBLER, 4.5, 25, BUDGET, 64, seed=8)
        assert a == b

    def test_failure_frequency_nonincreasing_in_n(self):
        """Statistical monotonicity across growing sample sizes, 0.05 slack."""
        model = shifted_model(3.0)
        freqs = [
            breakdown_probability(
                model, KULLBACK_LEIBLER, 4.5, n, BUDGET, 1000, seed=12
            ).failure_frequency
            for n in (25, 250, 2500, 25000)
        ]
        for earlier, later in zip(freqs, freqs[1:]):
            assert later <= earlier + 0.05

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError):
            breakdown_probability(shifted_model(1.0), KULLBACK_LEIBLER, 0.5, 5, BUDGET, 0, seed=0)


class TestBreakdownReport:
    @pytest.mark.parametrize(
        "failures, mass, est",
        [(3, 4, 0), (3, 0, 4), (5, 2, 2), (-1, 0, 0), (1, -1, 1), (1, 1, -1)],
    )
    def test_inconsistent_counts_are_rejected(self, failures, mass, est):
        with pytest.raises(ValueError):
            BreakdownReport(10, 5, BUDGET, failures, mass, est)

    def test_consistent_counts_are_accepted(self):
        report = BreakdownReport(10, 5, BUDGET, 6, 4, 3)
        assert report.failure_frequency == 0.6


def summed_trial_counts(model, f, exact, n, replicates, seed):
    """Failure and violation counts of per-seed trials, run one at a time."""
    seeds = np.random.SeedSequence(seed).generate_state(replicates, dtype=np.uint64)
    outcomes = [breakdown_trial(model, f, exact, n, BUDGET, int(s)) for s in seeds]
    return (
        sum(o.failed for o in outcomes),
        sum(not o.mass_ok for o in outcomes),
        sum(not o.estimate_ok for o in outcomes),
    )


def report_counts(report):
    return (report.failure_count, report.mass_violations, report.estimate_violations)


class OneDimensionalPair(GaussianPair):
    """Draws from N(0, 1); ``log_ratio`` takes only 1-D input and overflows above 2."""

    def log_ratio(self, x):
        if np.ndim(x) != 1:
            raise ValueError("log_ratio takes one-dimensional input only")
        return np.where(x > 2.0, 720.0, 0.5 * x - 0.125)


def one_dimensional_model():
    return OneDimensionalPair(STD_NORMAL, STD_NORMAL)


CLOSED_FORMS = {
    "kl": gaussian_kl,
    "chi2": gaussian_chi_squared,
    "tv": gaussian_total_variation,
    "hellinger": gaussian_squared_hellinger,
}

# one replicate per block; a single partial block; full blocks plus a partial one
BLOCK_SHAPES = [(_BLOCK_PARTICLES + 1, 3), (1, 300), (1000, 10)]


class TestBlockedBreakdown:
    @pytest.mark.parametrize("n, replicates", BLOCK_SHAPES)
    @pytest.mark.parametrize("kind", list(BUILTIN_GENERATORS), ids=lambda k: k.value)
    def test_counts_equal_summed_single_trials(self, kind, n, replicates):
        target = Gaussian1D(1.5, 1.0)
        exact = CLOSED_FORMS[kind.value](target, STD_NORMAL).value
        model = make_gaussian_model(target, STD_NORMAL)
        f = BUILTIN_GENERATORS[kind]
        report = breakdown_probability(model, f, exact, n, BUDGET, replicates, seed=31)
        assert report_counts(report) == summed_trial_counts(model, f, exact, n, replicates, 31)

    @pytest.mark.parametrize("n, replicates", [(_BLOCK_PARTICLES + 1, 3), (5, 1000)])
    @pytest.mark.parametrize("make_model", [overflowing_model, one_dimensional_model])
    def test_edge_models_match_summed_single_trials(self, make_model, n, replicates):
        model = make_model()
        report = breakdown_probability(model, CHI_SQUARED, 0.5, n, BUDGET, replicates, seed=5)
        expected = summed_trial_counts(model, CHI_SQUARED, 0.5, n, replicates, 5)
        assert report_counts(report) == expected

    @pytest.mark.parametrize("n", [1, 25, _BLOCK_PARTICLES + 1])
    def test_trial_matches_direct_computation(self, n):
        model = shifted_model(2.0)
        # seeds past uint64 are valid for default_rng and so for a trial
        for seed in [*range(5), 2**64, 2**70]:
            ratios = np.exp(model.log_ratio(model.proposal_sampler(n, seed)))
            outcome = breakdown_trial(model, KULLBACK_LEIBLER, 2.0, n, BUDGET, seed)
            assert outcome.mass == np.mean(ratios)
            assert outcome.divergence_estimate == np.mean(KULLBACK_LEIBLER(ratios))
            assert not outcome.overflowed

    def test_negative_trial_seed_is_a_value_error(self):
        with pytest.raises(ValueError):
            breakdown_trial(shifted_model(2.0), KULLBACK_LEIBLER, 2.0, 25, BUDGET, seed=-1)

    def test_overflowed_trial_has_infinite_estimate(self):
        outcome = breakdown_trial(overflowing_model(), CHI_SQUARED, 1.0, 4, BUDGET, seed=3)
        assert outcome.mass == math.inf
        assert outcome.divergence_estimate == math.inf

    def test_log_ratio_past_the_cut_overflows_the_trial(self):
        # TV of exp(705) is finite, so only the overflow cut makes this +inf
        outcome = breakdown_trial(
            overflowing_model(705.0), TOTAL_VARIATION, 0.5, 4, BUDGET, seed=3
        )
        assert outcome.overflowed
        assert outcome.mass == math.inf
        assert outcome.divergence_estimate == math.inf

    def test_partial_overflow_mixes_outcomes(self):
        # some rows of a block overflow and others do not
        model = one_dimensional_model()
        report = breakdown_probability(model, CHI_SQUARED, 0.5, 5, BUDGET, 1000, seed=5)
        assert 0 < report.mass_violations < report.replicates

    def test_rejects_bad_particle_count_and_divergence(self):
        with pytest.raises(ValueError, match="particle count"):
            breakdown_probability(shifted_model(1.0), KULLBACK_LEIBLER, 0.5, 0, BUDGET, 5, 0)
        with pytest.raises(ValueError, match="finite"):
            breakdown_probability(shifted_model(1.0), CHI_SQUARED, math.inf, 5, BUDGET, 5, 0)


class TestOverflowPolicy:
    """A log ratio above 700 is an infinite ratio, though exp stays finite up to 709.78."""

    def test_ratios_cut_at_700(self):
        draws = np.zeros((2, 3))
        for level, expected in [(700.0, math.exp(700.0)), (705.0, math.inf),
                                (720.0, math.inf), (-800.0, 0.0)]:
            model = overflowing_model(level)
            assert np.all(model.log_ratio(draws) == level)
            ratios = model.ratios(draws)
            assert ratios.shape == draws.shape
            assert np.all(ratios == expected), level

    @pytest.mark.parametrize("level", [705.0, 720.0])
    def test_monte_carlo_estimate_is_infinite(self, level):
        # TV of exp(705) is finite, so only the overflow cut makes this +inf
        with pytest.warns(WeightOverflowWarning):
            d = monte_carlo_divergence(overflowing_model(level), TOTAL_VARIATION, 10, seed=1)
        assert d.value == math.inf
        assert d.std_error == math.inf


def counted_pair(target=Gaussian1D(1.0, 1.0)):
    """A Gaussian pair whose ``log_ratio`` and ``proposal_sampler`` count their calls.

    The methods are replaced on the instance, as a profiler wraps them.
    """
    pair = make_gaussian_model(target, STD_NORMAL)
    calls = dict.fromkeys(("log_ratio", "proposal_sampler"), 0)
    for name in calls:

        def counted(*args, _name=name, _method=getattr(pair, name)):
            calls[_name] += 1
            return _method(*args)

        object.__setattr__(pair, name, counted)
    return pair, calls


QUARTIC = custom_generator(lambda x: (x - 1.0) ** 4, value_at_zero=1.0)


# each estimator and the number of proposal draws it makes
@pytest.mark.parametrize("call, sampler_calls", [
    pytest.param(lambda p: sample_particles(p, 10, seed=1), 1, id="sample_particles"),
    pytest.param(
        lambda p: breakdown_probability(p, KULLBACK_LEIBLER, 0.5, 5, BUDGET, 3, seed=1), 3,
        id="breakdown_probability",
    ),
    pytest.param(
        lambda p: breakdown_trial(p, KULLBACK_LEIBLER, 0.5, 5, BUDGET, 1), 1, id="breakdown_trial"
    ),
    pytest.param(
        lambda p: monte_carlo_divergence(p, KULLBACK_LEIBLER, 10, seed=1), 1, id="monte_carlo"
    ),
    pytest.param(lambda p: quadrature_divergence(p, KULLBACK_LEIBLER), 0, id="quadrature"),
    pytest.param(lambda p: quadrature_divergence(p, QUARTIC), 0, id="quadrature_custom"),
    pytest.param(lambda p: exact_mse(p, Observable.one(), 1), 0, id="exact_mse"),
])
def test_estimators_use_the_instance_methods(call, sampler_calls):
    pair, calls = counted_pair()
    call(pair)
    assert calls["log_ratio"] >= 1
    assert calls["proposal_sampler"] == sampler_calls


def test_integrals_on_one_pair_share_its_quadrature_plan(monkeypatch):
    windows = []
    bumps = gaussian._integrand_bumps

    def counted_bumps(target, proposal):
        windows.append((target, proposal))
        return bumps(target, proposal)

    monkeypatch.setattr(gaussian, "_integrand_bumps", counted_bumps)
    pair, calls = counted_pair(Gaussian1D(2.0, 1.0))
    assert not windows  # the plan is built on first use, not with the pair
    for gen in BUILTIN_GENERATORS.values():
        quadrature_divergence(pair, gen)
    for phi in (Observable.one(), Observable.identity()):
        exact_mse(pair, phi, 1)
    # every integral here converges in the first sweep, so log g is computed
    # on the plan's nodes and probes only
    assert len(windows) == 1
    assert calls["log_ratio"] == 2
    # custom generators read the plan's log g too
    for gen in (custom_generator(CHI_SQUARED.fn, CHI_SQUARED.value_at_zero), QUARTIC):
        quadrature_divergence(pair, gen)
    assert calls["log_ratio"] == 2

    other = make_gaussian_model(Gaussian1D(2.0, 1.0), STD_NORMAL)
    assert other == pair
    quadrature_divergence(other, KULLBACK_LEIBLER)
    assert len(windows) == 2
    assert other._quadrature_plan is not pair._quadrature_plan

    plan = pair._quadrature_plan
    shared_log_ratios = []

    def record_log_ratio(x, log_p, log_q, log_ratio):
        shared_log_ratios.append(log_ratio)
        return np.zeros_like(x)

    assert plan.integral(pair, record_log_ratio) == 0.0
    assert len(shared_log_ratios) == 2  # on the plan's nodes, then its probes
    for array in (plan.breakpoints, plan.nodes, plan.probes, *shared_log_ratios):
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        plan.breakpoints[0] = 0.0


# uint64 replicate seeds as breakdown runs derive them, plus the word edges
BULK_SEEDS = np.random.SeedSequence(2026).generate_state(10_000, dtype=np.uint64).tolist() + [
    0, 1, 2**32 - 1, 2**32, 2**64 - 1
]


def replicate_rngs(seeds):
    """The seeds of ``_replicate_rngs`` in blocks of 7, one after the other."""
    return itertools.chain.from_iterable(_replicate_rngs(seeds, 7))


class TestBulkSeeding:
    def test_words_match_seed_sequence(self):
        words = sampling._seed_sequence_words(BULK_SEEDS)
        assert words.shape == (len(BULK_SEEDS), 4)
        for seed, row in zip(BULK_SEEDS, words, strict=True):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert np.array_equal(row, expected), seed

    def test_states_match_numpy_seeding(self):
        for seed, seed_words in zip(BULK_SEEDS, replicate_rngs(BULK_SEEDS), strict=True):
            assert np.random.PCG64(seed_words).state == np.random.PCG64(seed).state, seed

    def test_replicate_seeds_draw_as_default_rng_in_any_order(self):
        seeds = BULK_SEEDS[:2000] + BULK_SEEDS[-5:]
        # every seed is taken before any is drawn from, then drawn from last first
        rngs = list(replicate_rngs(seeds))
        for seed, rng in reversed(list(zip(seeds, rngs, strict=True))):
            expected = np.random.default_rng(seed).normal(3, 1.7, 25)
            assert np.array_equal(np.random.default_rng(rng).normal(3, 1.7, 25), expected), seed

    def test_seed_words_refuse_other_requests(self):
        (seed_words,) = replicate_rngs([7])
        for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64)):
            with pytest.raises(ValueError, match="four uint64"):
                seed_words.generate_state(n_words, dtype)

    def test_seeding_check_detects_disagreement(self, monkeypatch):
        check = sampling._bulk_seeding_matches_numpy.__wrapped__
        assert check()
        words = sampling._seed_sequence_words
        monkeypatch.setattr(sampling, "_seed_sequence_words", lambda seeds: words(seeds) ^ 1)
        assert not check()

        # as if PCG64 asked its seed for other words than the four it takes today
        def other_request(self, n_words, dtype=np.uint32):
            raise ValueError("only PCG64's four uint64 seed words are available")

        monkeypatch.setattr(sampling, "_seed_sequence_words", words)
        monkeypatch.setattr(sampling._SeedWords, "generate_state", other_request)
        assert not check()

    def test_numpy_disagreement_falls_back_to_int_seeds(self, monkeypatch):
        exact = gaussian_kl(Gaussian1D(1.5, 1.0), STD_NORMAL).value
        args = (shifted_model(1.5), KULLBACK_LEIBLER, exact, 25, BUDGET, 500)
        assert sampling._bulk_seeding_matches_numpy()
        fast = breakdown_probability(*args, seed=13)

        def no_bulk_words(seeds):
            raise AssertionError("the fallback must not compute bulk seed words")

        monkeypatch.setattr(sampling, "_bulk_seeding_matches_numpy", lambda: False)
        monkeypatch.setattr(sampling, "_seed_sequence_words", no_bulk_words)
        assert list(replicate_rngs([5, 2**64 - 1])) == [5, 2**64 - 1]
        assert breakdown_probability(*args, seed=13) == fast


GOLDEN = Path(__file__).parent / "golden"

# byte-exact outputs recorded before replicates were evaluated in blocks
GOLDEN_RUNS = {
    "breakdown_kl_n25.json": "--target-mean 3 --particles 25 --replicates 1000 "
    "--metric kl --seed 7",
    "breakdown_tv_n45.json": "--target-mean 2 --target-var 1.5 --particles 45 "
    "--replicates 1000 --metric tv --seed 11",
    "breakdown_chi2_n4097.json": "--target-mean 2.5 --particles 4097 --replicates 3 "
    "--metric chi2 --seed 5",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_breakdown_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    argv = ["breakdown", *GOLDEN_RUNS[name].split(), "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def on_thread(fn):
    """``fn`` returning ``(the thread it ran on, its result)``."""
    return lambda item: (threading.current_thread(), fn(item))


class TestParallelMap:
    """Work units on worker threads behave as on the calling thread."""

    def run(self, cpus, count, fn, items, particles=_PARALLEL_PARTICLES):
        cpus(count)
        threads, results = zip(*_parallel_map(on_thread(fn), items, particles))
        on_main = {threading.main_thread()} == set(threads)
        assert on_main == (count == 1 or particles < _PARALLEL_PARTICLES)
        return list(results)

    def test_results_come_back_in_input_order(self, cpus):
        items = list(range(20))
        for count in (1, 3):
            assert self.run(cpus, count, lambda i: i * i, items) == [i * i for i in items]
        assert self.run(cpus, 3, str, items, particles=_PARALLEL_PARTICLES - 1) == list(
            map(str, items)
        )

    def test_overflow_warning_reaches_the_caller(self, cpus):
        units = _PARALLEL_PARTICLES

        def estimate(seed):
            return monte_carlo_divergence(overflowing_model(), TOTAL_VARIATION, units, seed)

        runs = []
        for count in (1, 2):
            with pytest.warns(WeightOverflowWarning) as record:
                values = self.run(cpus, count, estimate, [1, 2])
            runs.append((values, sorted(str(w.message) for w in record)))
        assert runs[0] == runs[1]
        assert runs[0][1] == [f"{units} of {units} density ratios overflowed; "
                              "the estimate is +inf"] * 2

    def test_value_error_reaches_the_caller(self, cpus):
        exact = gaussian_kl(Gaussian1D(1.0, 1.0), STD_NORMAL).value
        nan_pair = overflowing_model(math.nan)
        for count in (1, 2):
            cpus(count)
            with pytest.raises(ValueError, match="density ratio is NaN"):
                breakdown_probability(
                    nan_pair, KULLBACK_LEIBLER, exact, _PARALLEL_PARTICLES, BUDGET, 4, seed=1
                )

    def test_the_first_failing_unit_is_raised(self, cpus):
        def fail_from_two(i):
            if i >= 2:
                raise ValueError(f"unit {i}")
            return i

        for count in (1, 4):
            cpus(count)
            with pytest.raises(ValueError, match="^unit 2$"):
                _parallel_map(fail_from_two, range(8), _PARALLEL_PARTICLES)

    @pytest.mark.skipif(
        int(np.__version__.split(".")[0]) < 2, reason="numpy 1.x keeps np.errstate per thread"
    )
    def test_caller_errstate_holds_in_workers(self, cpus):
        with np.errstate(over="raise"):
            states = self.run(cpus, 2, lambda _: np.geterr()["over"], range(4))
            assert states == ["raise"] * 4
            cpus(2)
            with pytest.raises(FloatingPointError):
                _parallel_map(lambda _: np.exp(np.full(3, 1000.0)), range(4),
                              _PARALLEL_PARTICLES)
