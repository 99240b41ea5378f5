"""Tests for divergence caps and necessary-sample-size thresholds."""

import math

import numpy as np
import pytest

from isbound import (
    BUILTIN_GENERATORS,
    CHI_SQUARED,
    KULLBACK_LEIBLER,
    SQUARED_HELLINGER,
    TOTAL_VARIATION,
    DivergenceKind,
    DivergenceValue,
    SampleSizeReport,
    ToleranceBudget,
    divergence_bound,
    max_certifiable_size,
    mse_minimum_size,
    necessary_condition_holds,
    necessary_sample_size,
    necessary_size_from_generator,
    symbolic_divergence_bound,
)

KL = DivergenceKind.KULLBACK_LEIBLER
CHI2 = DivergenceKind.CHI_SQUARED
TV = DivergenceKind.TOTAL_VARIATION
HELL = DivergenceKind.SQUARED_HELLINGER

BUDGET = ToleranceBudget(0.1, 0.1)


class TestToleranceBudget:
    @pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (0.1, 0.0), (-1, 0.1), (0.1, math.inf)])
    def test_rejects_bad_budgets(self, eps, delta):
        with pytest.raises(ValueError):
            ToleranceBudget(eps, delta)


class TestDivergenceBound:
    def test_kl_is_log_n(self):
        assert divergence_bound(4, KULLBACK_LEIBLER) == pytest.approx(math.log(4), abs=1e-15)
        assert divergence_bound(4, KULLBACK_LEIBLER) == pytest.approx(1.386294, abs=1e-6)

    def test_chi2_is_n_minus_one(self):
        assert divergence_bound(10, CHI_SQUARED) == pytest.approx(9.0, abs=1e-12)

    def test_single_particle_bound_is_zero(self):
        for gen in BUILTIN_GENERATORS.values():
            assert divergence_bound(1, gen) == 0.0

    def test_inflated_kl(self):
        value = divergence_bound(10, KULLBACK_LEIBLER, excess_mass=0.1)
        assert value == pytest.approx(1.1 * math.log(11.0), abs=1e-12)

    def test_inflated_chi2(self):
        assert divergence_bound(10, CHI_SQUARED, excess_mass=0.1) == pytest.approx(
            10.9, abs=1e-12
        )

    def test_zero_excess_reduces_to_plain_bound(self):
        for gen in BUILTIN_GENERATORS.values():
            for n in (1, 3, 17):
                assert divergence_bound(n, gen, 0.0) == divergence_bound(n, gen)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            divergence_bound(0, CHI_SQUARED)
        with pytest.raises(ValueError):
            divergence_bound(10, CHI_SQUARED, excess_mass=-0.1)

    def test_matches_symbolic_forms(self):
        """Generic formula equals every symbolic closed form, scale-aware 1e-12."""
        sizes = np.unique(np.geomspace(1, 10_000, 400).astype(int))
        for excess in (0.0, 0.1, 1.0):
            for kind, gen in BUILTIN_GENERATORS.items():
                for n in sizes:
                    generic = divergence_bound(int(n), gen, excess)
                    symbolic = symbolic_divergence_bound(kind, int(n), excess)
                    assert abs(generic - symbolic) <= 1e-12 * max(1.0, abs(symbolic))

    def test_nondecreasing_in_n_and_excess(self):
        sizes = np.unique(np.geomspace(1, 10_000, 200).astype(int))
        excesses = (0.0, 0.05, 0.1, 0.5, 1.0)
        for gen in BUILTIN_GENERATORS.values():
            table = np.array(
                [[divergence_bound(int(n), gen, e) for e in excesses] for n in sizes]
            )
            scale = np.maximum(1.0, np.abs(table))
            assert np.all(np.diff(table, axis=0) >= -1e-12 * scale[1:, :])
            assert np.all(np.diff(table, axis=1) >= -1e-12 * scale[:, 1:])


class TestMseMinimumSize:
    def test_chi2_is_divergence_over_cap(self):
        assert mse_minimum_size(1.0, 53.598, CHI2) == pytest.approx(53.598)

    def test_kl_zero_needs_nothing(self):
        assert mse_minimum_size(1.0, 0.0, KL) == 0.0

    def test_tv_example(self):
        value = mse_minimum_size(0.01, 0.682689, TV)
        assert value == pytest.approx(4.0 * 0.682689**2 / 0.01, rel=1e-12)
        assert value == pytest.approx(186.43, abs=0.01)

    def test_hellinger_uses_squared_input(self):
        assert mse_minimum_size(0.5, 1.2, HELL) == pytest.approx(2.4)

    def test_infinite_divergences(self):
        assert mse_minimum_size(1.0, math.inf, CHI2) == math.inf
        assert mse_minimum_size(1.0, math.inf, KL) == math.inf

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            mse_minimum_size(0.0, 1.0, CHI2)

    def test_rejects_out_of_range_metrics(self):
        with pytest.raises(ValueError):
            mse_minimum_size(1.0, 1.5, TV)
        with pytest.raises(ValueError):
            mse_minimum_size(1.0, 2.5, HELL)


class TestNecessaryCondition:
    def test_zero_divergence_always_holds(self):
        for gen in BUILTIN_GENERATORS.values():
            assert necessary_condition_holds(0.0, 1, BUDGET, gen)
            assert necessary_condition_holds(0.0, 10**6, BUDGET, gen)

    def test_kl_boundary_at_threshold(self):
        # threshold for KL 4.5 at eps=delta=0.1 is about 49.63
        assert not necessary_condition_holds(4.5, 49, BUDGET, KULLBACK_LEIBLER)
        assert necessary_condition_holds(4.5, 50, BUDGET, KULLBACK_LEIBLER)

    def test_infinite_divergence_never_holds(self):
        assert not necessary_condition_holds(math.inf, 10**9, BUDGET, CHI_SQUARED)


class TestNecessarySampleSize:
    def test_mean_shift_kl_thresholds(self):
        expected = {2.0: 5.11, 2.5: 14.22, 3.0: 49.63, 3.5: 217.45}
        for m, value in expected.items():
            report = necessary_sample_size(m * m / 2.0, KL, BUDGET)
            assert report.threshold == pytest.approx(value, abs=0.01)

    def test_hellinger_threshold(self):
        report = necessary_sample_size(1.350703, HELL, BUDGET)
        assert report.threshold == pytest.approx(6.10, abs=0.005)

    def test_infinite_chi2_gives_infinite_threshold(self):
        report = necessary_sample_size(DivergenceValue(math.inf, "closed_form"), CHI2, BUDGET)
        assert report.threshold == math.inf
        assert report.necessary_size == math.inf
        assert not report.is_finite

    def test_narrow_variance_kl_threshold(self):
        report = necessary_sample_size(9.861589, KL, BUDGET)
        assert report.threshold == pytest.approx(6.494e3, rel=1e-3)

    def test_report_carries_inputs(self):
        report = necessary_sample_size(2.0, KL, BUDGET)
        assert report.metric is KL
        assert report.divergence.value == 2.0
        assert report.budget == BUDGET
        assert report.necessary_size == 6

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            necessary_sample_size(1.0001, TV, BUDGET)
        with pytest.raises(ValueError):
            necessary_sample_size(2.0001, HELL, BUDGET)
        with pytest.raises(ValueError):
            necessary_sample_size(-0.1, KL, BUDGET)

    def test_negative_monte_carlo_estimate_is_clamped_to_zero(self):
        estimate = DivergenceValue(-0.01, "monte_carlo", std_error=0.02, sample_count=100)
        report = necessary_sample_size(estimate, KL, BUDGET)
        assert report.threshold == necessary_sample_size(0.0, KL, BUDGET).threshold
        assert report.divergence == DivergenceValue(0.0, "monte_carlo", 0.02, 100)

    def test_infinite_monte_carlo_tv_is_clamped_to_the_cap(self):
        estimate = DivergenceValue(math.inf, "monte_carlo", std_error=math.inf, sample_count=100)
        report = necessary_sample_size(estimate, TV, BUDGET)
        assert report.threshold == max_certifiable_size(TV, BUDGET)
        assert report.divergence.value == 1.0

    def test_closed_form_beyond_the_cap_still_raises(self):
        with pytest.raises(ValueError):
            necessary_sample_size(DivergenceValue(1.0001, "closed_form"), TV, BUDGET)

    def test_custom_kind_has_no_closed_form_rules(self):
        custom = DivergenceKind.CUSTOM
        with pytest.raises(ValueError):
            necessary_sample_size(1.0, custom, BUDGET)
        with pytest.raises(ValueError):
            max_certifiable_size(custom, BUDGET)
        with pytest.raises(ValueError):
            mse_minimum_size(1.0, 1.0, custom)
        with pytest.raises(ValueError):
            symbolic_divergence_bound(custom, 3)

    def test_relative_delta_is_plain_reparametrization(self):
        # delta given as a fraction of the divergence equals the absolute call
        d = 3.2
        delta_star = 0.05
        via_relative = necessary_sample_size(d, KL, ToleranceBudget(0.1, delta_star * d))
        via_absolute = necessary_sample_size(d, KL, ToleranceBudget(0.1, 0.16))
        assert via_relative.threshold == via_absolute.threshold

    def test_threshold_duality_with_condition(self):
        """The condition fails exactly below the threshold, up to rounding."""
        divergences = {KL: (0.5, 2.0, 4.5, 9.86), CHI2: (0.5, 53.6, 8102.0),
                       TV: (0.1, 0.68, 0.99), HELL: (0.2, 0.787, 1.95)}
        for kind, values in divergences.items():
            gen = BUILTIN_GENERATORS[kind]
            for d in values:
                report = necessary_sample_size(d, kind, BUDGET)
                cut = report.necessary_size
                for n in range(max(1, cut - 3), cut + 4):
                    holds = necessary_condition_holds(d, n, BUDGET, gen)
                    assert holds == (n >= cut), (kind, d, n, cut)


class TestGenericNecessarySize:
    def test_zero_divergence_needs_one(self):
        for gen in BUILTIN_GENERATORS.values():
            assert necessary_size_from_generator(0.0, gen, BUDGET) == 1

    def test_matches_kl_closed_form(self):
        assert necessary_size_from_generator(2.0, KULLBACK_LEIBLER, BUDGET) == 6

    def test_tv_near_cap(self):
        tight = ToleranceBudget(0.01, 0.01)
        assert necessary_size_from_generator(0.99, TOTAL_VARIATION, tight) == 40

    def test_agrees_with_ceiling_across_table_values(self):
        cases = [
            (KL, (2.0, 3.125, 4.5, 6.125, 4.10522, 6.11371, 9.86163, 10.39056)),
            (CHI2, (53.598150, 517.0128, 8102.0839, 208980.2889, 69.712446)),
            (TV, (0.682689, 0.788700, 0.866386, 0.919882, 0.581763)),
            (HELL, (0.786939, 1.084333, 1.350695, 1.567470, 1.984095, 1.717171)),
        ]
        for kind, values in cases:
            gen = BUILTIN_GENERATORS[kind]
            for d in values:
                report = necessary_sample_size(d, kind, BUDGET)
                assert necessary_size_from_generator(d, gen, BUDGET) == report.necessary_size

    def test_large_divergences_match_closed_form(self):
        # the search forgives 4 ulps of d: exact up to ~1e12, then within the
        # bound's own float resolution at N ~ 1e16
        exact = [(KL, (20.0, 30.0)), (CHI2, (1e6, 1e12, 1e15))]
        for kind, values in exact:
            for d in values:
                report = necessary_sample_size(d, kind, BUDGET)
                generic = necessary_size_from_generator(d, BUILTIN_GENERATORS[kind], BUDGET)
                assert generic == report.necessary_size, (kind, d)
        for d in (40.0, 45.0):
            closed = necessary_sample_size(d, KL, BUDGET).necessary_size
            generic = necessary_size_from_generator(d, KULLBACK_LEIBLER, BUDGET)
            assert abs(generic - closed) <= 1e-13 * closed, d

    def test_unreachable_divergence_is_an_error(self):
        # total variation's inflated cap saturates at 1 + eps/2, so a custom
        # "divergence" beyond it can never be reached
        with pytest.raises(ValueError, match="2\\^63"):
            necessary_size_from_generator(1.2, TOTAL_VARIATION, BUDGET)

    def test_rejects_infinite_input(self):
        with pytest.raises(ValueError):
            necessary_size_from_generator(math.inf, CHI_SQUARED, BUDGET)


class TestMaxCertifiableSize:
    def test_tv_cap(self):
        assert max_certifiable_size(TV, BUDGET) == pytest.approx(1.0 / 0.15)

    def test_hellinger_cap(self):
        assert max_certifiable_size(HELL, BUDGET) == pytest.approx(110.0)

    def test_unbounded_metrics(self):
        assert max_certifiable_size(KL, BUDGET) == math.inf
        assert max_certifiable_size(CHI2, BUDGET) == math.inf

    def test_caps_keep_tolerances_below_an_ulp_of_the_cap(self):
        # 1 + eps/2 + delta - 1 and 2 + eps + delta - 2 round to 0 here
        tiny = ToleranceBudget(1e-17, 1e-17)
        assert max_certifiable_size(TV, tiny) == pytest.approx(1.0 / 1.5e-17, rel=1e-15)
        assert max_certifiable_size(HELL, tiny) == pytest.approx(4.0 / 4e-34, rel=1e-15)
        assert necessary_sample_size(1.0, TV, tiny).threshold == max_certifiable_size(TV, tiny)

    def test_necessary_size_keeps_huge_thresholds(self):
        # 6.67e16 is an integer float; only dust of a few ulps may be rounded away
        report = necessary_sample_size(1.0, TV, ToleranceBudget(1e-17, 1e-17))
        assert report.necessary_size >= report.threshold - 4 * math.ulp(report.threshold)
        # where 4 ulps reach 1, an integer threshold is still its own ceiling
        for k in (2**50 + 1, 2**51 + 3, 2**52 + 1):
            report = SampleSizeReport(TV, DivergenceValue(0.5, "closed_form"), float(k), BUDGET)
            assert report.necessary_size == k

    def test_cap_past_float_range_names_the_budget(self):
        budget = ToleranceBudget(1e-200, 1e-200)
        with pytest.raises(ValueError, match=r"epsilon=1e-200.*past float range"):
            max_certifiable_size(HELL, budget)
        with pytest.raises(ValueError, match="past float range"):
            necessary_sample_size(2.0, HELL, budget)
        assert max_certifiable_size(TV, budget) == pytest.approx(1.0 / 1.5e-200, rel=1e-15)
        # exp((800 - 0.1) / 1.1) / 1.1 overflows a float
        with pytest.raises(ValueError, match=r"epsilon=0\.1.*kl threshold past float range"):
            necessary_sample_size(800.0, KL, BUDGET)

    def test_thresholds_under_a_huge_epsilon_are_representable(self):
        # (1 + eps)^2 and the Hellinger gap squared overflow; the thresholds do not
        huge = ToleranceBudget(1e200, 0.1)
        assert necessary_sample_size(1.0, CHI2, huge).threshold == 2e-200
        assert max_certifiable_size(HELL, huge) == 4e-200

    @pytest.mark.parametrize("kind", [TV, HELL])
    def test_thresholds_below_the_cap_keep_their_bits(self, kind):
        """Wherever the sum in the original order is positive it is still the
        expression evaluated, so no threshold away from the cap moves."""
        rng = np.random.default_rng(18)
        cap = 1.0 if kind is TV else 2.0
        for _ in range(2000):
            d = float(rng.uniform(0.0, cap))
            eps, delta = (float(10.0 ** rng.uniform(-6, 0.5)) for _ in range(2))
            if kind is TV:
                expected = 1.0 / (1.0 + eps / 2.0 + delta - d)
            else:
                expected = 4.0 * (1.0 + eps) / (2.0 + eps + delta - d) ** 2
            budget = ToleranceBudget(eps, delta)
            assert necessary_sample_size(d, kind, budget).threshold == expected

    def test_caps_are_thresholds_at_the_metric_extremes(self):
        assert necessary_sample_size(1.0, TV, BUDGET).threshold == pytest.approx(
            max_certifiable_size(TV, BUDGET)
        )
        assert necessary_sample_size(2.0, HELL, BUDGET).threshold == pytest.approx(
            max_certifiable_size(HELL, BUDGET)
        )
