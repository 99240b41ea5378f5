"""Tests for the Gaussian pair laboratory: closed forms, quadrature, Monte Carlo.

The closed forms are validated against the in-package adaptive quadrature
(the independent oracle) and, in a couple of spots, against
scipy.integrate.quad as a second, external integrator.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from isbound import (
    BUILTIN_GENERATORS,
    CHI_SQUARED,
    KULLBACK_LEIBLER,
    SQUARED_HELLINGER,
    TOTAL_VARIATION,
    DivergenceKind,
    Gaussian1D,
    Observable,
    QuadratureError,
    adaptive_integral,
    custom_generator,
    density_crossings,
    exact_mse,
    gaussian_chi_squared,
    gaussian_kl,
    gaussian_squared_hellinger,
    gaussian_total_variation,
    make_gaussian_model,
    monte_carlo_divergence,
    quadrature_divergence,
    ratio_moment_is_finite,
)
from isbound.gaussian import _stable_integrand

STD_NORMAL = Gaussian1D(0.0, 1.0)

CLOSED_FORMS = {
    DivergenceKind.KULLBACK_LEIBLER: gaussian_kl,
    DivergenceKind.CHI_SQUARED: gaussian_chi_squared,
    DivergenceKind.TOTAL_VARIATION: gaussian_total_variation,
    DivergenceKind.SQUARED_HELLINGER: gaussian_squared_hellinger,
}

# 50-pair validation grid: means in [-4, 4], variances below the chi2 cutoff
GRID_MEANS = np.linspace(-4.0, 4.0, 10)
GRID_VARIANCES = (1e-4, 0.5, 1.0, 1.5, 1.9)


def grid_pairs():
    return [(float(m), float(v)) for m in GRID_MEANS for v in GRID_VARIANCES]


class TestGaussian1D:
    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            Gaussian1D(0.0, 0.0)
        with pytest.raises(ValueError):
            Gaussian1D(0.0, -1.0)

    def test_log_pdf_matches_density(self):
        dist = Gaussian1D(1.5, 2.0)
        xs = np.linspace(-5, 5, 11)
        expected = np.exp(-((xs - 1.5) ** 2) / 4.0) / math.sqrt(4.0 * math.pi)
        np.testing.assert_allclose(dist.pdf(xs), expected, rtol=1e-14)

    def test_cdf_endpoints(self):
        assert STD_NORMAL.cdf(0.0) == pytest.approx(0.5)
        assert STD_NORMAL.cdf(1.0) - STD_NORMAL.cdf(-1.0) == pytest.approx(
            0.6826894921370859, abs=1e-15
        )


class TestDensityRatioModel:
    def test_identical_pair_has_zero_log_ratio(self):
        model = make_gaussian_model(STD_NORMAL, STD_NORMAL)
        xs = np.linspace(-10, 10, 101)
        assert np.all(model.log_ratio(xs) == 0.0)

    def test_mean_shift_log_ratio_is_linear(self):
        model = make_gaussian_model(Gaussian1D(2.0, 1.0), STD_NORMAL)
        xs = np.linspace(-6, 6, 101)
        np.testing.assert_allclose(model.log_ratio(xs), 2.0 * xs - 2.0, atol=1e-12)

    def test_variance_scale_log_ratio(self):
        model = make_gaussian_model(Gaussian1D(0.0, 4.0), STD_NORMAL)
        xs = np.linspace(-6, 6, 101)
        np.testing.assert_allclose(
            model.log_ratio(xs), -math.log(2.0) + 3.0 * xs**2 / 8.0, atol=1e-12
        )

    def test_log_ratio_is_difference_of_log_densities(self):
        model = make_gaussian_model(Gaussian1D(1.0, 0.25), Gaussian1D(-0.5, 3.0))
        xs = np.linspace(-8, 8, 201)
        diff = model.target.log_pdf(xs) - model.proposal.log_pdf(xs)
        np.testing.assert_allclose(model.log_ratio(xs), diff, atol=1e-12)

    def test_sampler_is_deterministic(self):
        model = make_gaussian_model(Gaussian1D(2.0, 1.0), STD_NORMAL)
        a = model.proposal_sampler(100, 42)
        b = model.proposal_sampler(100, 42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, model.proposal_sampler(100, 43))


class TestClosedForms:
    def test_identical_pairs_are_zero(self):
        for fn in CLOSED_FORMS.values():
            d = fn(STD_NORMAL, STD_NORMAL)
            assert d.value == 0.0
            assert d.method == "closed_form"

    def test_kl_values(self):
        assert gaussian_kl(Gaussian1D(2, 1), STD_NORMAL).value == pytest.approx(2.0, abs=1e-14)
        assert gaussian_kl(Gaussian1D(0, 16), STD_NORMAL).value == pytest.approx(
            0.5 * (16 - 1 - math.log(16)), abs=1e-14
        )
        assert gaussian_kl(Gaussian1D(0, 16), STD_NORMAL).value == pytest.approx(
            6.113706, abs=1e-6
        )

    def test_squared_hellinger_values(self):
        assert gaussian_squared_hellinger(Gaussian1D(2, 1), STD_NORMAL).value == pytest.approx(
            2.0 * (1.0 - math.exp(-0.5)), abs=1e-14
        )
        assert gaussian_squared_hellinger(Gaussian1D(2, 1), STD_NORMAL).value == pytest.approx(
            0.786939, abs=1e-6
        )
        assert gaussian_squared_hellinger(Gaussian1D(0, 25), STD_NORMAL).value == pytest.approx(
            2.0 * (1.0 - math.sqrt(10.0 / 26.0)), abs=1e-14
        )

    @pytest.mark.parametrize(
        "mean, variance",
        [
            (1e-5, 1.0),
            (0.0, 1.0 + 1e-6),
            (0.0, 1.0 + 1e-9),
            (0.0, 1.0 - 1e-9),
            (1e-8, 1.0 + 1e-8),
            (0.0, 1e-4),
            (0.0, 25.0),
            (4.0, 1e-4),
            (4.0, 25.0),
            (1.0, 1.0),
            (0.5, 0.5),
        ],
    )
    def test_squared_hellinger_against_high_precision(self, mean, variance):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            m, v = mpmath.mpf(mean), mpmath.mpf(variance)
            coeff = mpmath.sqrt(2 * mpmath.sqrt(v) / (v + 1))
            overlap = coeff * mpmath.exp(-m * m / (4 * (v + 1)))
            reference = float(2 * (1 - overlap))
        value = gaussian_squared_hellinger(Gaussian1D(mean, variance), STD_NORMAL).value
        assert abs(value - reference) <= 1e-15 * reference

    def test_chi_squared_values(self):
        assert gaussian_chi_squared(Gaussian1D(2, 1), STD_NORMAL).value == pytest.approx(
            math.exp(4) - 1.0, rel=1e-14
        )
        # frozen from the quadrature oracle (equals 1/(0.01*sqrt(2 - 1e-4)) - 1)
        assert gaussian_chi_squared(Gaussian1D(0, 1e-4), STD_NORMAL).value == pytest.approx(
            69.71244595190174, rel=1e-12
        )

    def test_chi_squared_infinite_beyond_variance_two(self):
        for s2 in (2.0, 4.0, 16.0, 25.0):
            assert math.isinf(gaussian_chi_squared(Gaussian1D(0, s2), STD_NORMAL).value)
        assert math.isfinite(gaussian_chi_squared(Gaussian1D(0, 1.999), STD_NORMAL).value)

    def test_total_variation_values(self):
        tv = gaussian_total_variation(Gaussian1D(2, 1), STD_NORMAL).value
        assert tv == pytest.approx(2.0 * STD_NORMAL.cdf(1.0) - 1.0, abs=1e-14)
        assert tv == pytest.approx(0.682689, abs=1e-6)
        # frozen from the quadrature oracle of the integral of |p - q| / 2
        assert gaussian_total_variation(Gaussian1D(0, 16), STD_NORMAL).value == pytest.approx(
            0.5817632113141249, abs=1e-12
        )

    def test_density_crossings_variance_case(self):
        x1, x2 = density_crossings(Gaussian1D(0, 16), STD_NORMAL)
        expected = math.sqrt(32.0 * math.log(4.0) / 15.0)
        assert x2 == pytest.approx(expected, rel=1e-12)
        assert x1 == pytest.approx(-expected, rel=1e-12)

    def test_symmetry_and_asymmetry(self):
        a, b = Gaussian1D(0.7, 4.0), Gaussian1D(-0.3, 1.0)
        assert gaussian_total_variation(a, b).value == pytest.approx(
            gaussian_total_variation(b, a).value, abs=1e-12
        )
        assert gaussian_squared_hellinger(a, b).value == pytest.approx(
            gaussian_squared_hellinger(b, a).value, abs=1e-12
        )
        wide, narrow = Gaussian1D(0, 4), STD_NORMAL
        assert gaussian_kl(wide, narrow).value != gaussian_kl(narrow, wide).value
        assert gaussian_chi_squared(wide, narrow).value != gaussian_chi_squared(
            narrow, wide
        ).value

    def test_ranges_on_grid(self):
        for m, v in grid_pairs():
            target = Gaussian1D(m, v)
            assert 0.0 <= gaussian_total_variation(target, STD_NORMAL).value <= 1.0
            assert 0.0 <= gaussian_squared_hellinger(target, STD_NORMAL).value <= 2.0


class TestQuadrature:
    def test_identical_pair_integrates_to_zero(self):
        model = make_gaussian_model(STD_NORMAL, STD_NORMAL)
        for gen in (KULLBACK_LEIBLER, CHI_SQUARED, TOTAL_VARIATION, SQUARED_HELLINGER):
            d = quadrature_divergence(model, gen)
            assert d.method == "quadrature"
            assert d.value == pytest.approx(0.0, abs=1e-10)

    def test_kl_of_mean_shift(self):
        model = make_gaussian_model(Gaussian1D(2, 1), STD_NORMAL)
        assert quadrature_divergence(model, KULLBACK_LEIBLER).value == pytest.approx(
            2.0, abs=1e-9
        )

    def test_divergent_chi_squared_is_diagnosed_infinite(self):
        model = make_gaussian_model(Gaussian1D(0, 16), STD_NORMAL)
        d = quadrature_divergence(model, CHI_SQUARED)
        assert math.isinf(d.value)
        assert d.method == "quadrature"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mean, variance", [(1.3, 3.0), (0.0, 16.0)])
    def test_infinite_chi2_pairs_emit_no_warnings(self, mean, variance):
        target = Gaussian1D(mean, variance)
        model = make_gaussian_model(target, STD_NORMAL)
        for kind, closed in CLOSED_FORMS.items():
            value = quadrature_divergence(model, BUILTIN_GENERATORS[kind]).value
            assert math.isinf(value) == (kind is DivergenceKind.CHI_SQUARED)
            assert value == pytest.approx(closed(target, STD_NORMAL).value, abs=1e-8)
        for phi in (Observable.one(), Observable.identity()):
            assert exact_mse(model, phi, 1) == math.inf

    def test_closed_forms_match_oracle_on_grid(self):
        for m, v in grid_pairs():
            target = Gaussian1D(m, v)
            model = make_gaussian_model(target, STD_NORMAL)
            for kind, closed in CLOSED_FORMS.items():
                exact = closed(target, STD_NORMAL).value
                approx = quadrature_divergence(model, BUILTIN_GENERATORS[kind]).value
                assert abs(approx - exact) <= max(1e-8, 1e-8 * exact), (m, v, kind)

    def test_adaptive_integral_against_scipy(self):
        model = make_gaussian_model(Gaussian1D(2, 1), STD_NORMAL)

        def integrand(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            return np.exp(model.target.log_pdf(x)) * model.log_ratio(x)

        mine = adaptive_integral(integrand, np.linspace(-40, 42, 9))
        ref, _ = integrate.quad(lambda x: float(integrand(x)[0]), -40, 42, limit=200)
        assert mine == pytest.approx(ref, abs=1e-9)

    def test_custom_generator_quadrature(self):
        # quartic divergence of N(0.5, 1) vs N(0, 1): moments of a lognormal ratio
        gen = custom_generator(lambda x: (x - 1.0) ** 4, value_at_zero=1.0)
        model = make_gaussian_model(Gaussian1D(0.5, 1.0), STD_NORMAL)
        moments = [math.exp(k * (k - 1) / 8.0) for k in range(5)]
        expected = moments[4] - 4 * moments[3] + 6 * moments[2] - 4 * moments[1] + 1
        assert quadrature_divergence(model, gen).value == pytest.approx(expected, rel=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_custom_generator_overflow_is_infinite(self):
        gen = custom_generator(lambda x: (x - 1.0) ** 4, value_at_zero=1.0)
        model = make_gaussian_model(Gaussian1D(0.0, 16.0), STD_NORMAL)
        assert quadrature_divergence(model, gen).value == math.inf
        # at x = 50 the log ratio is 1170 and q underflows to 0: +inf, not NaN
        values = _stable_integrand(model, gen)(np.array([0.0, 50.0]))
        assert math.isfinite(values[0]) and values[1] == math.inf


# float.hex of the quadrature KL, chi2, TV and squared Hellinger, then
# exact_mse for phi = 1 and phi = x, against N(0, 1); recorded before a pair's
# window, first sweep and log densities were shared by its integrals.  The
# first pair's chi2 and second moments refine past the first sweep before
# they are diagnosed infinite; (1.3, 3.0) overflows in the first sweep.
QUADRATURE_HEX = {
    (3.7714056222689254, 2.477747229085177): (
        "0x1.d9679c6939b38p+2", "inf", "0x1.b92a764c06e7cp-1", "0x1.50c611ff71e18p+0",
        "inf", "inf"),
    (1.3, 3.0): (
        "0x1.4bb297afb69fep+0", "inf", "0x1.acbd08e22e31ap-2", "0x1.4d29a8c20f0c2p-2",
        "inf", "inf"),
    (0.0, 2.0): (
        "0x1.3a37a020b8c22p-3", "inf", "0x1.541966d8c1e77p-3", "0x1.db67d7051d022p-5",
        "inf", "inf"),
    (0.0, 1.0): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"),
    (2.0, 1.0): (
        "0x1.0000000000001p+1", "0x1.acc902e273a59p+5", "0x1.5d897a241a6fap-1",
        "0x1.92e9a0720d3ecp-1", "0x1.acc902e273a5ap+5", "0x1.ce1593109adfep+9"),
    (3.0, 1.0): (
        "0x1.2000000000000p+2", "0x1.fa6157c470f79p+12", "0x1.bb96e49da6e04p-1",
        "0x1.59c726dc42a70p+0", "0x1.fa6157c470f7ap+12", "0x1.24c746bd914f0p+18"),
    (0.5, 0.3): (
        "0x1.8208b9314e7dbp-2", "0x1.3e85e8e6637dcp-1", "0x1.6d1000dae2790p-2",
        "0x1.00438e99a9ab6p-2", "0x1.3e85e8e6637d8p-1", "0x1.31f0edbacfe2fp-1"),
    (2.0, 0.5): (
        "0x1.0c5c85fdf473ep+1", "0x1.f3c98cc872c02p+3", "0x1.86f4e6b373bf4p-1",
        "0x1.00c20adee802ep+0", "0x1.f3c98cc872c02p+3", "0x1.dedb8dac4e566p+6"),
    (4.0, 0.05): (
        "0x1.20bb51c3b4942p+3", "0x1.6e3a964ca88ccp+13", "0x1.ff8fa5ba85a0bp-1",
        "0x1.f89886e853f42p+0", "0x1.6e3a964ca88ccp+13", "0x1.81d6d4b0a2f94p+17"),
    (0.7, 1e-4): (
        "0x1.166a01ed4df1fp+2", "0x1.65611c61b1c9bp+6", "0x1.f5195fbcd3be4p-1",
        "0x1.bff15fcb13498p+0", "0x1.65611c61b1c98p+6", "0x1.5e4da5bb2690fp+5"),
    (0.0, 1.9): (
        "0x1.08577471ea8e0p-3", "0x1.4b4de5359e77fp+0", "0x1.3b5febb8533e8p-3",
        "0x1.999ba3ad26adap-5", "0x1.4b4de5359e77cp+0", "0x1.5cb64017d616ep+5"),
    (1.5, 1.5): (
        "0x1.2c19b82680cf5p+0", "0x1.9bc57538a39b6p+6", "0x1.025681fafcf8ep-1",
        "0x1.ad3e5bad1bd42p-2", "0x1.9bc57538a39b6p+6", "0x1.fa70a6dd07650p+11"),
}


@pytest.mark.parametrize("mean, variance", sorted(QUADRATURE_HEX))
def test_quadrature_values_are_pinned_bit_for_bit(mean, variance):
    model = make_gaussian_model(Gaussian1D(mean, variance), STD_NORMAL)
    values = [
        quadrature_divergence(model, gen).value
        for gen in (KULLBACK_LEIBLER, CHI_SQUARED, TOTAL_VARIATION, SQUARED_HELLINGER)
    ]
    values += [exact_mse(model, phi, 1) for phi in (Observable.one(), Observable.identity())]
    assert tuple(map(float.hex, values)) == QUADRATURE_HEX[mean, variance]


@pytest.mark.parametrize("mean, variance, expected", [
    (0.5, 0.8, "0x1.24eb365bb9790p-3"),
    (2.0, 1.0, "0x1.8ab57fe2d1112p+34"),
])
def test_custom_generator_quadrature_is_pinned_bit_for_bit(mean, variance, expected):
    gen = custom_generator(lambda x: (x - 1.0) ** 4, value_at_zero=1.0)
    model = make_gaussian_model(Gaussian1D(mean, variance), STD_NORMAL)
    assert float.hex(quadrature_divergence(model, gen).value) == expected


@given(
    mean=st.floats(min_value=0.0, max_value=4.0),
    log_variance=st.floats(min_value=math.log(1e-4), max_value=math.log(25.0)),
)
@settings(max_examples=150, deadline=None)
def test_property_closed_forms_match_quadrature(mean, log_variance):
    """Criterion 6's tolerance for every metric; infinite exactly together."""
    variance = math.exp(log_variance)
    # a finite chi2 past e^700 overflows the closed form, a known defect
    assume(
        variance >= 2.0
        or mean * mean / (2.0 - variance) - 0.5 * math.log(variance * (2.0 - variance)) <= 700.0
    )
    target = Gaussian1D(mean, variance)
    model = make_gaussian_model(target, STD_NORMAL)
    for kind, closed in CLOSED_FORMS.items():
        exact = closed(target, STD_NORMAL).value
        approx = quadrature_divergence(model, BUILTIN_GENERATORS[kind]).value
        assert math.isinf(approx) == math.isinf(exact), kind
        if math.isfinite(exact):
            assert abs(approx - exact) <= 1e-8 * max(1.0, exact), kind


class TestAdaptiveIntegralContract:
    """One case per outcome of adaptive_integral besides a plain value."""

    def test_overflowing_integrand_is_infinite(self):
        def integrand(x):
            with np.errstate(over="ignore"):
                return np.exp(x * x)

        assert adaptive_integral(integrand, [-40.0, 40.0]) == math.inf

    def test_growing_edge_is_infinite(self):
        assert adaptive_integral(lambda x: np.exp(x * x / 1000.0), [-40.0, 40.0]) == math.inf

    def test_growing_edge_outweighs_an_undercovered_one(self):
        # exp(x/4) is non-negligible but decaying at -40 and growing at +40
        assert adaptive_integral(lambda x: np.exp(0.25 * x), [-40.0, 40.0]) == math.inf

    def test_decaying_but_non_negligible_edge_raises(self):
        with pytest.raises(QuadratureError, match="widen"):
            adaptive_integral(lambda x: np.exp(-0.5 * x * x), [-3.0, 3.0])

    def test_unresolvable_integrand_exhausts_the_subdivision_budget(self):
        # sin(1/(x - c)) oscillates infinitely often near c; c = c_hi + c_lo is
        # not a double, so no node lands on it and every value stays finite
        c_hi, c_lo = 1.0 / 3.0, 1e-17

        def integrand(x):
            return np.sin(1.0 / ((x - c_hi) - c_lo))

        with pytest.raises(QuadratureError, match="subdivisions"):
            adaptive_integral(integrand, [-1.0, 1.0])


class TestMonteCarlo:
    def test_identical_pair_is_exactly_zero(self):
        model = make_gaussian_model(STD_NORMAL, STD_NORMAL)
        for gen in (KULLBACK_LEIBLER, CHI_SQUARED, SQUARED_HELLINGER):
            d = monte_carlo_divergence(model, gen, 10**4, seed=5)
            assert d.value == 0.0
            assert d.std_error == 0.0
            assert d.sample_count == 10**4

    def test_light_tail_chi2_within_four_standard_errors(self):
        model = make_gaussian_model(Gaussian1D(1, 1), STD_NORMAL)
        d = monte_carlo_divergence(model, CHI_SQUARED, 10**6, seed=3)
        exact = math.e - 1.0
        assert d.method == "monte_carlo"
        assert abs(d.value - exact) <= 4.0 * d.std_error

    def test_deterministic_given_seed(self):
        model = make_gaussian_model(Gaussian1D(1, 1), STD_NORMAL)
        a = monte_carlo_divergence(model, KULLBACK_LEIBLER, 50_000, seed=11)
        b = monte_carlo_divergence(model, KULLBACK_LEIBLER, 50_000, seed=11)
        assert a == b

    def test_rejects_tiny_sample_count(self):
        model = make_gaussian_model(STD_NORMAL, STD_NORMAL)
        with pytest.raises(ValueError):
            monte_carlo_divergence(model, KULLBACK_LEIBLER, 1, seed=0)

    def test_consistency_coverage_over_seeds(self):
        """Light-tailed cases: |MC - closed| <= 4 SE in at least 95% of 100 runs."""
        cases = [
            (Gaussian1D(1.0, 1.0), DivergenceKind.KULLBACK_LEIBLER),
            (Gaussian1D(1.5, 1.0), DivergenceKind.KULLBACK_LEIBLER),
            (Gaussian1D(0.0, 0.5), DivergenceKind.KULLBACK_LEIBLER),
            (Gaussian1D(1.0, 1.0), DivergenceKind.CHI_SQUARED),
            (Gaussian1D(1.0, 1.0), DivergenceKind.TOTAL_VARIATION),
            (Gaussian1D(1.5, 1.0), DivergenceKind.SQUARED_HELLINGER),
        ]
        generators = {
            DivergenceKind.KULLBACK_LEIBLER: KULLBACK_LEIBLER,
            DivergenceKind.CHI_SQUARED: CHI_SQUARED,
            DivergenceKind.TOTAL_VARIATION: TOTAL_VARIATION,
            DivergenceKind.SQUARED_HELLINGER: SQUARED_HELLINGER,
        }
        for target, kind in cases:
            model = make_gaussian_model(target, STD_NORMAL)
            exact = CLOSED_FORMS[kind](target, STD_NORMAL).value
            hits = 0
            for seed in range(100):
                d = monte_carlo_divergence(model, generators[kind], 20_000, seed=seed)
                hits += abs(d.value - exact) <= 4.0 * d.std_error
            assert hits >= 95, (target, kind, hits)

    def test_heavy_tail_underestimates_chi2(self):
        """N(3.5, 1) chi2 at 10^6 samples sits below the exact value nearly always."""
        model = make_gaussian_model(Gaussian1D(3.5, 1.0), STD_NORMAL)
        exact = math.exp(12.25) - 1.0
        below = sum(
            monte_carlo_divergence(model, CHI_SQUARED, 10**6, seed=seed).value < exact
            for seed in range(100)
        )
        assert below >= 95


class TestMomentCriterion:
    def test_examples(self):
        assert ratio_moment_is_finite(2.0, 1.5) is True
        assert ratio_moment_is_finite(2.0, 16.0) is False
        assert ratio_moment_is_finite(2.0, 25.0) is False
        assert ratio_moment_is_finite(1.0, 1e9) is True
        assert ratio_moment_is_finite(0.5, 123.0) is True

    def test_boundary_moment_is_infinite(self):
        # at v = order / (order - 1) the integrand g^order q is constant
        assert ratio_moment_is_finite(2.0, 2.0) is False
        assert ratio_moment_is_finite(3.0, 1.5) is False
        target = Gaussian1D(0.0, 2.0)
        assert gaussian_chi_squared(target, STD_NORMAL).value == math.inf
        model = make_gaussian_model(target, STD_NORMAL)
        assert quadrature_divergence(model, CHI_SQUARED).value == math.inf

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            ratio_moment_is_finite(0.0, 1.0)
        with pytest.raises(ValueError):
            ratio_moment_is_finite(2.0, 0.0)
