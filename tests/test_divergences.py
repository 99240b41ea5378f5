"""Unit and property tests for convex generators and discrete divergences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isbound import (
    BUILTIN_GENERATORS,
    CHI_SQUARED,
    KULLBACK_LEIBLER,
    SQUARED_HELLINGER,
    TOTAL_VARIATION,
    DivergenceKind,
    DivergenceValue,
    MassVector,
    ProbabilityVector,
    check_divergence_inequalities,
    custom_generator,
    discrete_divergence,
    divergence_bound,
    divergence_vs_uniform,
    generator_eval,
)

ALL_GENERATORS = list(BUILTIN_GENERATORS.values())


class TestGeneratorEval:
    def test_f_of_one_is_zero_for_all_builtins(self):
        for gen in ALL_GENERATORS:
            assert generator_eval(gen, 1.0) == 0.0

    def test_table_of_generator_values(self):
        # f(x) columns: x log x, (x-1)^2, |x-1|/2, (sqrt(x)-1)^2
        assert generator_eval(KULLBACK_LEIBLER, math.e) == pytest.approx(math.e)
        assert generator_eval(CHI_SQUARED, 3.0) == 4.0
        assert generator_eval(TOTAL_VARIATION, 3.0) == 1.0
        assert generator_eval(TOTAL_VARIATION, 0.5) == 0.25
        assert generator_eval(SQUARED_HELLINGER, 4.0) == 1.0

    def test_value_at_zero_is_the_right_limit(self):
        assert generator_eval(KULLBACK_LEIBLER, 0.0) == 0.0
        assert generator_eval(CHI_SQUARED, 0.0) == 1.0
        assert generator_eval(TOTAL_VARIATION, 0.0) == 0.5
        assert generator_eval(SQUARED_HELLINGER, 0.0) == 1.0

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.inf, math.nan, -math.inf])
    def test_rejects_negative_and_nonfinite(self, bad):
        for gen in ALL_GENERATORS:
            with pytest.raises(ValueError):
                generator_eval(gen, bad)
            with pytest.raises(ValueError):
                gen(bad)
            with pytest.raises(ValueError):
                gen(np.array([1.0, bad]))

    def test_vectorized_call_matches_scalar(self):
        xs = np.array([0.0, 0.25, 1.0, 2.0, 10.0])
        for gen in ALL_GENERATORS:
            vec = gen(xs)
            assert vec.shape == xs.shape
            for x, v in zip(xs, vec):
                assert v == generator_eval(gen, float(x))

    def test_midpoint_convexity_on_grid(self):
        # f((a+b)/2) <= (f(a)+f(b))/2 on (0, 1e3]
        grid = np.geomspace(1e-9, 1e3, 80)
        a, b = np.meshgrid(grid, grid)
        a, b = a.ravel(), b.ravel()
        for gen in ALL_GENERATORS:
            lhs = gen((a + b) / 2.0)
            rhs = (gen(a) + gen(b)) / 2.0
            assert np.all(lhs <= rhs + 1e-12)


class TestCustomGenerator:
    def test_quartic_is_accepted(self):
        gen = custom_generator(lambda x: (x - 1.0) ** 4, value_at_zero=1.0)
        assert gen.kind is DivergenceKind.CUSTOM
        assert generator_eval(gen, 3.0) == 16.0
        assert generator_eval(gen, 0.0) == 1.0

    def test_rejects_f_of_one_not_zero(self):
        with pytest.raises(ValueError, match="f\\(1\\)"):
            custom_generator(lambda x: x, value_at_zero=0.0)

    def test_rejects_nonconvex(self):
        with pytest.raises(ValueError, match="convexity"):
            custom_generator(lambda x: np.sin(3.0 * (x - 1.0)), value_at_zero=0.0)


class TestVectorTypes:
    def test_probability_vector_checks_sum(self):
        ProbabilityVector([0.5, 0.5])
        with pytest.raises(ValueError, match="sum to one"):
            ProbabilityVector([0.5, 0.6])

    def test_probability_vector_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ProbabilityVector([1.5, -0.5])

    def test_mass_vector_total_mass(self):
        mv = MassVector([0.3, 0.4, 0.4])
        assert mv.total_mass == pytest.approx(1.1)

    def test_vectors_are_immutable(self):
        pv = ProbabilityVector([0.25, 0.75])
        with pytest.raises(ValueError):
            pv.entries[0] = 0.5

    @pytest.mark.parametrize("vector_type", [ProbabilityVector, MassVector])
    def test_entries_are_copied_only_when_another_holder_can_write(self, vector_type):
        source = np.array([0.25, 0.75])
        vector = vector_type(source)
        source[0] = 0.5
        assert vector.entries.tolist() == [0.25, 0.75]

        base = np.array([0.25, 0.75, 0.5])
        view = base[:2]
        view.setflags(write=False)
        vector = vector_type(view)
        base[0] = 0.5
        assert vector.entries.tolist() == [0.25, 0.75]

        frozen = np.array([0.25, 0.75])
        frozen.setflags(write=False)
        assert vector_type(frozen).entries is frozen

    def test_divergence_value_contract(self):
        DivergenceValue(0.0, "closed_form")
        DivergenceValue(math.inf, "quadrature")
        DivergenceValue(-1e-4, "monte_carlo", std_error=0.1, sample_count=10)
        with pytest.raises(ValueError):
            DivergenceValue(-1e-4, "closed_form")
        with pytest.raises(ValueError):
            DivergenceValue(1.0, "monte_carlo")  # missing std_error
        with pytest.raises(ValueError):
            DivergenceValue(1.0, "closed_form", std_error=0.1)
        with pytest.raises(ValueError):
            DivergenceValue(1.0, "bogus")


class TestDiscreteDivergence:
    def test_identical_vectors_give_zero(self):
        p = ProbabilityVector([1 / 3, 1 / 3, 1 / 3])
        for gen in ALL_GENERATORS:
            assert discrete_divergence(p, p, gen) == 0.0

    def test_vertex_against_fair_coin_chi2(self):
        # 0.5*(2-1)^2 + 0.5*(0-1)^2 = 1, which is the length-2 cap N-1
        value = discrete_divergence([1.0, 0.0], [0.5, 0.5], CHI_SQUARED)
        assert value == pytest.approx(1.0, abs=1e-15)
        assert value == pytest.approx(divergence_bound(2, CHI_SQUARED), abs=1e-12)

    def test_vertex_against_uniform_four_kl(self):
        value = discrete_divergence([1.0, 0.0, 0.0, 0.0], np.full(4, 0.25), KULLBACK_LEIBLER)
        assert value == pytest.approx(math.log(4), abs=1e-12)
        assert value == pytest.approx(1.386294, abs=1e-6)

    def test_mass_vector_can_go_negative(self):
        # sub-probability first argument: KL of half-mass vector vs uniform
        value = discrete_divergence(MassVector([0.25, 0.25]), [0.5, 0.5], KULLBACK_LEIBLER)
        assert value < 0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="mismatched"):
            discrete_divergence([1.0], [0.5, 0.5], CHI_SQUARED)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError, match="strictly positive"):
            discrete_divergence([0.5, 0.5], [1.0, 0.0], CHI_SQUARED)


class TestDivergenceVsUniform:
    def test_uniform_gives_zero(self):
        for n in (1, 2, 7):
            for gen in ALL_GENERATORS:
                assert divergence_vs_uniform(np.full(n, 1.0 / n), gen) == pytest.approx(
                    0.0, abs=1e-15
                )

    def test_vertex_attains_the_cap(self):
        for n in (2, 5, 64):
            for gen in ALL_GENERATORS:
                for index in (0, n - 1):
                    value = divergence_vs_uniform(ProbabilityVector.vertex(n, index), gen)
                    assert value == pytest.approx(divergence_bound(n, gen), abs=1e-12)

    def test_small_perturbation_chi2(self):
        assert divergence_vs_uniform([0.6, 0.4], CHI_SQUARED) == pytest.approx(0.04, abs=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            divergence_vs_uniform([], CHI_SQUARED)


class TestInvariants:
    """Randomized invariants over the probability simplex."""

    def test_nonnegative_between_probability_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            p = rng.dirichlet(np.ones(n), size=200)
            q_raw = rng.uniform(0.1, 1.0, size=(200, n))
            q = q_raw / q_raw.sum(axis=1, keepdims=True)
            for gen in ALL_GENERATORS:
                values = np.sum(q * gen(p / q), axis=1)
                assert np.all(values >= -1e-12)

    def test_convex_in_first_argument(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            p1 = rng.dirichlet(np.ones(n))
            p2 = rng.dirichlet(np.ones(n))
            lam = float(rng.uniform())
            mix = lam * p1 + (1.0 - lam) * p2
            for gen in ALL_GENERATORS:
                lhs = divergence_vs_uniform(mix, gen)
                rhs = lam * divergence_vs_uniform(p1, gen) + (1.0 - lam) * divergence_vs_uniform(
                    p2, gen
                )
                assert lhs <= rhs + 1e-12

    def test_mass_inflated_vectors_respect_inflated_cap(self):
        rng = np.random.default_rng(13)
        for excess in (0.1, 1.0):
            for n in (2, 10, 100):
                p = (1.0 + excess) * rng.dirichlet(np.ones(n), size=2000)
                for gen in ALL_GENERATORS:
                    values = gen(n * p).mean(axis=1)
                    cap = divergence_bound(n, gen, excess)
                    assert np.all(values <= cap + 1e-12)
                # equality at an inflated vertex
                vertex = np.zeros(n)
                vertex[0] = 1.0 + excess
                for gen in ALL_GENERATORS:
                    value = divergence_vs_uniform(MassVector(vertex), gen)
                    assert value == pytest.approx(divergence_bound(n, gen, excess), abs=1e-12)


@st.composite
def simplex_points(draw, max_size=30):
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=max_size,
        )
    )
    arr = np.asarray(raw)
    total = arr.sum()
    if total <= 0:
        arr = np.ones_like(arr)
        total = arr.sum()
    return arr / total


@given(p=simplex_points())
@settings(max_examples=150, deadline=None)
def test_property_divergence_vs_uniform_below_cap(p):
    for gen in ALL_GENERATORS:
        assert divergence_vs_uniform(p, gen) <= divergence_bound(p.size, gen) + 1e-12


@given(p=simplex_points(max_size=12))
@settings(max_examples=150, deadline=None)
def test_property_self_divergence_is_zero(p):
    q = np.maximum(p, 1e-9)
    q = q / q.sum()
    for gen in ALL_GENERATORS:
        assert abs(discrete_divergence(q, q, gen)) <= 1e-12


class TestInequalityReport:
    def test_identical_measures(self):
        assert check_divergence_inequalities(0.0, 0.0, 0.0, 0.0) == (True, True, True)

    def test_shifted_gaussian_values(self):
        # KL, chi2, TV, Hell^2 of N(2,1) against N(0,1)
        report = check_divergence_inequalities(2.0, math.exp(4) - 1.0, 0.6827, 0.7869)
        assert report == (True, True, True)

    def test_constructed_violation(self):
        report = check_divergence_inequalities(5.0, 1.0, 0.0, 0.0)
        assert report == (False, True, True)
        assert report.kl_bounded_by_chi2 is False

    def test_infinite_chi2_is_vacuous(self):
        assert check_divergence_inequalities(50.0, math.inf, 1.0, 2.0) == (True, True, True)

    def test_accepts_divergence_values(self):
        d = DivergenceValue(0.0, "closed_form")
        assert check_divergence_inequalities(d, d, d, d) == (True, True, True)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            check_divergence_inequalities(-0.1, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: discrete_divergence(np.full((2, 2), 0.25), [0.5, 0.5], KULLBACK_LEIBLER),
                 "weight vectors must be one-dimensional", id="2d-vector"),
    pytest.param(lambda: MassVector([]), "mass vector must be nonempty", id="empty"),
    pytest.param(lambda: MassVector([math.inf]), "mass vector entries must be finite",
                 id="infinite-mass"),
    pytest.param(lambda: DivergenceValue(math.nan, "closed_form"),
                 "divergence value must not be NaN", id="nan-value"),
    pytest.param(lambda: DivergenceValue(1.0, "monte_carlo", std_error=-1.0, sample_count=10),
                 "std_error must be nonnegative", id="negative-std-error"),
])
def test_rejects_invalid_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()
