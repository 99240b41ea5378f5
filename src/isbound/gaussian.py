"""One-dimensional Gaussian target/proposal pairs and divergence computation.

Every divergence between Gaussians can be obtained three ways: a closed
form, adaptive numerical quadrature of ``f(g(x)) q(x)`` (the independent
oracle used to validate the closed forms), and seeded Monte Carlo.  The
quadrature integrands for the built-in generators are algebraically
regrouped into log-space-stable terms (for example ``g^2 q`` is evaluated
as ``exp(2 log g + log q)``) so that the window edges neither overflow nor
silently underflow; a genuine divergence, such as the chi-squared integral
for a target variance >= 2, surfaces as integrand overflow and is reported
as an infinite value rather than an error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .divergences import ConvexGenerator, DivergenceKind, DivergenceValue

__all__ = [
    "Gaussian1D",
    "GaussianPair",
    "QuadratureSpec",
    "QuadratureError",
    "WeightOverflowWarning",
    "make_gaussian_model",
    "density_crossings",
    "gaussian_kl",
    "gaussian_squared_hellinger",
    "gaussian_chi_squared",
    "gaussian_total_variation",
    "quadrature_divergence",
    "adaptive_integral",
    "monte_carlo_divergence",
    "ratio_moment_is_finite",
]

_LOG_2PI = math.log(2.0 * math.pi)

# exp() overflows just above 709; ratios beyond this are treated as +inf
_EXP_OVERFLOW = 700.0

# a proposal sampler's seed; samplers pass it to np.random.default_rng, which
# returns an already-seeded Generator unchanged
SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


class QuadratureError(RuntimeError):
    """Adaptive integration failed to meet its tolerance within budget."""


class WeightOverflowWarning(RuntimeWarning):
    """A density ratio overflowed to +inf while exponentiating."""


@dataclass(frozen=True)
class Gaussian1D:
    """A univariate normal distribution N(mean, variance)."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("Gaussian parameters must be finite")
        if self.variance <= 0:
            raise ValueError(f"variance must be positive, got {self.variance!r}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = -((x - self.mean) ** 2) / (2.0 * self.variance)
        out -= 0.5 * (_LOG_2PI + math.log(self.variance))
        return out

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def cdf(self, x: float) -> float:
        z = (x - self.mean) / self.std
        return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class GaussianPair:
    """A Gaussian target p and proposal q, and their density ratio g = dp/dq.

    Built by ``make_gaussian_model``.  ``ratios`` applies the one overflow
    policy that every estimator shares: a log ratio above 700 gives g = +inf.
    ``proposal_sampler(n, seed)`` passes its seed to ``np.random.default_rng``,
    so the seed may be an int, a ``SeedSequence`` or an already-seeded
    ``np.random.Generator``, which is used as is.
    """

    target: Gaussian1D
    proposal: Gaussian1D

    def log_ratio(self, x):
        """log g(x) = log p(x) - log q(x), elementwise."""
        x = np.asarray(x, dtype=float)
        mp, vp = self.target.mean, self.target.variance
        mq, vq = self.proposal.mean, self.proposal.variance
        return 0.5 * math.log(vq / vp) - (x - mp) ** 2 / (2.0 * vp) + (x - mq) ** 2 / (2.0 * vq)

    def proposal_sampler(self, n: int, seed: SeedLike) -> np.ndarray:
        q = self.proposal
        return np.random.default_rng(seed).normal(q.mean, math.sqrt(q.variance), int(n))

    def ratios(self, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log ratios and ratios g of draws of any shape; log g > 700 gives g = +inf.

        ``log_ratio`` sees the draws flattened to one dimension.
        """
        log_ratio = np.reshape(self.log_ratio(draws.ravel()), draws.shape)
        with np.errstate(over="ignore"):
            ratios = np.exp(log_ratio)
        ratios[log_ratio > _EXP_OVERFLOW] = np.inf
        return log_ratio, ratios


def make_gaussian_model(target: Gaussian1D, proposal: Gaussian1D) -> GaussianPair:
    """Build the exact density-ratio model for a Gaussian pair."""
    return GaussianPair(target, proposal)


def _generator_values(f: ConvexGenerator, ratios: np.ndarray) -> np.ndarray:
    """f at each ratio, and +inf where the ratio overflowed."""
    overflowed = np.isinf(ratios)
    if not overflowed.any():
        return f(ratios)
    values = np.full_like(ratios, np.inf)
    values[~overflowed] = f(ratios[~overflowed])
    return values


def density_crossings(target: Gaussian1D, proposal: Gaussian1D) -> tuple[float, ...]:
    """Roots of log target - log proposal = 0, sorted ascending.

    Equal variances give at most one crossing; distinct variances give two.
    An identical pair has no isolated crossing and returns ().
    """
    mp, vp = target.mean, target.variance
    mq, vq = proposal.mean, proposal.variance
    a = 1.0 / (2.0 * vq) - 1.0 / (2.0 * vp)
    b = mp / vp - mq / vq
    c = 0.5 * math.log(vq / vp) - mp**2 / (2.0 * vp) + mq**2 / (2.0 * vq)
    if a == 0.0:
        if b == 0.0:
            return ()
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return ()
    root = math.sqrt(disc)
    # citardauq form keeps the smaller-magnitude root stable
    qq = -0.5 * (b + math.copysign(root, b)) if b != 0.0 else 0.5 * root
    x1 = qq / a
    x2 = c / qq if qq != 0.0 else -x1
    return tuple(sorted((x1, x2)))


def gaussian_kl(target: Gaussian1D, proposal: Gaussian1D) -> DivergenceValue:
    """Kullback-Leibler divergence KL(target || proposal), natural log."""
    r = target.variance / proposal.variance
    shift = (target.mean - proposal.mean) ** 2 / proposal.variance
    value = 0.5 * (r + shift - 1.0 - math.log(r))
    return DivergenceValue(max(value, 0.0), "closed_form")


def gaussian_squared_hellinger(target: Gaussian1D, proposal: Gaussian1D) -> DivergenceValue:
    """Squared Hellinger distance, in [0, 2], to full relative precision.

    Computed as -2 expm1(log overlap), where t = sp - sq = (vp - vq) / (sp + sq)
    and log overlap = -log1p(t^2 / (2 sp sq)) / 2 - dm^2 / (4 (vp + vq)).
    """
    vp, vq, sp, sq = target.variance, proposal.variance, target.std, proposal.std
    t = (vp - vq) / (sp + sq)
    log_c = -0.5 * math.log1p(0.5 * (t / sp) * (t / sq))
    log_overlap = log_c - (target.mean - proposal.mean) ** 2 / (4.0 * (vp + vq))
    return DivergenceValue(max(-2.0 * math.expm1(log_overlap), 0.0), "closed_form")


def gaussian_chi_squared(target: Gaussian1D, proposal: Gaussian1D) -> DivergenceValue:
    """Chi-squared divergence; +inf when the standardized target variance >= 2.

    Both measures are standardized so the proposal becomes N(0, 1)
    (f-divergences are invariant under this affine map), leaving a single
    formula in the standardized mean m and variance s2:
    exp(m^2 / (2 - s2)) / (s * sqrt(2 - s2)) - 1.
    """
    s2 = target.variance / proposal.variance
    m = (target.mean - proposal.mean) / proposal.std
    if s2 >= 2.0:
        return DivergenceValue(math.inf, "closed_form")
    value = math.exp(m * m / (2.0 - s2)) / (math.sqrt(s2) * math.sqrt(2.0 - s2)) - 1.0
    return DivergenceValue(max(value, 0.0), "closed_form")


def gaussian_total_variation(target: Gaussian1D, proposal: Gaussian1D) -> DivergenceValue:
    """Total variation distance sup_A |P(A) - Q(A)|, in [0, 1].

    Computed from the density crossing points: with one crossing the
    distance is a single CDF difference, with two it is the difference of
    the probabilities both measures assign to the interval between them.
    """
    crossings = density_crossings(target, proposal)
    if not crossings:
        return DivergenceValue(0.0, "closed_form")
    if len(crossings) == 1:
        x0 = crossings[0]
        value = abs(target.cdf(x0) - proposal.cdf(x0))
    else:
        x1, x2 = crossings
        value = abs(
            (target.cdf(x2) - target.cdf(x1)) - (proposal.cdf(x2) - proposal.cdf(x1))
        )
    return DivergenceValue(min(max(value, 0.0), 1.0), "closed_form")


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and window size for adaptive integration.

    ``integration_window`` is the number of scales covered on each side of
    every Gaussian-shaped component of the integrand (both densities and the
    bumps formed by density-ratio powers).
    """

    absolute_tolerance: float = 1e-10
    relative_tolerance: float = 1e-10
    integration_window: float = 40.0

    def __post_init__(self):
        if self.absolute_tolerance <= 0 or self.relative_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.integration_window < 10:
            raise ValueError("integration window must cover at least 10 standard deviations")


_MAX_INTERVALS = 10_000

# QUADPACK qk15 (Piessens et al. 1983): Kronrod nodes on [0, 1] from the outside
# in, their K15 weights, and the G7 weights (zero on the Kronrod-only nodes)
_QK15 = np.array([
    (0.9914553711208126, 0.022935322010529224, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.0, 0.20948214108472782, 0.4179591836734694),
])
# the 15 nodes on [-1, 1] and a (15, 2) matrix of their K15 and G7 weights
_NODES = np.concatenate([-_QK15[:, 0], _QK15[-2::-1, 0]])
_WEIGHTS = np.concatenate([_QK15[:, 1:], _QK15[-2::-1, 1:]])


def adaptive_integral(
    fn: Callable[[np.ndarray], np.ndarray],
    breakpoints,
    spec: QuadratureSpec | None = None,
) -> float:
    """Adaptive Gauss-Kronrod (G7/K15) integration over [min(bp), max(bp)].

    Panels between the breakpoints are refined in sweeps.  Each sweep calls
    ``fn`` once, on the 15 nodes of every open panel, with overflow and
    invalid-value warnings silenced, and takes K15 with |K15 - G7| as its
    error.  Panels within their share of the tolerance left of
    max(absolute, relative * |total|) are accepted and the rest bisected;
    over 10^4 bisections raise QuadratureError.  The result is +inf when
    the integrand overflows, a panel sum is not finite, or a window edge is
    non-negligible and still growing outward (the window holds the
    divergent shape of the integrand); a non-negligible but decaying edge
    means the window is too small and raises QuadratureError.
    """
    spec = spec or QuadratureSpec()
    pts = np.unique(np.asarray(breakpoints, dtype=float))
    if pts.size < 2:
        raise ValueError("need at least two distinct breakpoints")

    lo, hi = pts[:-1], pts[1:]
    total = accepted_err = 0.0
    splits = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while lo.size:
            half = 0.5 * (hi - lo)
            nodes = (lo + half)[:, np.newaxis] + half[:, np.newaxis] * _NODES
            values = np.reshape(fn(nodes.ravel()), nodes.shape)
            kronrod, gauss = (half[:, np.newaxis] * (values @ _WEIGHTS)).T
            err = np.abs(kronrod - gauss)
            if not math.isfinite(estimate := total + float(kronrod.sum())):
                return math.inf
            tol = max(spec.absolute_tolerance, spec.relative_tolerance * abs(estimate))
            remaining = max(tol - accepted_err, 0.0)
            # either every open panel fits or each gets its width's share
            ok = err <= remaining * (1.0 if err.sum() <= remaining else half / half.sum())
            total += float(kronrod[ok].sum())
            accepted_err += float(err[ok].sum())
            lo, hi = lo[~ok], hi[~ok]
            splits += lo.size
            if splits > _MAX_INTERVALS:
                raise QuadratureError(
                    f"no convergence after {_MAX_INTERVALS} subdivisions "
                    f"(error estimate {accepted_err + float(err[~ok].sum()):.3e})"
                )
            mid = 0.5 * (lo + hi)
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])

        if not _edges_certified(fn, float(pts[0]), float(pts[-1]), total, spec):
            return math.inf
    return total


def _edges_certified(fn, lo: float, hi: float, total: float, spec: QuadratureSpec) -> bool:
    """Check the integrand is relatively negligible at the window edges.

    Returns False (diagnosed divergent) when either edge is non-negligible
    and still growing outward.  Otherwise a non-negligible but decaying edge
    means a finite integral is undercovered and raises QuadratureError.
    """
    width = hi - lo
    step = 1e-3 * width
    negligible = max(spec.absolute_tolerance, spec.relative_tolerance * abs(total))
    # both edges and a point just inside each, in one integrand call
    values = np.abs(fn(np.array([lo, lo + step, hi, hi - step])))
    if not np.isfinite(values).all():
        return False
    lo_val, lo_inside, hi_val, hi_inside = values.tolist()
    undercovered = []
    for edge, edge_val, inside_val in ((lo, lo_val, lo_inside), (hi, hi_val, hi_inside)):
        if edge_val * width <= negligible:
            continue
        if edge_val >= inside_val * (1.0 - 1e-9):
            return False
        undercovered.append(f"window edge {edge!r} (value {edge_val!r})")
    if undercovered:
        raise QuadratureError(
            f"integrand is not negligible at {' and '.join(undercovered)}; "
            "widen the integration window"
        )
    return True


_BUMP_OFFSETS = np.array(
    [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 25.0, 40.0]
)

# products g^a q appearing in the built-in integrands
_RATIO_POWERS = (0.5, 1.0, 2.0)


def _integrand_bumps(target: Gaussian1D, proposal: Gaussian1D) -> list[tuple[float, float]]:
    """(center, scale) of every Gaussian-shaped component of the integrands.

    Each built-in integrand is a combination of terms exp(a log g + log q)
    with a in {1/2, 1, 2} plus the densities themselves.  A term whose
    quadratic has negative curvature is an integrable bump that the window
    must cover; nonnegative curvature means that term diverges, which the
    edge certification detects instead.
    """
    mp, vp = target.mean, target.variance
    mq, vq = proposal.mean, proposal.variance
    bumps = [(mp, target.std), (mq, proposal.std)]
    ratio_x2 = 1.0 / (2.0 * vq) - 1.0 / (2.0 * vp)
    ratio_x1 = mp / vp - mq / vq
    for a in _RATIO_POWERS:
        x2 = a * ratio_x2 - 1.0 / (2.0 * vq)
        x1 = a * ratio_x1 + mq / vq
        if x2 < 0:
            bumps.append((-x1 / (2.0 * x2), math.sqrt(-1.0 / (2.0 * x2))))
    return bumps


def _window_breakpoints(pair: GaussianPair, spec: QuadratureSpec) -> np.ndarray:
    target, proposal = pair.target, pair.proposal
    bumps = _integrand_bumps(target, proposal)
    window = spec.integration_window
    lo = min(center - window * scale for center, scale in bumps)
    hi = max(center + window * scale for center, scale in bumps)
    pts = [np.array([lo, hi])]
    for center, scale in bumps:
        pts.append(center + scale * _BUMP_OFFSETS)
        pts.append(center - scale * _BUMP_OFFSETS)
    pts.append(np.asarray(density_crossings(target, proposal), dtype=float))
    merged = np.concatenate(pts)
    return np.unique(np.clip(merged, lo, hi))


def _stable_integrand(
    pair: GaussianPair, f: ConvexGenerator
) -> Callable[[np.ndarray], np.ndarray]:
    lt = pair.target.log_pdf
    lq = pair.proposal.log_pdf
    lr = pair.log_ratio
    kind = f.kind

    if kind is DivergenceKind.KULLBACK_LEIBLER:
        # g log(g) q == p log(g)
        def integrand(x):
            return np.exp(lt(x)) * lr(x)

    elif kind is DivergenceKind.CHI_SQUARED:
        # (g - 1)^2 q == g^2 q - 2 p + q
        def integrand(x):
            return np.exp(2.0 * lr(x) + lq(x)) - 2.0 * np.exp(lt(x)) + np.exp(lq(x))

    elif kind is DivergenceKind.TOTAL_VARIATION:
        def integrand(x):
            return 0.5 * np.abs(np.exp(lt(x)) - np.exp(lq(x)))

    elif kind is DivergenceKind.SQUARED_HELLINGER:
        # (sqrt(g) - 1)^2 q == p - 2 sqrt(p q) + q
        def integrand(x):
            return np.exp(lt(x)) - 2.0 * np.exp(0.5 * lr(x) + lq(x)) + np.exp(lq(x))

    else:
        # custom generators evaluate f(g) q directly; an overflowed ratio is a
        # diagnosed-infinite integrand value, also where q underflows to 0
        def integrand(x):
            values = _generator_values(f, pair.ratios(x)[1])
            return np.multiply(values, np.exp(lq(x)), out=values, where=np.isfinite(values))

    return integrand


def quadrature_divergence(
    pair: GaussianPair,
    f: ConvexGenerator,
    spec: QuadratureSpec | None = None,
) -> DivergenceValue:
    """Numerically integrate f(g(x)) q(x) over the window; the oracle route.

    Returns an infinite DivergenceValue when the integral is diagnosed
    divergent (integrand overflow, or a window edge where the integrand is
    non-negligible and still growing) and raises QuadratureError when the
    adaptive scheme fails its tolerance.
    """
    spec = spec or QuadratureSpec()
    points = _window_breakpoints(pair, spec)
    total = adaptive_integral(_stable_integrand(pair, f), points, spec)
    if math.isinf(total):
        return DivergenceValue(math.inf, "quadrature")
    if total < -1e-8:
        raise QuadratureError(f"integral of a nonnegative divergence came out {total!r}")
    return DivergenceValue(max(total, 0.0), "quadrature")


_MC_CHUNK = 1_000_000


def monte_carlo_divergence(
    pair: GaussianPair,
    f: ConvexGenerator,
    sample_count: int,
    seed: int,
) -> DivergenceValue:
    """Estimate the divergence as the sample mean of f(g(v)) over proposal draws.

    Draws are generated in fixed chunks of 10^6; chunk ``j`` uses the stream
    ``SeedSequence(seed, spawn_key=(j,))``, so the estimate depends only on
    ``seed`` and is reproducible regardless of how chunks are scheduled.
    Ratios whose logarithm exceeds the overflow limit propagate as +inf
    values (a heavy-tail diagnostic) rather than raising.
    """
    if sample_count < 2:
        raise ValueError(f"sample_count must be at least 2, got {sample_count}")
    total = 0.0
    total_sq = 0.0
    drawn = 0
    chunk_index = 0
    overflowed = 0
    while drawn < sample_count:
        n = min(_MC_CHUNK, sample_count - drawn)
        seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(chunk_index,))
        ratios = pair.ratios(pair.proposal_sampler(n, seq))[1]
        overflowed += int(np.count_nonzero(np.isinf(ratios)))
        values = _generator_values(f, ratios)
        total += float(values.sum())
        total_sq += float((values * values).sum())
        drawn += n
        chunk_index += 1
    if overflowed:
        warnings.warn(
            f"{overflowed} of {sample_count} density ratios overflowed; "
            "the estimate is +inf",
            WeightOverflowWarning,
            stacklevel=2,
        )
    mean = total / sample_count
    if math.isfinite(total) and math.isfinite(total_sq):
        var = max(total_sq - sample_count * mean * mean, 0.0) / (sample_count - 1)
        std_error = math.sqrt(var / sample_count)
    else:
        std_error = math.inf
    return DivergenceValue(mean, "monte_carlo", std_error=std_error, sample_count=sample_count)


def ratio_moment_is_finite(order: float, target_variance: float) -> bool:
    """Whether the density ratio of N(0, v) against N(0, 1) has a finite moment.

    For ``order`` > 1 the criterion is v <= order / (order - 1); orders up
    to one are always finite.  Note the order-2 boundary v = 2 is where the
    chi-squared closed form already reports +inf.
    """
    if order <= 0:
        raise ValueError(f"moment order must be positive, got {order!r}")
    if target_variance <= 0:
        raise ValueError(f"variance must be positive, got {target_variance!r}")
    if order <= 1.0:
        return True
    return target_variance <= order / (order - 1.0)
