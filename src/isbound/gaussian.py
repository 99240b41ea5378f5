"""One-dimensional Gaussian target/proposal pairs and divergence computation.

Every divergence between Gaussians can be obtained three ways: a closed
form, adaptive numerical quadrature of ``f(g(x)) q(x)`` (the independent
oracle used to validate the closed forms), and seeded Monte Carlo.  The
quadrature integrands for the built-in generators are algebraically
regrouped into log-space-stable terms (for example ``g^2 q`` is evaluated
as ``exp(2 log g + log q)``) so that the window edges neither overflow nor
silently underflow; a genuine divergence, such as the chi-squared integral
for a target variance >= 2, surfaces as integrand overflow and is reported
as an infinite value rather than an error.  Every quadrature integral on one
pair shares its window, first sweep (with the window-edge probes) and log
densities, built on first use.  Each integrand is a function
``terms(x, log p, log q, log g)`` of arrays, integrated by ``GaussianPair._integral``.

``GaussianPair.ratios`` computes density ratios in cache-sized blocks of
2^15 draws, into one output array, so no full-length log-ratio array is
ever allocated.  Independent work units large enough to gain from it, such
as Monte Carlo cells of 2^14 draws or more, run through ``_parallel_map`` on
one thread per CPU in the process's affinity: numpy's normal draws and
ufuncs release the GIL, each unit keeps its own seed, and results come back
in input order, so output does not depend on the thread count.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from .divergences import ConvexGenerator, DivergenceKind, DivergenceValue, _generator_values

__all__ = [
    "Gaussian1D",
    "GaussianPair",
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
# exp() is exactly 0 below -745.14, where np.exp takes a slow underflow path;
# log ratios below this cut are given the ratio 0 without calling it
_EXP_UNDERFLOW = -750.0

# draws per block of ``GaussianPair.ratios``: a block's log ratios stay in cache
_RATIO_BLOCK = 1 << 15

# a proposal sampler's seed; samplers pass it to np.random.default_rng, which
# seeds PCG64 from an int or any ISeedSequence and returns a Generator unchanged
SeedLike = Union[int, np.random.bit_generator.ISeedSequence, np.random.Generator]


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

    Built by ``make_gaussian_model``.  ``ratios`` exponentiates through
    ``_exp_ratios``, the one overflow step that every estimator and the
    custom-generator quadrature share: a log ratio above 700 gives g = +inf.
    ``proposal_sampler(n, seed)`` passes its seed to ``np.random.default_rng``,
    so the seed may be an int, any ``ISeedSequence`` such as a ``SeedSequence``,
    or an already-seeded ``np.random.Generator``, which is used as is.
    """

    target: Gaussian1D
    proposal: Gaussian1D

    def log_ratio(self, x):
        """log g(x) = log p(x) - log q(x), elementwise.

        Bit for bit 0.5 log(vq / vp) - (x - mp)^2 / (2 vp) + (x - mq)^2 / (2 vq),
        evaluated in place in two buffers: dividing by -2 vp negates the
        quotient exactly, and adding the constant to that is exactly the
        subtraction.
        """
        x = np.asarray(x, dtype=float)
        mp, vp = self.target.mean, self.target.variance
        mq, vq = self.proposal.mean, self.proposal.variance
        log_ratio = x - mp
        log_ratio **= 2
        log_ratio /= -2.0 * vp
        log_ratio += 0.5 * math.log(vq / vp)
        shift = x - mq
        shift **= 2
        shift /= 2.0 * vq
        log_ratio += shift
        return log_ratio

    def _log_densities(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log p, log q and log g at x."""
        return self.target.log_pdf(x), self.proposal.log_pdf(x), self.log_ratio(x)

    @functools.cached_property
    def _quadrature_plan(self) -> _Window:
        """The window of every quadrature integral on this pair, with its first
        sweep's read-only log p, log q and log g as ``log_densities``; built on
        first use.  It holds arrays only, so it forms no reference cycle with the pair."""
        window = _Window(_window_breakpoints(self))
        window.log_densities = tuple(map(_read_only, self._log_densities(window.first_sweep)))
        return window

    def _integral(self, terms: Callable[..., np.ndarray]) -> float:
        """``adaptive_integral`` over the pair's window of terms(x, log p, log q, log g),
        with the plan's log densities on its first sweep and, on a later sweep's
        nodes, each of the three computed once."""
        plan = self._quadrature_plan

        def integrand(x):
            if x is plan.first_sweep:
                return terms(x, *plan.log_densities)
            return terms(x, *self._log_densities(x))

        return adaptive_integral(integrand, plan)

    def proposal_sampler(self, n: int, seed: SeedLike) -> np.ndarray:
        q = self.proposal
        return np.random.default_rng(seed).normal(q.mean, math.sqrt(q.variance), int(n))

    def ratios(self, draws: np.ndarray) -> np.ndarray:
        """The ratios g of draws of any shape; log g > 700 gives g = +inf.

        ``log_ratio`` sees the flattened draws in blocks of 2^15, each a view
        of the draws, exponentiated into its slice of the new array returned.
        """
        flat, ratios = draws.ravel(), np.empty(draws.shape)
        out = ratios.reshape(-1)  # a view, as ratios is contiguous
        for start in range(0, flat.size, _RATIO_BLOCK):
            block = slice(start, start + _RATIO_BLOCK)
            _exp_ratios(self.log_ratio(flat[block]), out=out[block])
        return ratios


def _exp_ratios(log_ratio: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The ratios g = exp(log g), in ``out`` or a new array; log g > 700 gives g = +inf."""
    if out is None:
        out = np.empty_like(log_ratio)
    with np.errstate(over="ignore"):
        if log_ratio.min(initial=math.inf) >= _EXP_UNDERFLOW:
            np.exp(log_ratio, out=out)
        else:
            out.fill(0.0)
            kept = np.flatnonzero(~(log_ratio < _EXP_UNDERFLOW))  # NaN is kept
            taken = log_ratio.take(kept)
            np.put(out, kept, np.exp(taken, out=taken))
    if not log_ratio.max(initial=-math.inf) <= _EXP_OVERFLOW:
        out[log_ratio > _EXP_OVERFLOW] = np.inf
    return out


def make_gaussian_model(target: Gaussian1D, proposal: Gaussian1D) -> GaussianPair:
    """Build the exact density-ratio model for a Gaussian pair."""
    return GaussianPair(target, proposal)


def _log_ratio_quadratic(target: Gaussian1D, proposal: Gaussian1D) -> tuple[float, float, float]:
    """(a, b, c) with log target(x) - log proposal(x) = a x^2 + b x + c."""
    mp, vp = target.mean, target.variance
    mq, vq = proposal.mean, proposal.variance
    a = 1.0 / (2.0 * vq) - 1.0 / (2.0 * vp)
    b = mp / vp - mq / vq
    c = 0.5 * math.log(vq / vp) - mp**2 / (2.0 * vp) + mq**2 / (2.0 * vq)
    return a, b, c


def density_crossings(target: Gaussian1D, proposal: Gaussian1D) -> tuple[float, ...]:
    """Roots of log target - log proposal = 0, sorted ascending.

    Equal variances give at most one crossing; distinct variances give two.
    An identical pair has no isolated crossing and returns ().
    """
    a, b, c = _log_ratio_quadratic(target, proposal)
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
    if not ratio_moment_is_finite(2.0, s2):
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


# adaptive integration accepts an error up to max(absolute, relative * |integral|)
_ABSOLUTE_TOLERANCE = 1e-10
_RELATIVE_TOLERANCE = 1e-10
# scales covered on each side of every Gaussian-shaped component of the
# integrand (both densities and the bumps formed by density-ratio powers)
_INTEGRATION_WINDOW = 40.0
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


def adaptive_integral(fn: Callable[[np.ndarray], np.ndarray], breakpoints) -> float:
    """Adaptive Gauss-Kronrod (G7/K15) integration over [min(bp), max(bp)].

    Panels between the breakpoints are refined in sweeps.  ``fn`` is
    evaluated elementwise, once per sweep, on the 15 nodes of every open
    panel, with overflow and invalid-value warnings silenced; the first call
    also covers the four window-edge probes.  Each sweep takes K15 with
    |K15 - G7| as its error.  Panels within their share of the tolerance
    left of max(absolute, relative * |total|) are accepted and the rest bisected;
    over 10^4 bisections raise QuadratureError.  The result is +inf when
    the integrand overflows, a panel sum is not finite, or a window edge is
    non-negligible and still growing outward (the window holds the
    divergent shape of the integrand); a non-negligible but decaying edge
    means the window is too small and raises QuadratureError.
    """
    # a pair's quadrature plan is a window with its first sweep already built
    window = breakpoints if isinstance(breakpoints, _Window) else _Window(breakpoints)
    lo, hi = window.breakpoints[:-1], window.breakpoints[1:]
    half = window.half
    total = accepted_err = 0.0
    splits = 0
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(fn(window.first_sweep))
        values, probe_values = values[:-4], values[-4:]
        while True:
            values = np.reshape(values, (half.size, _NODES.size))
            kronrod, gauss = (half[:, np.newaxis] * (values @ _WEIGHTS)).T
            err = np.abs(kronrod - gauss)
            if not math.isfinite(estimate := total + float(kronrod.sum())):
                return math.inf
            tol = max(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * abs(estimate))
            remaining = max(tol - accepted_err, 0.0)
            # either every open panel fits or each gets its width's share
            ok = err <= remaining * (1.0 if err.sum() <= remaining else half / half.sum())
            total += float(kronrod[ok].sum())
            accepted_err += float(err[ok].sum())
            lo, hi = lo[~ok], hi[~ok]
            if not lo.size:
                break
            splits += lo.size
            if splits > _MAX_INTERVALS:
                raise QuadratureError(
                    f"no convergence after {_MAX_INTERVALS} subdivisions "
                    f"(error estimate {accepted_err + float(err[~ok].sum()):.3e})"
                )
            mid = 0.5 * (lo + hi)
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
            half, nodes = _panel_nodes(lo, hi)
            values = fn(nodes)

        if not _edges_certified(probe_values, window, total):
            return math.inf
    return total


def _panel_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths of the panels [lo, hi] and their 15 nodes each, flattened."""
    half = 0.5 * (hi - lo)
    return half, ((lo + half)[:, np.newaxis] + half[:, np.newaxis] * _NODES).ravel()


class _Window:
    """An integration window: its unique breakpoints, the half-widths of its
    first sweep's panels, and the points of that sweep; all read-only.

    The first sweep is the panels' 15 nodes each, then the four edge probes
    that ``_edges_certified`` reads: both edges and a point a thousandth of
    the width inside each, as ``[lo, lo + step, hi, hi - step]``.  A pair's
    window, its ``_quadrature_plan``, also holds ``log_densities``.
    """

    def __init__(self, breakpoints):
        pts = np.unique(np.asarray(breakpoints, dtype=float))
        if pts.size < 2:
            raise ValueError("need at least two distinct breakpoints")
        half, nodes = _panel_nodes(pts[:-1], pts[1:])
        lo, hi = float(pts[0]), float(pts[-1])
        step = 1e-3 * (hi - lo)
        first_sweep = np.concatenate([nodes, [lo, lo + step, hi, hi - step]])
        self.breakpoints, self.half, self.first_sweep = map(_read_only, (pts, half, first_sweep))


def _edges_certified(probe_values: np.ndarray, window: _Window, total: float) -> bool:
    """Check the integrand is relatively negligible at the window edges,
    from its values at the four edge probes of the first sweep.

    Returns False (diagnosed divergent) when a probe value is not finite, or
    either edge is non-negligible and still growing outward.  Otherwise a
    non-negligible but decaying edge means a finite integral is undercovered
    and raises QuadratureError.
    """
    lo, hi = window.breakpoints[[0, -1]].tolist()
    width = hi - lo
    negligible = max(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * abs(total))
    values = np.abs(probe_values)
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
    mq, vq = proposal.mean, proposal.variance
    bumps = [(target.mean, target.std), (mq, proposal.std)]
    ratio_x2, ratio_x1, _ = _log_ratio_quadratic(target, proposal)
    for a in _RATIO_POWERS:
        x2 = a * ratio_x2 - 1.0 / (2.0 * vq)
        x1 = a * ratio_x1 + mq / vq
        if x2 < 0:
            bumps.append((-x1 / (2.0 * x2), math.sqrt(-1.0 / (2.0 * x2))))
    return bumps


def _window_breakpoints(pair: GaussianPair) -> np.ndarray:
    """The window's breakpoints, unsorted and possibly repeated."""
    target, proposal = pair.target, pair.proposal
    bumps = _integrand_bumps(target, proposal)
    lo = min(center - _INTEGRATION_WINDOW * scale for center, scale in bumps)
    hi = max(center + _INTEGRATION_WINDOW * scale for center, scale in bumps)
    pts = [np.array([lo, hi])]
    for center, scale in bumps:
        pts.append(center + scale * _BUMP_OFFSETS)
        pts.append(center - scale * _BUMP_OFFSETS)
    pts.append(np.asarray(density_crossings(target, proposal), dtype=float))
    return np.clip(np.concatenate(pts), lo, hi)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


# the built-in integrands f(g) q, regrouped into log-space-stable terms
_BUILTIN_TERMS = {
    # g log(g) q == p log(g)
    DivergenceKind.KULLBACK_LEIBLER: lambda x, lp, lq, lg: np.exp(lp) * lg,
    # (g - 1)^2 q == g^2 q - 2 p + q
    DivergenceKind.CHI_SQUARED: (
        lambda x, lp, lq, lg: np.exp(2.0 * lg + lq) - 2.0 * np.exp(lp) + np.exp(lq)
    ),
    DivergenceKind.TOTAL_VARIATION: lambda x, lp, lq, lg: 0.5 * np.abs(np.exp(lp) - np.exp(lq)),
    # (sqrt(g) - 1)^2 q == p - 2 sqrt(p q) + q
    DivergenceKind.SQUARED_HELLINGER: (
        lambda x, lp, lq, lg: np.exp(lp) - 2.0 * np.exp(0.5 * lg + lq) + np.exp(lq)
    ),
}


def _generator_terms(f: ConvexGenerator, x, lp, lq, lg) -> np.ndarray:
    """f(g) q evaluated directly, for custom generators; an overflowed ratio
    is a diagnosed-infinite integrand value, also where q underflows to 0."""
    values = _generator_values(f, _exp_ratios(lg))
    return np.multiply(values, np.exp(lq), out=values, where=np.isfinite(values))


def quadrature_divergence(pair: GaussianPair, f: ConvexGenerator) -> DivergenceValue:
    """Numerically integrate f(g(x)) q(x) over the window; the oracle route.

    Returns an infinite DivergenceValue when the integral is diagnosed
    divergent (integrand overflow, or a window edge where the integrand is
    non-negligible and still growing) and raises QuadratureError when the
    adaptive scheme fails its tolerance.
    """
    terms = _BUILTIN_TERMS.get(f.kind) or functools.partial(_generator_terms, f)
    total = pair._integral(terms)
    if math.isinf(total):
        return DivergenceValue(math.inf, "quadrature")
    if total < -1e-8:
        raise QuadratureError(f"integral of a nonnegative divergence came out {total!r}")
    return DivergenceValue(max(total, 0.0), "quadrature")


# Particles a work unit must hold before ``_parallel_map`` gives it a thread:
# smaller units lose more to GIL hand-offs than they gain (break-even ~8-16k)
_PARALLEL_PARTICLES = 1 << 14

def _parallel_map(fn: Callable, items: Iterable, particles: int) -> list:
    """``list(map(fn, items))``, on one thread per CPU when each unit is large.

    ``particles`` is the size of one unit.  Units of at least
    ``_PARALLEL_PARTICLES`` run on a per-call pool of
    min(units, CPUs in the affinity) threads, each in a copy of the caller's
    context, so the caller's ``np.errstate`` holds in them; otherwise, or
    with one CPU, they run in order on the calling thread.  Results come
    back in input order; the first failing unit's exception is raised, and
    units not yet started are dropped.  After a threaded run, glibc's
    ``malloc_trim`` returns the free memory the workers' malloc arenas hold,
    which otherwise stays resident.
    """
    items = list(items)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # a platform without affinity masks
        cpus = os.cpu_count() or 1
    workers = min(len(items), cpus)
    if particles < _PARALLEL_PARTICLES or workers < 2:
        return list(map(fn, items))
    # imported here: small workloads never start a thread
    from concurrent.futures import ThreadPoolExecutor

    contexts = [contextvars.copy_context() for _ in items]
    with ThreadPoolExecutor(workers) as pool:
        results = list(pool.map(lambda context, item: context.run(fn, item), contexts, items))
    _trim_malloc_arenas()
    return results


def _trim_malloc_arenas() -> None:
    """``malloc_trim(0)`` where the C library is glibc; elsewhere nothing."""
    import ctypes

    trim = getattr(ctypes.CDLL(None), "malloc_trim", None) if os.name == "posix" else None
    if trim is not None:
        trim(0)


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
        ratios = pair.ratios(pair.proposal_sampler(n, seq))
        if not ratios.max() < math.inf:
            overflowed += int(np.count_nonzero(np.isinf(ratios)))
        values = _generator_values(f, ratios)
        total += float(values.sum())
        total_sq += float(np.square(values, out=values).sum())
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

    For ``order`` > 1 the criterion is v < order / (order - 1); orders up
    to one are always finite.  At v = order / (order - 1) the integrand
    g^order q is constant, so the moment is infinite.  The chi-squared
    closed form decides finiteness with this at order 2.
    """
    if order <= 0:
        raise ValueError(f"moment order must be positive, got {order!r}")
    if target_variance <= 0:
        raise ValueError(f"variance must be positive, got {target_variance!r}")
    if order <= 1.0:
        return True
    return target_variance < order / (order - 1.0)
