"""Convex generators and f-divergences between discrete weight vectors.

An f-divergence is parametrised by a convex function ``f`` with ``f(1) = 0``.
Between two weight vectors ``p`` and ``q`` (with ``q`` strictly positive) it
is the sum of ``q_i * f(p_i / q_i)``.  The value of ``f`` at zero is stored
explicitly as the limit from the right, so vectors with zero entries never
evaluate expressions like ``0 * log(0)``.

The four classical divergences (Kullback-Leibler, chi-squared, total
variation, squared Hellinger) are provided as module-level generators.
Total variation uses ``f(x) = |x - 1| / 2``, which matches the supremum
characterisation over measurable sets and keeps the distance in ``[0, 1]``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "DivergenceKind",
    "ConvexGenerator",
    "ProbabilityVector",
    "MassVector",
    "DivergenceValue",
    "KULLBACK_LEIBLER",
    "CHI_SQUARED",
    "TOTAL_VARIATION",
    "SQUARED_HELLINGER",
    "BUILTIN_GENERATORS",
    "custom_generator",
    "generator_eval",
    "discrete_divergence",
    "divergence_vs_uniform",
    "InequalityReport",
    "check_divergence_inequalities",
]

VectorLike = Union[Sequence[float], np.ndarray, "ProbabilityVector", "MassVector"]


class DivergenceKind(str, enum.Enum):
    """Identifies which convex generator a value or bound refers to."""

    KULLBACK_LEIBLER = "kl"
    CHI_SQUARED = "chi2"
    TOTAL_VARIATION = "tv"
    SQUARED_HELLINGER = "hellinger"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ConvexGenerator:
    """A convex function f with f(1) = 0 defining an f-divergence.

    ``fn`` must accept nonnegative floats or arrays of them and is only ever
    called on strictly positive arguments; ``value_at_zero`` supplies the
    limit of f at 0+ and is used wherever a ratio is exactly zero.
    """

    kind: DivergenceKind
    fn: Callable[[np.ndarray], np.ndarray]
    value_at_zero: float

    def __call__(self, x):
        """Evaluate f at ``x`` (scalar or array), rejecting invalid inputs."""
        arr = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("generator argument must be finite")
        if np.any(arr < 0):
            raise ValueError("generator argument must be nonnegative")
        out = np.empty_like(arr)
        zero = arr == 0.0
        if zero.any():
            out[zero] = self.value_at_zero
        nonzero = ~zero
        if nonzero.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                out[nonzero] = self.fn(arr[nonzero])
        if arr.ndim == 0:
            return float(out)
        return out


def _kl_fn(x):
    return x * np.log(x)


def _chi2_fn(x):
    return (x - 1.0) ** 2


def _tv_fn(x):
    return np.abs(x - 1.0) / 2.0


def _hellinger2_fn(x):
    return (np.sqrt(x) - 1.0) ** 2


KULLBACK_LEIBLER = ConvexGenerator(DivergenceKind.KULLBACK_LEIBLER, _kl_fn, 0.0)
CHI_SQUARED = ConvexGenerator(DivergenceKind.CHI_SQUARED, _chi2_fn, 1.0)
TOTAL_VARIATION = ConvexGenerator(DivergenceKind.TOTAL_VARIATION, _tv_fn, 0.5)
SQUARED_HELLINGER = ConvexGenerator(DivergenceKind.SQUARED_HELLINGER, _hellinger2_fn, 1.0)

BUILTIN_GENERATORS: dict[DivergenceKind, ConvexGenerator] = {
    g.kind: g
    for g in (KULLBACK_LEIBLER, CHI_SQUARED, TOTAL_VARIATION, SQUARED_HELLINGER)
}


def custom_generator(
    fn: Callable[[np.ndarray], np.ndarray],
    value_at_zero: float,
    check: bool = True,
) -> ConvexGenerator:
    """Wrap a user-supplied convex function as a generator.

    When ``check`` is true, verifies f(1) = 0 and midpoint convexity on a
    sampled grid over (0, 1e3].  Convexity is checked, not proven.
    """
    gen = ConvexGenerator(DivergenceKind.CUSTOM, fn, float(value_at_zero))
    if check:
        if abs(float(fn(np.asarray(1.0)))) > 1e-12:
            raise ValueError("custom generator must satisfy f(1) = 0")
        grid = np.geomspace(1e-6, 1e3, 64)
        a, b = np.meshgrid(grid, grid)
        fa, fb = gen(a.ravel()), gen(b.ravel())
        fm = gen((a.ravel() + b.ravel()) / 2.0)
        if np.any(fm > (fa + fb) / 2.0 + 1e-12):
            raise ValueError("custom generator failed the midpoint convexity check")
    return gen


def generator_eval(f: ConvexGenerator, x: float) -> float:
    """Evaluate f at a single nonnegative point; x = 0 returns the 0+ limit."""
    if not math.isfinite(x):
        raise ValueError(f"generator argument must be finite, got {x!r}")
    if x < 0:
        raise ValueError(f"generator argument must be nonnegative, got {x!r}")
    return float(f(x))


def _as_array(entries: VectorLike) -> np.ndarray:
    if isinstance(entries, (ProbabilityVector, MassVector)):
        return entries.entries
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 1:
        raise ValueError("weight vectors must be one-dimensional")
    return arr


@dataclass(frozen=True)
class ProbabilityVector:
    """Nonnegative entries summing to one (within 1e-12)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(_as_array(self.entries), dtype=float, copy=True)
        if arr.size == 0:
            raise ValueError("probability vector must be nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probability vector entries must be finite")
        if np.any(arr < 0):
            raise ValueError("probability vector entries must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probability vector must sum to one, got {total!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __len__(self) -> int:
        return int(self.entries.size)

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityVector":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def vertex(cls, n: int, index: int) -> "ProbabilityVector":
        entries = np.zeros(n)
        entries[index] = 1.0
        return cls(entries)


@dataclass(frozen=True)
class MassVector:
    """Nonnegative entries with arbitrary total mass (need not be one)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(_as_array(self.entries), dtype=float, copy=True)
        if arr.size == 0:
            raise ValueError("mass vector must be nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("mass vector entries must be finite")
        if np.any(arr < 0):
            raise ValueError("mass vector entries must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __len__(self) -> int:
        return int(self.entries.size)

    @property
    def total_mass(self) -> float:
        return float(self.entries.sum())


_METHODS = ("closed_form", "quadrature", "monte_carlo")


@dataclass(frozen=True)
class DivergenceValue:
    """A computed divergence with provenance.

    ``value`` is a nonnegative extended real (+inf is legal, e.g. the
    chi-squared divergence of a heavy-tailed target).  ``std_error`` is
    present exactly when the value is a Monte Carlo estimate; such estimates
    may dip slightly below zero through sampling noise, all other methods
    must be nonnegative.
    """

    value: float
    method: str
    std_error: float | None = None
    sample_count: int | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {_METHODS}")
        if math.isnan(self.value):
            raise ValueError("divergence value must not be NaN")
        if self.method != "monte_carlo" and self.value < 0:
            raise ValueError(f"divergence value must be nonnegative, got {self.value!r}")
        if self.method == "monte_carlo":
            if self.std_error is None:
                raise ValueError("monte_carlo values must carry a std_error")
            if math.isnan(self.std_error) or self.std_error < 0:
                raise ValueError("std_error must be nonnegative")
        elif self.std_error is not None:
            raise ValueError("std_error is only meaningful for monte_carlo values")

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    def __float__(self) -> float:
        return float(self.value)


def discrete_divergence(p: VectorLike, q: VectorLike, f: ConvexGenerator) -> float:
    """Sum of q_i * f(p_i / q_i).

    ``q`` must be strictly positive; ``p`` may have arbitrary nonnegative
    total mass, in which case the result can be negative.
    """
    p_arr = _as_array(p)
    q_arr = _as_array(q)
    if p_arr.size != q_arr.size:
        raise ValueError(
            f"mismatched vector lengths: {p_arr.size} vs {q_arr.size}"
        )
    if np.any(q_arr <= 0):
        raise ValueError("second argument must be strictly positive everywhere")
    return float(np.sum(q_arr * f(p_arr / q_arr)))


def divergence_vs_uniform(p: VectorLike, f: ConvexGenerator) -> float:
    """Divergence of ``p`` against the uniform vector of matching length."""
    p_arr = _as_array(p)
    if p_arr.size == 0:
        raise ValueError("weight vector must be nonempty")
    uniform = np.full(p_arr.size, 1.0 / p_arr.size)
    return discrete_divergence(p_arr, uniform, f)


class InequalityReport(NamedTuple):
    kl_bounded_by_chi2: bool
    tv_bounded_by_chi2: bool
    hellinger_bounded_by_chi2: bool


def check_divergence_inequalities(
    d_kl, d_chi2, d_tv, d_hell2, tol: float = 1e-9
) -> InequalityReport:
    """Check KL <= log(1 + chi2), TV <= sqrt(chi2)/2 and Hell <= sqrt(chi2).

    All four inputs must be divergences of the same ordered pair; ``d_hell2``
    is the squared Hellinger distance.  An infinite chi-squared makes every
    bound vacuously true.
    """
    kl, chi2, tv, hell2 = (float(d) for d in (d_kl, d_chi2, d_tv, d_hell2))
    for name, value in (("kl", kl), ("chi2", chi2), ("tv", tv), ("hell2", hell2)):
        if math.isnan(value) or value < 0:
            raise ValueError(f"divergence {name} must be nonnegative, got {value!r}")
    if math.isinf(chi2):
        return InequalityReport(True, True, True)
    return InequalityReport(
        kl <= math.log1p(chi2) + tol,
        tv <= math.sqrt(chi2) / 2.0 + tol,
        math.sqrt(hell2) <= math.sqrt(chi2) + tol,
    )
