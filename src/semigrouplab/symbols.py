"""Symbol sequences a_n(xi) with their declared bound on Re a_n, and the moderateness fit.

Symbols are frequency-side scalar fields; each one defines a multiplier operator through
the `semigroup` module.  Built-in families cover the constant-coefficient operators
c_0 + c_1 d/dx_1 + c_2 Laplacian on R^d, the purely imaginary fractional family
i c_n |xi|^m, and xi-constant families c(n), such as the bounded perturbations b_n.  On
L^2 a multiplier generates exactly when sup Re a_n is finite, so that bound, ``re_bound``,
is the one hypothesis a family declares; non-finite symbol values raise.

Moderate sequences are the base notion of the theory, so their log-log fit
over n (:func:`fit_moderate`, :func:`is_moderate_fit`) lives here, below
every module that fits over n; ``MIN_FIT_INDICES`` is the one place the
minimum index count of a fit is set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Tuple

import numpy as np

from .errors import (HypothesisViolationError, InsufficientDataError, SymbolEvaluationError,
                     UnsupportedFamilyError)
from .spectral import TWO_PI, Grid

# probe indices used when inferring family-wide constants from a rule
_PROBE_INDICES = tuple(range(1, 129))

#: fewest indices a fit or limit over n is made from
MIN_FIT_INDICES = 4
#: stand-in for a zero value on the log scale of a fit
NORM_FLOOR = 1e-300


@dataclass(frozen=True)
class ModerateSeq:
    """Least-squares log-log fit of a positive sequence over its indices."""

    indices: tuple
    values: tuple
    slope: float
    constant: float
    r_squared: float
    floored: bool = False


def fit_moderate(norms: Mapping[int, float]) -> ModerateSeq:
    """Fit ||x_n|| ~ C n^a by least squares in log-log coordinates.

    Requires at least ``MIN_FIT_INDICES`` indices; zero values are replaced
    by ``NORM_FLOOR`` and flagged.  A sequence whose logs spread by at most
    8 eps is a constant up to round-off and fits exactly: slope 0 and R^2 = 1.
    """
    if len(norms) < MIN_FIT_INDICES:
        raise InsufficientDataError(
            f"need >= {MIN_FIT_INDICES} indices for a fit, got {len(norms)}")
    ns = sorted(norms)
    vals = np.array([float(norms[n]) for n in ns], dtype=float)
    if np.any(vals < 0):
        raise ValueError("norms must be nonnegative")
    floored = bool(np.any(vals == 0))
    vals = np.maximum(vals, NORM_FLOOR)
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(vals)
    constant = np.ptp(y) <= 8 * np.finfo(float).eps  # a constant up to round-off
    if constant:
        y = np.full_like(y, y[0])
    xm, ym = x.mean(), (y[0] if constant else y.mean())
    var = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / var)
    intercept = ym - slope * xm
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ModerateSeq(indices=tuple(ns), values=tuple(float(v) for v in vals),
                       slope=slope, constant=float(math.exp(intercept)),
                       r_squared=r2, floored=floored)


def is_moderate_fit(fit: ModerateSeq) -> bool:
    """Heuristic moderateness flag.

    Non-moderate when the exponent is above 50, or when the log-log profile bends up:
    the last local slope exceeds 2 max(first local slope, 0) + 1, as for e^n on any four
    doubling indices.  A power law has equal local slopes, a decreasing sequence negative ones.
    """
    first, last = [(math.log(fit.values[i + 1]) - math.log(fit.values[i]))
                   / (math.log(fit.indices[i + 1]) - math.log(fit.indices[i])) for i in (0, -2)]
    return fit.slope <= 50.0 and last <= 2.0 * max(first, 0.0) + 1.0


@dataclass(frozen=True)
class SymbolSeq:
    """An indexed family n -> a_n(xi) of frequency symbols.

    ``eval`` receives the index n and an array of frequency vectors with a
    trailing axis of length the grid dimension and returns complex values of
    the leading shape.  ``re_bound`` is the uniform upper bound on Re a_n used
    by growth certificates (the spectral abscissa surrogate).
    """

    eval: Callable[[int, np.ndarray], np.ndarray]
    re_bound: float
    name: str = ""

    def __call__(self, n: int, xi_vectors: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.eval(n, xi_vectors), dtype=complex)
        if not np.all(np.isfinite(vals)):
            where = (f", xi={xi_vectors[tuple(np.argwhere(~np.isfinite(vals))[0])]}"
                     if vals.shape == xi_vectors.shape[:-1] else "")
            raise SymbolEvaluationError(f"symbol '{self.name}' is non-finite at n={n}{where}")
        return vals

    def on_grid(self, n: int, grid: Grid) -> np.ndarray:
        """Symbol values at the grid frequencies, FFT layout, in the shape ``eval`` gives; it must
        broadcast against ``grid.shape`` and is not expanded, so a xi-constant family stays 0-d."""
        vals = self(n, grid.frequency_vectors())
        if vals.shape != grid.shape and (vals.ndim > grid.dimension or any(
                v not in (1, g) for v, g in zip(vals.shape[::-1], grid.shape[::-1]))):
            raise ValueError(f"{self.name} values of shape {vals.shape} do not broadcast "
                             f"against grid shape {grid.shape}")
        return vals


def poly_coeffs(coeffs: Sequence[complex]) -> Tuple[complex, complex, complex]:
    """Coefficients c_0, c_1, c_2 of a degree <= 2 operator, zero-padded to three.

    The operator is c_0 + c_1 d/dx_1 + c_2 Laplacian, with symbol
    c_0 + c_1 (2 pi i xi_1) + c_2 sum_j (2 pi i xi_j)^2; more than three
    coefficients raise ``UnsupportedFamilyError``.
    """
    c = tuple(complex(v) for v in coeffs)
    if len(c) > 3:
        raise UnsupportedFamilyError(
            f"polynomial families support degree <= 2, got {len(c) - 1}")
    return c + (0j,) * (3 - len(c))


def poly_sup_re(coeffs: Sequence[complex]) -> float:
    """Closed-form sup over xi of the real part of the :func:`poly_coeffs` symbol.

    With c_j = alpha_j + i beta_j and eta = 2 pi xi the real part is
    alpha_0 - beta_1 eta_1 - alpha_2 |eta|^2, maximized at eta_1 = -beta_1 /
    (2 alpha_2) and eta_j = 0 for j >= 2 when alpha_2 > 0; unbounded when
    alpha_2 < 0, or when alpha_2 = 0 with beta_1 != 0.
    """
    c0, c1, c2 = poly_coeffs(coeffs)
    a0, b1, a2 = c0.real, c1.imag, c2.real
    if a2 > 0:
        return a0 + b1 * b1 / (4.0 * a2)
    if a2 == 0 and b1 == 0:
        return a0
    return math.inf


def make_poly_symbol_seq(rule: Callable[[int], Sequence[complex]],
                         name: str = "poly") -> SymbolSeq:
    """Symbol family of the operator sequence c_0(n) + c_1(n) d/dx_1 + c_2(n) Laplacian.

    ``rule(n)`` returns up to three coefficients (see :func:`poly_coeffs`); with
    z = 2 pi i xi, eval(n, xi) = c_0 + c_1 z_1 + sum_j c_2 z_j z_j, the heat generator
    (4 pi^2)^-1 Laplacian has symbol -|xi|^2, and the sum starts at its j = 1 term, so on
    a line the symbol is c_0 + c_1 z + c_2 z z bit for bit.
    """
    def coeffs(n: int) -> Tuple[complex, complex, complex]:
        return poly_coeffs(rule(n))

    bound = max(poly_sup_re(coeffs(n)) for n in _PROBE_INDICES)

    def _eval(n: int, xi_vectors: np.ndarray) -> np.ndarray:
        c0, c1, c2 = coeffs(n)
        z = TWO_PI * 1j * xi_vectors
        squares = [c2 * z[..., j] * z[..., j] for j in range(z.shape[-1])]
        return c0 + c1 * z[..., 0] + sum(squares[1:], squares[0])

    return SymbolSeq(eval=_eval, re_bound=bound, name=name)


def make_fractional_symbol_seq(c: Callable[[int], float], m: float,
                               bound: float) -> SymbolSeq:
    """Purely imaginary family a_n(xi) = i c_n |xi|^m.

    The coefficient sequence must be uniformly bounded by ``bound``, which
    is checked on probe indices.  Re a_n = 0 exactly, so ``re_bound`` is 0.
    """
    worst = max(abs(float(c(n))) for n in _PROBE_INDICES)
    if worst > bound * (1 + 1e-12):
        raise HypothesisViolationError(
            f"|c_n| = {worst} exceeds declared bound {bound} on sampled n")

    def _eval(n: int, xi_vectors: np.ndarray) -> np.ndarray:
        mag = np.sqrt(np.sum(xi_vectors * xi_vectors, axis=-1))
        return 1j * float(c(n)) * mag ** m

    return SymbolSeq(eval=_eval, re_bound=0.0, name="fractional")


def summed_symbol_seq(s: SymbolSeq, B: SymbolSeq) -> SymbolSeq:
    """The family a_n + b_n, the one sum of two families (a perturbed generator, say)."""
    def _eval(n: int, xi_vectors: np.ndarray) -> np.ndarray:
        return s.eval(n, xi_vectors) + B(n, xi_vectors)

    return SymbolSeq(eval=_eval, re_bound=s.re_bound + B.re_bound, name=f"{s.name}+{B.name}")


def constant_symbol_seq(c: Callable[[int], complex], name: str) -> SymbolSeq:
    """The xi-constant family a_n = c(n), 0-d; ``re_bound`` is max Re c(n) on the probe indices."""
    bound = max(complex(c(n)).real for n in _PROBE_INDICES)
    return SymbolSeq(eval=lambda n, xi_vectors: np.asarray(c(n), dtype=complex),
                     re_bound=bound, name=name)


def heat_symbol_seq() -> SymbolSeq:
    """The stationary heat family a_n(xi) = -|xi|^2 (generator (4pi^2)^-1 Laplacian)."""
    return make_poly_symbol_seq(lambda n: (0.0, 0.0, 1.0 / (4 * np.pi**2)), name="heat")


def perturbed_heat_seq(base_coeffs: Sequence[complex] = (0.0, 0.0, 1.0 / (4 * np.pi**2)),
                       name: str = "heat+1/n") -> SymbolSeq:
    """The coefficient drift P_n(D): ``base_coeffs`` with c_0 + 1/n and c_2 + 1/n."""
    c0, c1, c2 = poly_coeffs(base_coeffs)
    return make_poly_symbol_seq(lambda n: (c0 + 1.0 / n, c1, c2 + 1.0 / n), name=name)
