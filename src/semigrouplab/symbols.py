"""Symbol sequences a_n(xi), the moderateness fit, and checks of their hypotheses.

Symbols are frequency-side scalar fields; each one defines a multiplier
operator through the `semigroup` module.  Built-in families cover constant-
coefficient differential operators of degree <= 2 in one dimension and the
purely imaginary fractional family i c_n |xi|^m.  All hypothesis checks are
report-generating: they compute grid extrema and growth fits but never fail
a run, except on non-finite symbol values.

Moderate sequences are the base notion of the theory, so their log-log fit
over n (:func:`fit_moderate`, :func:`is_moderate_fit`) lives here, below
every module that fits over n; ``MIN_FIT_INDICES`` is the one place the
minimum index count of a fit is set.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple

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
    by ``NORM_FLOOR`` and flagged.
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
    xm, ym = x.mean(), y.mean()
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

    Non-moderate when the exponent is above 50, or when the sequence grows with
    a poor, upward-curving power-law fit (the signature of faster-than-
    polynomial growth on a finite index range).  Decreasing sequences are
    always moderate.
    """
    if fit.slope > 50.0:
        return False
    if fit.slope > 0 and fit.r_squared < 0.9:
        y = np.log(np.asarray(fit.values))
        if len(y) >= 3 and float(np.mean(np.diff(y, 2))) > 0:
            return False
    return True


@dataclass(frozen=True)
class SymbolSeq:
    """An indexed family n -> a_n(xi) of frequency symbols.

    ``eval`` receives the index n and an array of frequency vectors with a
    trailing axis of length ``dimension_d`` and returns complex values of the
    leading shape.  ``re_bound`` is the uniform upper bound on Re a_n used by
    growth certificates (the spectral abscissa surrogate); it is kept separate
    from the symbol order ``order_m``.  Polynomial families also carry
    ``poly_coeffs(n)``, the padded coefficients c_0, c_1, c_2 of index n.
    """

    eval: Callable[[int, np.ndarray], np.ndarray]
    order_m: float
    ellipticity_r: float
    cutoff_L: float
    dimension_d: int
    re_bound: float
    name: str = ""
    poly_coeffs: Optional[Callable[[int], Tuple[complex, complex, complex]]] = None

    def __call__(self, n: int, xi_vectors: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.eval(n, xi_vectors), dtype=complex)
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))
            where = xi_vectors[tuple(bad[0])] if bad.size else "?"
            raise SymbolEvaluationError(
                f"symbol '{self.name}' is non-finite at n={n}, xi={where}")
        return vals

    def on_grid(self, n: int, grid: Grid) -> np.ndarray:
        """Symbol values at the grid frequencies, FFT layout."""
        return self(n, grid.frequency_vectors())


def poly_coeffs(coeffs: Sequence[complex]) -> Tuple[complex, complex, complex]:
    """Coefficients c_0, c_1, c_2 of a degree <= 2 operator, zero-padded to three.

    The operator is c_0 + c_1 d/dx + c_2 (d/dx)^2 and its symbol is
    sum_j c_j (2 pi i xi)^j; more than three coefficients raise
    ``UnsupportedFamilyError``.
    """
    c = tuple(complex(v) for v in coeffs)
    if len(c) > 3:
        raise UnsupportedFamilyError(
            f"polynomial families support degree <= 2, got {len(c) - 1}")
    return c + (0j,) * (3 - len(c))


@dataclass
class SymbolCheckReport:
    """Grid extrema and fits collected by the symbol hypothesis checks.

    Every stored constant is the exact extremum over the sampled grid, so
    reports are reproducible given the same grid.
    """

    name: str = ""
    grid_note: str = ""
    # |D^alpha a_n| / <xi>^(m-|alpha|) maxima, keyed (n, alpha)
    derivative_constants: dict = field(default_factory=dict)
    # per-n max over alpha of the above (the symbol-class constant C_n)
    class_constants: dict = field(default_factory=dict)
    class_fit: Optional[object] = None
    non_moderate: bool = False
    # ellipticity: per-n min over |xi|>L of |a_n|/|xi|^r, and sup 1/C_n
    ellipticity_constants: dict = field(default_factory=dict)
    c0_estimate: Optional[float] = None
    c0_ok: Optional[bool] = None
    # sup Re a_n over the grid and comparison with the declared bound
    sup_re: dict = field(default_factory=dict)
    re_bound_ok: dict = field(default_factory=dict)
    # closed-form growth abscissas for polynomial families
    omega: dict = field(default_factory=dict)
    p_condition: Optional[bool] = None


def poly_sup_re(coeffs: Sequence[complex]) -> float:
    """Closed-form sup over xi of Re(sum_j c_j (2 pi i xi)^j).

    With c_j = alpha_j + i beta_j and eta = 2 pi xi the real part is
    alpha_0 - beta_1 eta - alpha_2 eta^2, maximized at eta = -beta_1 /
    (2 alpha_2) when alpha_2 > 0; unbounded when alpha_2 < 0, or when
    alpha_2 = 0 with beta_1 != 0.
    """
    c0, c1, c2 = poly_coeffs(coeffs)
    a0, b1, a2 = c0.real, c1.imag, c2.real
    if a2 > 0:
        return a0 + b1 * b1 / (4.0 * a2)
    if a2 == 0 and b1 == 0:
        return a0
    return math.inf


def poly_omega(coeffs: Sequence[complex]) -> float:
    """max(0, sup Re) of a polynomial symbol; the per-index growth abscissa."""
    return max(0.0, poly_sup_re(coeffs))


def make_poly_symbol_seq(rule: Callable[[int], Sequence[complex]],
                         name: str = "poly") -> SymbolSeq:
    """Symbol family of a degree <= 2 differential operator sequence (d=1).

    ``rule(n)`` returns up to three coefficients c_0, c_1, c_2 (see
    :func:`poly_coeffs`), and eval(n, xi) = sum_j c_j(n) (2 pi i xi)^j with the
    fixed transform convention, so the heat generator (4 pi^2)^-1 (d/dx)^2 has
    symbol -xi^2.
    """
    def coeffs(n: int) -> Tuple[complex, complex, complex]:
        return poly_coeffs(rule(n))

    bound = max(poly_sup_re(coeffs(n)) for n in _PROBE_INDICES)

    def _eval(n: int, xi_vectors: np.ndarray) -> np.ndarray:
        c0, c1, c2 = coeffs(n)
        z = TWO_PI * 1j * xi_vectors[..., 0]
        return c0 + c1 * z + c2 * z * z

    # order/ellipticity exponent: the polynomial degree over the probe set
    deg = max((j for n in _PROBE_INDICES[:8] for j, c in enumerate(coeffs(n)) if abs(c) > 0),
              default=0)
    return SymbolSeq(
        eval=_eval,
        order_m=float(deg),
        ellipticity_r=float(deg),
        cutoff_L=1.0,
        dimension_d=1,
        re_bound=bound,
        name=name,
        poly_coeffs=coeffs,
    )


def make_fractional_symbol_seq(c: Callable[[int], float], m: float, d: int,
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

    return SymbolSeq(
        eval=_eval,
        order_m=float(m),
        ellipticity_r=float(m),
        cutoff_L=1.0,
        dimension_d=d,
        re_bound=0.0,
        name="fractional",
    )


def shifted_symbol_seq(s: SymbolSeq, shift: Callable[[int, np.ndarray], np.ndarray],
                       name: str = "", re_bound_shift: float = 0.0) -> SymbolSeq:
    """A family a_n + delta_n built from ``s`` and a shift field."""
    def _eval(n: int, xi_vectors: np.ndarray) -> np.ndarray:
        return s.eval(n, xi_vectors) + shift(n, xi_vectors)

    return SymbolSeq(
        eval=_eval,
        order_m=s.order_m,
        ellipticity_r=s.ellipticity_r,
        cutoff_L=s.cutoff_L,
        dimension_d=s.dimension_d,
        re_bound=s.re_bound + re_bound_shift,
        name=name or (s.name + "+shift"),
    )


def _multi_indices(d: int, max_order: int):
    """Multi-indices of length d and total order <= max_order, by total order.

    Within one order the first entry decreases: (1, 0) before (0, 1).
    """
    descending = itertools.product(range(max_order, -1, -1), repeat=d)
    return sorted((alpha for alpha in descending if sum(alpha) <= max_order), key=sum)


def _fd_derivative(s: SymbolSeq, n: int, pts: np.ndarray, alpha: tuple, h: float) -> np.ndarray:
    """Central finite-difference D^alpha a_n at the points ``pts``."""
    order = sum(alpha)
    if order == 0:
        return s(n, pts)

    def shift(delta):
        return pts + np.asarray(delta, dtype=float)

    d = len(alpha)
    if order == 1:
        axis = alpha.index(1)
        e = np.zeros(d); e[axis] = h
        return (s(n, shift(e)) - s(n, shift(-e))) / (2 * h)
    # order 2: pure or mixed
    if 2 in alpha:
        axis = alpha.index(2)
        e = np.zeros(d); e[axis] = h
        return (s(n, shift(e)) - 2 * s(n, pts) + s(n, shift(-e))) / (h * h)
    ex = np.zeros(d); ex[0] = h
    ey = np.zeros(d); ey[1] = h
    return (s(n, shift(ex + ey)) - s(n, shift(ex - ey))
            - s(n, shift(-ex + ey)) + s(n, shift(-ex - ey))) / (4 * h * h)


def check_symbol_class(s: SymbolSeq, n_list: Sequence[int], grid: Grid,
                       max_order: int = 2) -> SymbolCheckReport:
    """Grid maxima of |D^alpha a_n| / <xi>^(m-|alpha|) for |alpha| <= max_order.

    Derivatives are central finite differences with step equal to the
    frequency-grid spacing.  The per-n constants are fitted in log-log over n
    and the family is flagged non-moderate when the fit degenerates.
    """
    if max_order > 2:
        raise ValueError("finite-difference derivatives beyond order 2 are not attempted")
    pts = grid.frequency_vectors()
    bracket = np.sqrt(1.0 + np.sum(pts * pts, axis=-1))
    h = grid.freq_spacing
    report = SymbolCheckReport(name=s.name, grid_note=f"d={grid.dimension} N={grid.points}")
    for n in n_list:
        worst = 0.0
        for alpha in _multi_indices(s.dimension_d, max_order):
            ratio = np.abs(_fd_derivative(s, n, pts, alpha, h)) / bracket ** (s.order_m - sum(alpha))
            c = float(np.max(ratio))
            report.derivative_constants[(n, alpha)] = c
            worst = max(worst, c)
        report.class_constants[n] = worst
    if len(n_list) >= MIN_FIT_INDICES:
        report.class_fit = fit_moderate({n: report.class_constants[n] for n in n_list})
        report.non_moderate = not is_moderate_fit(report.class_fit)
    return report


def check_A1_A3(s: SymbolSeq, n_list: Sequence[int], grid: Grid) -> SymbolCheckReport:
    """Ellipticity constants beyond the cutoff and grid suprema of Re a_n.

    Per n this reports C_n = min over |xi| > L of |a_n(xi)| / |xi|^r and the
    grid supremum of Re a_n compared against the declared bound.  For
    polynomial families the closed-form growth abscissa is attached as well.
    """
    pts = grid.frequency_vectors()
    mag = np.sqrt(np.sum(pts * pts, axis=-1))
    outside = mag > s.cutoff_L
    report = SymbolCheckReport(name=s.name, grid_note=f"d={grid.dimension} N={grid.points}")
    if not np.any(outside):
        raise ValueError(f"grid has no frequencies beyond cutoff L={s.cutoff_L}")
    for n in n_list:
        vals = s(n, pts)
        ratios = np.abs(vals[outside]) / mag[outside] ** s.ellipticity_r
        report.ellipticity_constants[n] = float(np.min(ratios))
        sup_re = float(np.max(vals.real))
        report.sup_re[n] = sup_re
        report.re_bound_ok[n] = sup_re <= s.re_bound + 1e-12
        if s.poly_coeffs is not None:
            report.omega[n] = poly_omega(s.poly_coeffs(n))
        else:
            report.omega[n] = max(0.0, sup_re)
    cs = [report.ellipticity_constants[n] for n in n_list]
    if min(cs) > 0:
        report.c0_estimate = 1.0 / min(cs)
        report.c0_ok = True
    else:
        report.c0_estimate = math.inf
        report.c0_ok = False
    return report


def check_p_condition(p: float, r: float, m: float, d: int) -> bool:
    """Lebesgue-exponent admissibility: |1/2 - 1/p| < r / (m d)."""
    if m * d == 0:
        raise ZeroDivisionError("p-condition needs m * d != 0")
    if not 1.0 < p < math.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")
    return abs(0.5 - 1.0 / p) < r / (m * d)


def heat_symbol_seq() -> SymbolSeq:
    """The stationary heat family a_n(xi) = -xi^2 (generator (4pi^2)^-1 d^2/dx^2)."""
    return make_poly_symbol_seq(lambda n: (0.0, 0.0, 1.0 / (4 * np.pi**2)), name="heat")


def perturbed_heat_seq(base_coeffs: Sequence[complex] = (0.0, 0.0, 1.0 / (4 * np.pi**2)),
                       name: str = "heat+1/n") -> SymbolSeq:
    """The coefficient drift P_n(D): ``base_coeffs`` with c_0 + 1/n and c_2 + 1/n."""
    c0, c1, c2 = poly_coeffs(base_coeffs)
    return make_poly_symbol_seq(lambda n: (c0 + 1.0 / n, c1, c2 + 1.0 / n), name=name)
