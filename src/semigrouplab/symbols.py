"""Symbol families a_n(xi) = p(xi) + r(n) q(xi) as values, and the moderateness fit.

Symbols are frequency-side scalar fields; each one defines a multiplier operator through
the `semigroup` module, so a family is its symbol: :class:`SymbolSeq` holds the data that
fix a_n and nothing else, and equal symbols are one value.  On L^2 a multiplier generates
exactly when sup Re a_n is finite, so that bound, ``re_bound``, is the one hypothesis of a
family, formed in closed form.  Non-finite symbol values raise.

Moderate sequences are the base notion of the theory, so their log-log fit
over n lives here, below every module that fits over n: one row kernel,
:func:`fit_moderate_rows`, fits every row of a (rows x indices) norm matrix
in one numpy pass, :func:`fit_moderate` is its one-row case and
:func:`is_moderate_fit` reads a fit; ``MIN_FIT_INDICES`` is the one place
the minimum index count of a fit is set.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from .errors import (HypothesisViolationError, InsufficientDataError, SymbolEvaluationError,
                     UnsupportedFamilyError)
from .spectral import TWO_PI, Grid

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


def fit_moderate_rows(indices: Sequence[int], rows) -> List[ModerateSeq]:
    """Fit ||x_n|| ~ C n^a by least squares in log-log coordinates, one fit per row of the
    (rows x indices) matrix ``rows``, all rows in one numpy pass.

    Requires at least ``MIN_FIT_INDICES`` distinct indices, in any order; zero values are
    replaced by ``NORM_FLOOR`` and flagged.  A row whose logs spread by at most 8 eps is a
    constant up to round-off and fits exactly: slope 0 and R^2 = 1.  Each row is reduced
    along the last axis of a C-ordered block and its constant C formed by ``math.exp``
    (``np.exp`` may differ in the last bit), so a row fits bitwise as it would alone.
    """
    if len(indices) < MIN_FIT_INDICES:
        raise InsufficientDataError(
            f"need >= {MIN_FIT_INDICES} indices for a fit, got {len(indices)}")
    if len(set(indices)) < len(indices):
        raise ValueError(f"indices must be distinct, got {list(indices)}")
    order = sorted(range(len(indices)), key=indices.__getitem__)
    ns = tuple(indices[i] for i in order)
    vals = np.array(rows, dtype=float).reshape(len(rows), len(indices))
    vals = np.take(vals, order, axis=-1)  # C order, so each row sums as it would alone
    if (vals < 0).any():
        raise ValueError("norms must be nonnegative")
    floored = (vals == 0).any(axis=-1)
    vals = np.maximum(vals, NORM_FLOOR)
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(vals)
    xm, ym = x.mean(), y.mean(axis=-1)
    constant = y.max(axis=-1) - y.min(axis=-1) <= 8 * np.finfo(float).eps  # up to round-off
    if constant.any():
        ym[constant] = y[constant, 0]
        y[constant] = ym[constant, None]
    var = float(((x - xm) ** 2).sum())
    slope = ((x - xm) * (y - ym[:, None])).sum(axis=-1) / var
    intercept = ym - slope * xm
    ss_res = ((y - (slope[:, None] * x + intercept[:, None])) ** 2).sum(axis=-1)
    ss_tot = ((y - ym[:, None]) ** 2).sum(axis=-1)
    return [ModerateSeq(indices=ns, values=tuple(row), slope=m, constant=math.exp(c),
                        r_squared=1.0 if t == 0 else 1.0 - r / t, floored=f)
            for row, m, c, r, t, f in zip(vals.tolist(), slope.tolist(), intercept.tolist(),
                                          ss_res.tolist(), ss_tot.tolist(), floored.tolist())]


def fit_moderate(norms: Mapping[int, float]) -> ModerateSeq:
    """The :func:`fit_moderate_rows` fit of one sequence, given as {n: ||x_n||}."""
    return fit_moderate_rows(list(norms), [list(norms.values())])[0]


def is_moderate_fit(fit: ModerateSeq) -> bool:
    """Heuristic moderateness flag.

    Non-moderate when the exponent is above 50, or when the log-log profile bends up:
    the last local slope exceeds 2 max(first local slope, 0) + 1, as for e^n on any four
    doubling indices.  A power law has equal local slopes, a decreasing sequence negative ones.
    """
    first, last = [(math.log(fit.values[i + 1]) - math.log(fit.values[i]))
                   / (math.log(fit.indices[i + 1]) - math.log(fit.indices[i])) for i in (0, -2)]
    return fit.slope <= 50.0 and last <= 2.0 * max(first, 0.0) + 1.0


#: the rates r(n) = limit + 1 / scale(n) by name, as (limit, scale).  Each scale is nondecreasing
#: on n >= 1 and unbounded or infinite, so r is monotone from n_min on once scale(n_min) > 0
RATES = {
    "zero": (0.0, lambda n: math.inf),
    "constant": (1.0, lambda n: math.inf),
    "inverse": (0.0, float),
    "one-plus-inverse": (1.0, float),
    "inverse-sqrt": (0.0, math.sqrt),
    "inverse-square": (0.0, lambda n: n * n),
    "inverse-log": (0.0, math.log),
}


@dataclass(frozen=True, eq=False)
class SymbolSeq:
    """The family a_n(xi) = p(xi) + r(n) q(xi), n >= ``n_min``, as a value.

    Each shape forms the coefficients c = p + r(n) q first (a zero r q_j leaves p_j as it
    is): ``poly`` is c_0 + c_1 z_1 + sum_j c_2 z_j z_j with z = 2 pi i xi, ``constant``
    the 0-d c_0, ``fractional`` i r(n) |xi|^m and ``gaussian`` r(n) e^(-|xi|^2); ``sum``
    adds its two ``parts``, and ``scaled`` is a + (factor - 1) a for a = ``parts[0]``.
    ``rate`` names r in :data:`RATES`.  The fields are exactly the data that fix a_n, with
    no label: families compare and hash by repr, which tells -0.0 from 0.0, so equal
    families give bitwise-equal values and a run evaluates each once.
    """

    shape: str
    p: tuple = ()
    q: tuple = ()
    rate: str = "zero"
    n_min: int = 1
    m: float = 0.0
    parts: tuple = ()
    factor: float = 1.0

    def __post_init__(self):
        if self.rate not in RATES or self.n_min < 1 or not RATES[self.rate][1](self.n_min) > 0:
            raise HypothesisViolationError(f"{self.shape} family: rate '{self.rate}' is not "
                                           f"defined and monotone on n >= {self.n_min}")
        object.__setattr__(self, "_repr", repr(self))  # formed once: families are dict keys

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolSeq) and self._repr == other._repr

    def __hash__(self) -> int:
        return hash(self._repr)

    def __str__(self) -> str:
        """A family in messages: its shape and rate, or a sum's or scaling's parts."""
        if self.parts:
            return f"{self.shape} of ({', '.join(map(str, self.parts))})"
        return f"{self.shape} family (rate {self.rate})"

    def _coeffs(self, r: float) -> tuple:
        return tuple(pj + r * qj if r * qj else pj
                     for pj, qj in itertools.zip_longest(self.p, self.q, fillvalue=0.0))

    def eval(self, n: int, xi_vectors: np.ndarray) -> np.ndarray:
        """a_n at frequency vectors (a trailing axis of the grid dimension), in their leading
        shape or 0-d."""
        if self.shape == "sum":
            return self.parts[0].eval(n, xi_vectors) + self.parts[1](n, xi_vectors)
        if self.shape == "scaled":
            a = self.parts[0].eval(n, xi_vectors)
            return a + (self.factor - 1.0) * a
        limit, scale = RATES[self.rate]
        c = self._coeffs(r := limit + 1.0 / scale(n))
        if self.shape == "constant":
            return np.asarray(c[0], dtype=complex)
        if self.shape == "poly":
            z = TWO_PI * 1j * xi_vectors
            terms = [c[2] * z[..., j] * z[..., j] for j in range(z.shape[-1])]
            return c[0] + c[1] * z[..., 0] + sum(terms[1:], terms[0])
        squares = np.sum(xi_vectors * xi_vectors, axis=-1)
        if self.shape == "fractional":
            return 1j * r * np.sqrt(squares) ** self.m
        bump = np.exp(-squares)  # gaussian, its 1/scale(n) part as a division
        return bump / scale(n) + limit * bump if limit else bump / scale(n)

    def _sup_re(self, factor: float) -> float:
        """sup over n >= n_min and xi of Re(factor a_n): g(r) = sup_xi Re(factor (p + r q))
        is convex in r, a sup of affine maps, so over a monotone r it is the larger of
        g(r(n_min)) and g(r_inf).  A sum adds its parts' sups."""
        if self.shape in ("sum", "scaled"):
            return sum(part._sup_re(factor * self.factor) for part in self.parts)
        limit, scale = RATES[self.rate]
        return max(self._g(limit + 1.0 / scale(self.n_min), factor), self._g(limit, factor))

    def _g(self, r: float, factor: float) -> float:
        c = [factor * complex(v) for v in self._coeffs(r)]
        if self.shape == "poly":
            return poly_sup_re(c)
        if self.shape == "constant":
            return c[0].real
        return max(factor * r, 0.0) if self.shape == "gaussian" else 0.0  # fractional: Re 0

    @property
    def re_bound(self) -> float:
        """sup over n >= n_min and xi of Re a_n(xi), the uniform growth bound, in closed form."""
        return self._sup_re(1.0)

    def __call__(self, n: int, xi_vectors: np.ndarray) -> np.ndarray:
        if n < self.n_min:
            raise SymbolEvaluationError(f"{self} is defined for n >= {self.n_min}, not at n={n}")
        vals = np.asarray(self.eval(n, xi_vectors), dtype=complex)
        if not np.all(np.isfinite(vals)):
            where = (f", xi={xi_vectors[tuple(np.argwhere(~np.isfinite(vals))[0])]}"
                     if vals.shape == xi_vectors.shape[:-1] else "")
            raise SymbolEvaluationError(f"{self} is non-finite at n={n}{where}")
        return vals

    def on_grid(self, n: int, grid: Grid) -> np.ndarray:
        """Symbol values at the grid frequencies, FFT layout: of ``grid.shape``, or 0-d for a
        xi-constant family, which is not expanded."""
        return self(n, grid.frequency_vectors())


def poly_coeffs(coeffs: Sequence[complex]) -> Tuple[complex, complex, complex]:
    """Coefficients c_0, c_1, c_2 of the operator c_0 + c_1 d/dx_1 + c_2 Laplacian, zero-padded
    to three; more than three raise ``UnsupportedFamilyError``."""
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


def make_poly_symbol_seq(coeffs: Sequence[complex], drift: Sequence[complex] = (),
                         rate: str = "zero") -> SymbolSeq:
    """The operators c_0(n) + c_1(n) d/dx_1 + c_2(n) Laplacian, c(n) = ``coeffs`` + r(n)
    ``drift``: the heat generator (4 pi^2)^-1 Laplacian has symbol -|xi|^2, and the sum over
    j starts at its j = 1 term, so on a line the symbol is c_0 + c_1 z + c_2 z z bit for bit."""
    return SymbolSeq("poly", poly_coeffs(coeffs), poly_coeffs(drift), rate)


def summed_symbol_seq(s: SymbolSeq, B: SymbolSeq) -> SymbolSeq:
    """The family a_n + b_n, the one sum of two families (a perturbed generator, say)."""
    return SymbolSeq("sum", n_min=max(s.n_min, B.n_min), parts=(s, B))


def constant_symbol_seq(value: complex, rate: str = "zero") -> SymbolSeq:
    """The xi-constant family a_n = value + r(n), 0-d."""
    return SymbolSeq("constant", (value,), (1.0,), rate)


def heat_symbol_seq() -> SymbolSeq:
    """The stationary heat family a_n(xi) = -|xi|^2 (generator (4pi^2)^-1 Laplacian)."""
    return make_poly_symbol_seq((0.0, 0.0, 1.0 / (4 * np.pi**2)))


def perturbed_heat_seq(
        base_coeffs: Sequence[complex] = (0.0, 0.0, 1.0 / (4 * np.pi**2))) -> SymbolSeq:
    """The coefficient drift P_n(D): ``base_coeffs`` with c_0 + 1/n and c_2 + 1/n."""
    return make_poly_symbol_seq(base_coeffs, (1.0, 0.0, 1.0), "inverse")
