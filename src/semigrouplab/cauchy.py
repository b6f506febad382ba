"""Regularized Cauchy problems: mild solutions, residuals, and weak limits.

The Duhamel solution of d/dt w = a(D) w + f, w(0) = u_0 is computed per
frequency mode with an exponential integrator that interpolates the forcing
piecewise-linearly in time and integrates each panel in closed form, so the
only discretization error in the solve is the forcing interpolation; with
zero forcing w is exact per mode.  Forcings are separable, f_n(t, x) =
profile(t) shape_n(x), so each index n transforms its forcing once.  The
integrator's functions phi_1 and phi_2 are both built on ``semigroup.phi``:
phi_1(z) = phi(1, z), and phi_2 follows from it by recurrence or, near zero,
by series.

A solve is a stream: :func:`duhamel_solve` yields one time slice at a time and
holds no (time x grid) array.  One :class:`SliceSums` takes each slice once and
keeps what the reports need: a running sum for the time integral, and per
slice the grid sums against the test functions and the squared L^2 norm.
Residuals of the integrated-equation form w = u_0 + a(D) int w + int f use
plain trapezoid time integrals of the computed samples, which makes the
defect an O(dt^2) measurement of consistency rather than an identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Mapping, Sequence, Tuple

import numpy as np

from .errors import OverflowGuardError, SpaceTimeSupportError
from .quadrature import trapezoid_weights
from .semigroup import EXP_GUARD, MultiplierOp, phi
from .spectral import Grid, GridFunction, lp_norm, standard_bump
from .symbols import MIN_FIT_INDICES

#: |z| below which phi_2 and phi_3 are summed as Taylor series
_PHI_SERIES_RADIUS = 2.0


def _phi_k(z: np.ndarray, k: int) -> np.ndarray:
    """phi_k(z) = integral_0^1 e^(z(1-s)) s^(k-1)/(k-1)! ds, k = 1, 2, 3.

    phi_1(z) is ``phi(1, z)`` on every entry, which also guards e^z against
    overflow.  For |z| >= 2, phi_2 and phi_3 follow from it by
    phi_(j+1)(z) = (phi_j(z) - 1/j!)/z; inside that disc the recurrence
    cancels, and they are the Taylor series sum_i z^i/(i+k)! in Horner form
    instead (24 terms: 2^24/26! < 1e-19).  Recurrence and series each run
    only on their own entries.
    """
    z = np.asarray(z, dtype=complex)
    out = phi(1.0, z)
    if k == 1:
        return out
    inner = np.abs(z) < _PHI_SERIES_RADIUS
    outer = ~inner
    val, zo = out[outer], z[outer]
    for j in range(1, k):
        val = (val - 1.0 / math.factorial(j)) / zo
    out[outer] = val
    zi = z[inner]
    acc = np.zeros_like(zi)
    for i in range(23, -1, -1):
        acc = acc * zi + 1.0 / math.factorial(i + k)
    out[inner] = acc
    return out


@dataclass(frozen=True)
class ForcingSeq:
    """A separable forcing family f_n(t, x) = profile(t) * shape(n)(x).

    ``profile`` maps an array of times to values; ``shape(n)`` is the
    spatial factor of index n.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    shape: Callable[[int], GridFunction]

    @staticmethod
    def zero(grid: Grid) -> "ForcingSeq":
        z = GridFunction.zero(grid)
        return ForcingSeq(profile=np.zeros_like, shape=lambda n: z)


def duhamel_solve(a: np.ndarray, n: int, u0n: GridFunction, f: ForcingSeq,
                  t_grid: Sequence[float]) -> Iterator[np.ndarray]:
    """Solve one regularized problem by per-mode exponential integration, slice by slice.

    ``a`` is the symbol a_n on the datum's grid.  The forcing profile is interpolated
    piecewise-linearly between the uniform time-grid nodes; each panel is integrated
    exactly:

        w_(m+1) = e^z w_m + p_m q_1 + (p_(m+1) - p_m) q_2,  q_k = dt fhat phi_k(z)

    with z = dt a per mode, p the profile at the nodes and fhat the one FFT of
    the forcing shape of index n: linear and diagonal per mode, the solve runs on
    plain FFT coefficients, as ``MultiplierOp.apply`` does.  A profile that is zero at
    every node leaves w_(m+1) = e^z w_m, and the shape is not transformed.
    Exact for zero forcing; unconditionally stable for Re a <= 0.

    The arguments are checked and the step factors formed at the call; the returned
    iterator then yields the physical-space slices w(t_0), w(t_1), ..., each an array of
    ``grid.shape``.  w(t_0) is ``u0n.values`` itself, so the initial condition holds
    exactly; each later slice is the inverse FFT of the recurrence's current frequency
    slice, the only one held.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2:
        raise ValueError("time grid needs at least two nodes")
    steps = np.diff(t_grid)
    dt = steps[0]
    if np.max(np.abs(steps - dt)) > 1e-10 * dt:
        raise ValueError("time grid must be uniform")
    grid = u0n.grid
    if float(np.max(a.real)) * t_grid[-1] > EXP_GUARD:
        raise OverflowGuardError(
            f"Re a_n * T = {float(np.max(a.real)) * t_grid[-1]:.3g} would overflow; the "
            f"family's growth bound re_bound is violated or the horizon too long")
    shape = f.shape(n)
    if shape.grid != grid:
        raise ValueError("forcing grid does not match the datum grid")

    z = dt * a
    ez = np.exp(z)
    prof = f.profile(t_grid)
    forced = bool(np.any(prof))
    if forced:
        dt_fhat = dt * np.fft.fftn(shape.values)
        q1, q2 = dt_fhat * _phi_k(z, 1), dt_fhat * _phi_k(z, 2)

    def slices() -> Iterator[np.ndarray]:
        yield u0n.values
        what = np.fft.fftn(u0n.values)
        for m in range(len(t_grid) - 1):
            if forced:
                what = ez * what + prof[m] * q1 + (prof[m + 1] - prof[m]) * q2
            else:
                what = ez * what
            yield np.fft.ifftn(what)

    return slices()


class SliceSums:
    """Running sums of one index's slice stream, fed one slice at a time.

    ``add`` takes w(t_0), w(t_1), ... in order, as :func:`duhamel_solve` yields them.
    After the slice of node t_j it holds ``first`` = w(t_0), ``last`` = w(t_j) and
    ``total``, their sum over nodes 0 ... j, from which
    :func:`integral_equation_residual` forms the trapezoid int_0^(t_j) w; and in rows
    0 ... j of ``space`` and ``sq`` each slice's grid sums sum_x w rho against the
    spatial factor rho of each of ``tests`` and sum_x |w|^2.  No other slice is kept.
    """

    def __init__(self, grid: Grid, t_grid: Sequence[float],
                 tests: Sequence[SpaceTimeTestFunction] = ()):
        self.grid = grid
        self.t_grid = np.asarray(t_grid, dtype=float)
        self.tests = tuple(tests)
        # one (tests x points) product per slice pairs it with every rho
        points = grid.points ** grid.dimension
        self._rho = np.array([psi.rho.values.reshape(points) for psi in self.tests],
                             dtype=complex).reshape(len(self.tests), points)
        self.space = np.empty((len(self.t_grid), len(self.tests)), dtype=complex)
        self.sq = np.empty(len(self.t_grid))
        self.count = 0
        self.first = self.last = self.total = None

    def add(self, w: np.ndarray) -> None:
        j = self.count
        if j == 0:
            self.first, self.total = w, np.array(w, dtype=complex)
        else:
            self.total += w
        self.last = w
        flat = w.reshape(-1)
        self.space[j] = self._rho @ flat
        self.sq[j] = np.sum(np.abs(flat) ** 2)
        self.count = j + 1


def integral_equation_residual(sums: SliceSums, a: np.ndarray, n: int, f: ForcingSeq) -> float:
    """Defect of w(t) = u_0 + a(D) int_0^t w dr + int_0^t f ds at the last node t ``sums`` took.

    u_0 is the first slice of ``sums``.  Time integrals are trapezoid sums over the
    nodes up to t (piecewise-linear integrands, the same interpolation order as the
    solver's forcing rule), int_0^t w = dt (sum_j w_j - (w_0 + w(t))/2) from the
    running sum, so the defect scales like dt^2.
    """
    idx = sums.count - 1
    grid = sums.grid
    wt = GridFunction(grid, sums.last)
    if idx == 0:
        int_w = GridFunction.zero(grid)
        int_f = GridFunction.zero(grid)
    else:
        dt = float(sums.t_grid[1] - sums.t_grid[0])
        tw = trapezoid_weights(idx + 1, dt)
        int_w = GridFunction(grid, dt * (sums.total - 0.5 * (sums.first + sums.last)))
        int_f = f.shape(n) * np.dot(tw, f.profile(sums.t_grid[: idx + 1]))
    a_op = MultiplierOp(grid, a)
    defect = wt - GridFunction(grid, sums.first) - a_op.apply(int_w) - int_f
    return lp_norm(defect, 2) / max(1.0, lp_norm(wt, 2))


@dataclass(frozen=True)
class SpaceTimeTestFunction:
    """Separable test function psi(t, x) = chi(t) rho(x).

    ``chi`` is a callable vectorized over time arrays; ``rho`` is sampled
    on the grid.  Support must sit inside the open slab
    (0, t_end) x interior, declared through ``t_support`` and checked by
    :meth:`check_support` against the time horizon, once before a solve.
    """

    chi: Callable[[np.ndarray], np.ndarray]
    rho: GridFunction
    t_support: Tuple[float, float]
    label: str = "psi"

    def check_support(self, t_end: float) -> None:
        lo, hi = self.t_support
        if not 0.0 < lo < hi < t_end + 1e-12:
            raise SpaceTimeSupportError(
                f"{self.label}: time support [{lo}, {hi}] not inside (0, {t_end})")
        vals = np.abs(self.rho.values)
        if any(float(np.take(vals, i, axis=axis).max()) > 1e-12
               for axis in range(vals.ndim) for i in (0, -1)):
            raise SpaceTimeSupportError(
                f"{self.label}: spatial factor does not vanish at the domain edge")


def bump_test_function(grid: Grid, t_center: float, t_width: float,
                       x_center: float = 0.0, x_width: float = 1.0,
                       label: str = "psi") -> SpaceTimeTestFunction:
    """A smooth bump in both factors, scaled to the requested supports."""
    def chi(t):
        return standard_bump((np.asarray(t, dtype=float) - t_center) / t_width)

    center = np.zeros(grid.dimension)
    center[0] = x_center
    r = np.sqrt(np.sum((grid.coordinate_vectors() - center) ** 2, axis=-1))
    rho = GridFunction(grid, standard_bump(r / x_width))
    return SpaceTimeTestFunction(chi=chi, rho=rho,
                                 t_support=(t_center - t_width, t_center + t_width),
                                 label=label)


def very_weak_pairing(sums: SliceSums, psi: SpaceTimeTestFunction) -> complex:
    """Space-time pairing <w_n, psi> of one of ``sums.tests``: trapezoid in t over the
    per-slice grid sums of ``sums.space``, times the cell volume.

    The support of psi is not checked here; :meth:`SpaceTimeTestFunction.check_support`
    checks it once, before the solve.
    """
    column = [k for k, test in enumerate(sums.tests) if test is psi]
    if not column:
        raise ValueError(f"{psi.label} is not one of the test functions of the slice sums")
    t_grid = sums.t_grid
    tw = trapezoid_weights(len(t_grid), float(t_grid[1] - t_grid[0]))
    space = sums.space[:, column[0]]
    return complex(np.sum(tw * psi.chi(t_grid) * space) * sums.grid.cell_volume)


@dataclass
class WeakLimitReport:
    """Convergence report for pairing sequences over n."""

    tol: float
    limits: dict = field(default_factory=dict)
    convergent: dict = field(default_factory=dict)
    subsequences: dict = field(default_factory=dict)

    def all_convergent(self) -> bool:
        return bool(self.convergent) and all(self.convergent.values())


def weak_limit_extract(pairings: Mapping[Tuple[int, str], complex], tol: float) -> WeakLimitReport:
    """Detect numerical convergence of <w_n, psi_i> sequences over n.

    A pairing sequence counts as convergent when its final increment is
    below ``tol`` and the increments do not grow along the tail; the limit
    estimate is the last value and the reported subsequence starts at the
    first index from which all increments stay below ``tol``.
    """
    by_psi: Dict[str, list] = {}
    for (n, label), value in pairings.items():
        by_psi.setdefault(label, []).append((n, complex(value)))
    if len(by_psi) < 2:
        raise ValueError("need at least two test functions")
    report = WeakLimitReport(tol=tol)
    for label, series in sorted(by_psi.items()):
        series.sort()
        if len(series) < MIN_FIT_INDICES:
            raise ValueError(f"pairing sequence '{label}' has fewer than "
                             f"{MIN_FIT_INDICES} indices")
        ns = [n for n, _ in series]
        vals = np.array([v for _, v in series])
        inc = np.abs(np.diff(vals))
        ok = bool(inc[-1] < tol and inc[-1] <= inc[0] + tol)
        report.convergent[label] = ok
        report.limits[label] = complex(vals[-1])
        start = len(inc)
        for i in range(len(inc) - 1, -1, -1):
            if inc[i] < tol:
                start = i
            else:
                break
        report.subsequences[label] = ns[start:] if start < len(ns) else ns[-1:]
    return report
