"""Regularized Cauchy problems: mild solutions, residuals, and weak limits.

The Duhamel solution of d/dt w = a(D) w + f, w(0) = u_0 is computed per
frequency mode with an exponential integrator that interpolates the forcing
piecewise-linearly in time and integrates each panel in closed form.  The
primitive v (with v' = w, v(0) = 0) is advanced by the same scheme, so the
only discretization error in the solve is the forcing interpolation; with
zero forcing both v and w are exact per mode.  The integrator's functions
phi_1, phi_2, phi_3 are all built on ``semigroup.phi``: phi_1(z) = phi(1, z),
and the higher two follow from it by recurrence or, near zero, by series.

Residuals of the integrated-equation form w = u_0 + a(D) int w + int f use
plain trapezoid time integrals of the computed samples, which makes the
defect an O(dt^2) measurement of consistency rather than an identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Sequence, Tuple

import numpy as np

from .errors import OverflowGuardError, SpaceTimeSupportError
from .quadrature import trapezoid_weights
from .semigroup import EXP_GUARD, MultiplierOp, phi
from .spectral import (Grid, GridFunction, lp_norm, standard_bump, transform)
from .symbols import SymbolSeq

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
    """A forcing family (n, t) -> GridFunction sampled on a time grid."""

    grid: Grid
    eval: Callable[[int, float], GridFunction]

    @staticmethod
    def zero(grid: Grid) -> "ForcingSeq":
        z = GridFunction.zero(grid)
        return ForcingSeq(grid=grid, eval=lambda n, t: z)

    @staticmethod
    def separable(profile: Callable[[float], float],
                  shape_for: Callable[[int], GridFunction]) -> "ForcingSeq":
        """f_n(t, x) = profile(t) * shape_n(x)."""
        return ForcingSeq(grid=shape_for(1).grid,
                          eval=lambda n, t: profile(t) * shape_for(n))


@dataclass
class MildSolutionSeq:
    """Mild solutions v_n and their derivatives w_n on a shared time grid.

    Per index n the arrays hold sample values of shape
    (len(t_grid),) + grid.shape; v(n, 0) = 0 and w(n, 0) = u_{0,n} hold by
    construction.
    """

    grid: Grid
    t_grid: np.ndarray
    provenance: dict = field(default_factory=dict)
    _v: Dict[int, np.ndarray] = field(default_factory=dict)
    _w: Dict[int, np.ndarray] = field(default_factory=dict)
    _u0: Dict[int, GridFunction] = field(default_factory=dict)

    def indices(self) -> list:
        return sorted(self._w)

    def time_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.t_grid - t)))
        if abs(self.t_grid[idx] - t) > 1e-10 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a time-grid node")
        return idx

    def v(self, n: int, t: float) -> GridFunction:
        return GridFunction(self.grid, self._v[n][self.time_index(t)])

    def w(self, n: int, t: float) -> GridFunction:
        return GridFunction(self.grid, self._w[n][self.time_index(t)])

    def w_values(self, n: int) -> np.ndarray:
        return self._w[n]

    def v_values(self, n: int) -> np.ndarray:
        return self._v[n]

    def initial_datum(self, n: int) -> GridFunction:
        return self._u0[n]

    def merge(self, other: "MildSolutionSeq") -> None:
        if other.grid != self.grid or len(other.t_grid) != len(self.t_grid):
            raise ValueError("solution sequences live on different grids")
        self._v.update(other._v)
        self._w.update(other._w)
        self._u0.update(other._u0)


def duhamel_solve(s: SymbolSeq, n: int, u0n: GridFunction, f: ForcingSeq,
                  t_grid: Sequence[float]) -> MildSolutionSeq:
    """Solve one regularized problem by per-mode exponential integration.

    The forcing transform is interpolated piecewise-linearly between the
    uniform time-grid nodes; each panel is integrated exactly:

        w_(m+1) = e^z w_m + dt [f_m phi_1(z) + (f_(m+1) - f_m) phi_2(z)]
        v_(m+1) = e^z v_m + dt [(u0 + F_m) phi_1(z) + dt f_m phi_2(z)
                                + dt (f_(m+1) - f_m) phi_3(z)]

    with z = dt a per mode and F the running trapezoid primitive of f.
    Exact for zero forcing; unconditionally stable for Re a <= 0.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2:
        raise ValueError("time grid needs at least two nodes")
    steps = np.diff(t_grid)
    dt = steps[0]
    if np.max(np.abs(steps - dt)) > 1e-10 * dt:
        raise ValueError("time grid must be uniform")
    grid = u0n.grid
    a = s.on_grid(n, grid)
    if float(np.max(a.real)) * t_grid[-1] > EXP_GUARD:
        raise OverflowGuardError(
            f"Re a_n * T = {float(np.max(a.real)) * t_grid[-1]:.3g} would overflow; "
            f"the growth bound re_bound={s.re_bound} is violated or the horizon too long")

    z = dt * a
    ez = np.exp(z)
    p1, p2, p3 = _phi_k(z, 1), _phi_k(z, 2), _phi_k(z, 3)

    M = len(t_grid) - 1
    fhat = np.empty((M + 1,) + grid.shape, dtype=complex)
    for j, t in enumerate(t_grid):
        fj = f.eval(n, float(t))
        if fj.grid != grid:
            raise ValueError("forcing grid does not match the datum grid")
        fhat[j] = transform(fj).values

    u0hat = transform(u0n).values
    w = np.empty_like(fhat)
    v = np.empty_like(fhat)
    w[0] = u0hat
    v[0] = 0.0
    F = np.zeros(grid.shape, dtype=complex)
    for m in range(M):
        df = fhat[m + 1] - fhat[m]
        w[m + 1] = ez * w[m] + dt * (fhat[m] * p1 + df * p2)
        v[m + 1] = ez * v[m] + dt * ((u0hat + F) * p1 + dt * fhat[m] * p2 + dt * df * p3)
        F = F + 0.5 * dt * (fhat[m] + fhat[m + 1])

    sol = MildSolutionSeq(grid=grid, t_grid=t_grid,
                          provenance={"symbol": s.name, "n": [n]})
    ph = grid.phase()
    vol = grid.cell_volume

    def back(arr):
        """Inverse transform of every time slice, in place."""
        for j in range(arr.shape[0]):
            arr[j] = np.fft.ifftn(arr[j] * ph) / vol
        return arr

    w_vals = back(w)
    w_vals[0] = u0n.values  # the initial condition holds exactly
    v_vals = back(v)
    v_vals[0] = 0.0
    sol._w[n] = w_vals
    sol._v[n] = v_vals
    sol._u0[n] = u0n
    return sol


def solve_sequence(s: SymbolSeq, n_list: Sequence[int],
                   u0_for: Callable[[int], GridFunction], f: ForcingSeq,
                   t_grid: Sequence[float]) -> MildSolutionSeq:
    """Run :func:`duhamel_solve` over an index list and merge the results."""
    out = None
    for n in n_list:
        one = duhamel_solve(s, n, u0_for(n), f, t_grid)
        if out is None:
            out = one
        else:
            out.merge(one)
    out.provenance["n"] = list(n_list)
    return out


def integral_equation_residual(sol: MildSolutionSeq, s: SymbolSeq, n: int,
                               f: ForcingSeq, t: float) -> float:
    """Defect of w(t) = u_0 + a(D) int_0^t w dr + int_0^t f ds at a grid time.

    Time integrals are per-mode trapezoid sums of the stored samples
    (piecewise-linear integrands, the same interpolation order as the
    solver's forcing rule), so the defect scales like dt^2.
    """
    idx = sol.time_index(t)
    grid = sol.grid
    t_grid = sol.t_grid[: idx + 1]
    w = sol.w_values(n)[: idx + 1]
    wt = GridFunction(grid, w[idx])
    if idx == 0:
        int_w = GridFunction.zero(grid)
        int_f = GridFunction.zero(grid)
    else:
        tw = trapezoid_weights(idx + 1, float(t_grid[1] - t_grid[0]))
        int_w = GridFunction(grid, np.tensordot(tw, w, axes=(0, 0)))
        fs = np.stack([f.eval(n, float(tj)).values for tj in t_grid])
        int_f = GridFunction(grid, np.tensordot(tw, fs, axes=(0, 0)))
    a_op = MultiplierOp(grid, s.on_grid(n, grid))
    defect = wt - sol.initial_datum(n) - a_op.apply(int_w) - int_f
    return lp_norm(defect, 2) / max(1.0, lp_norm(wt, 2))


@dataclass(frozen=True)
class SpaceTimeTestFunction:
    """Separable test function psi(t, x) = chi(t) rho(x).

    ``chi`` and its derivative are callables vectorized over time arrays;
    ``rho`` is sampled on the grid.  Support must sit inside the open slab
    (0, t_end) x interior, declared through ``t_support`` and checked
    against each pairing's time horizon.
    """

    chi: Callable[[np.ndarray], np.ndarray]
    chi_prime: Callable[[np.ndarray], np.ndarray]
    rho: GridFunction
    t_support: Tuple[float, float]
    label: str = "psi"

    def check_support(self, t_end: float) -> None:
        lo, hi = self.t_support
        if not 0.0 < lo < hi < t_end + 1e-12:
            raise SpaceTimeSupportError(
                f"{self.label}: time support [{lo}, {hi}] not inside (0, {t_end})")
        edge = np.abs(self.rho.values).reshape(self.rho.grid.points, -1)
        if float(np.abs(edge[0]).max()) > 1e-12 or float(np.abs(edge[-1]).max()) > 1e-12:
            raise SpaceTimeSupportError(
                f"{self.label}: spatial factor does not vanish at the domain edge")


def bump_test_function(grid: Grid, t_center: float, t_width: float,
                       x_center: float = 0.0, x_width: float = 1.0,
                       label: str = "psi") -> SpaceTimeTestFunction:
    """A smooth bump in both factors, scaled to the requested supports."""
    def chi(t):
        return standard_bump((np.asarray(t, dtype=float) - t_center) / t_width)

    def chi_prime(t):
        t = np.asarray(t, dtype=float)
        y = (t - t_center) / t_width
        out = np.zeros_like(y)
        inside = np.abs(y) < 1.0
        yi = y[inside]
        out[inside] = np.exp(-1.0 / (1.0 - yi**2)) * (-2.0 * yi / (1.0 - yi**2) ** 2)
        return out / t_width

    if grid.dimension == 1:
        rho = GridFunction(grid, standard_bump((grid.coords() - x_center) / x_width))
    else:
        x, y = grid.coords()
        r = np.sqrt((x - x_center) ** 2 + y**2)
        rho = GridFunction(grid, standard_bump(r / x_width))
    return SpaceTimeTestFunction(chi=chi, chi_prime=chi_prime, rho=rho,
                                 t_support=(t_center - t_width, t_center + t_width),
                                 label=label)


def very_weak_pairing(sol: MildSolutionSeq, psi: SpaceTimeTestFunction, n: int) -> complex:
    """Space-time pairing <w_n, psi>: trapezoid in t, grid sum in x."""
    t_grid = sol.t_grid
    psi.check_support(float(t_grid[-1]))
    w = sol.w_values(n)
    tw = trapezoid_weights(len(t_grid), float(t_grid[1] - t_grid[0]))
    chi = psi.chi(t_grid)
    rho = psi.rho.values
    space = np.tensordot(w, rho, axes=(tuple(range(1, w.ndim)), tuple(range(rho.ndim))))
    return complex(np.sum(tw * chi * space) * sol.grid.cell_volume)


def very_weak_residual(sol: MildSolutionSeq, s: SymbolSeq, n: int, f: ForcingSeq,
                       psi: SpaceTimeTestFunction) -> complex:
    """Distributional defect <w, -d_t psi> - <a(D) w + f, psi> - boundary terms.

    Vanishes (within quadrature error) because w solves the regularized
    problem; the boundary terms are zero for admissible psi but are kept in
    the formula.
    """
    t_grid = sol.t_grid
    psi.check_support(float(t_grid[-1]))
    grid = sol.grid
    w = sol.w_values(n)
    tw = trapezoid_weights(len(t_grid), float(t_grid[1] - t_grid[0]))
    rho = psi.rho.values
    axes = (tuple(range(1, w.ndim)), tuple(range(rho.ndim)))
    vol = grid.cell_volume

    space_w = np.tensordot(w, rho, axes=axes) * vol
    part_time = -np.sum(tw * psi.chi_prime(t_grid) * space_w)

    a_fac = s.on_grid(n, grid)
    ph = grid.phase()
    aw_space = np.empty(len(t_grid), dtype=complex)
    f_space = np.empty(len(t_grid), dtype=complex)
    for j, t in enumerate(t_grid):
        awj = np.fft.ifftn(a_fac * np.fft.fftn(w[j]))
        aw_space[j] = np.sum(awj * rho) * vol
        f_space[j] = np.sum(f.eval(n, float(t)).values * rho) * vol
    chi = psi.chi(t_grid)
    part_op = np.sum(tw * chi * (aw_space + f_space))
    boundary = chi[-1] * space_w[-1] - chi[0] * space_w[0]
    return complex(part_time - part_op - boundary)


@dataclass
class WeakLimitReport:
    """Convergence report for pairing sequences over n."""

    tol: float
    limits: dict = field(default_factory=dict)
    convergent: dict = field(default_factory=dict)
    subsequences: dict = field(default_factory=dict)
    increments: dict = field(default_factory=dict)

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
        if len(series) < 4:
            raise ValueError(f"pairing sequence '{label}' has fewer than four indices")
        ns = [n for n, _ in series]
        vals = np.array([v for _, v in series])
        inc = np.abs(np.diff(vals))
        report.increments[label] = list(inc)
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
