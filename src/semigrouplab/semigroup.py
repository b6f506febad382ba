"""Integrated semigroups, resolvents, and growth certification for multiplier families.

Every operator here is diagonal in frequency: a scalar field over the grid
frequencies applied as F^-1 (factor . F u).  The once-integrated semigroup of
a symbol a has per-mode factor

    phi(t, a) = integral_0^t exp(s a) ds = (exp(t a) - 1) / a,

an entire function of a evaluated through a Taylor branch near t a = 0.  The
resolvent factor is 1/(lambda - a).  The Laplace identity
R(lambda) = lambda integral_0^inf exp(-lambda t) S(t) dt and the Bromwich
contour inversion are implemented as quadratures and serve as mutual oracles.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import OverflowGuardError, ResolventSingularityError, SymbolEvaluationError
from .quadrature import composite_gauss_points, trapezoid_weights
from .spectral import Grid, GridFunction
from .symbols import SymbolSeq

#: admissibility margin for 1/(lambda - a) conditioning
RESOLVENT_MARGIN = 1e-8

#: crossover to the Taylor branch of phi
PHI_TAYLOR_THRESHOLD = 1e-6

#: exp overflow guard on Re(a) * t
EXP_GUARD = 700.0


def phi(t: float, a) -> np.ndarray:
    """(exp(t a) - 1)/a, the integrated-semigroup factor; entire in a.

    For |t a| below 1e-6 the four-term Taylor expansion
    t (1 + ta/2 + (ta)^2/6 + (ta)^3/24) avoids the removable singularity.
    Below |t a| = 1 the exact value is 2 exp(ta/2) sinh(ta/2) / a, free of the
    e^(ta) - 1 cancellation, so the branches agree to well below 1e-12 at the
    crossover.  Each branch is evaluated only on its own entries.
    """
    if t < 0:
        raise ValueError(f"phi needs t >= 0, got {t}")
    a = np.asarray(a, dtype=complex)
    ta = t * a
    mag = np.abs(ta)
    small = mag < PHI_TAYLOR_THRESHOLD
    mid = ~small & (mag < 1.0)
    # complement of the other two, so non-finite entries land here
    plain = ~(small | mid)
    out = np.empty_like(ta)
    with np.errstate(over="raise"):
        try:
            half = 0.5 * ta[mid]
            out[mid] = 2.0 * np.exp(half) * np.sinh(half) / a[mid]
            out[plain] = (np.exp(ta[plain]) - 1.0) / a[plain]
        except FloatingPointError as exc:
            raise OverflowGuardError(f"exp(t a) overflow at t={t}") from exc
    z = ta[small]
    out[small] = t * (1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0)
    return out


def phi_at_times(times: np.ndarray, a) -> np.ndarray:
    """phi evaluated on a vector of times for broadcastable symbol values.

    Uses phi(t, a) = t * phi(1, t a); shapes follow numpy broadcasting of
    ``times`` against ``a``.
    """
    times = np.asarray(times, dtype=float)
    ta = times * np.asarray(a, dtype=complex)
    return times * phi(1.0, ta)


@dataclass(frozen=True)
class MultiplierOp:
    """A frequency-diagonal operator: factor values in FFT layout."""

    grid: Grid
    factor: np.ndarray

    def __post_init__(self):
        fac = np.array(self.factor, dtype=complex, copy=True)
        if fac.shape != self.grid.shape:
            raise ValueError(f"factor shape {fac.shape} != grid shape {self.grid.shape}")
        fac.setflags(write=False)
        object.__setattr__(self, "factor", fac)

    def apply(self, u: GridFunction) -> GridFunction:
        if u.grid != self.grid:
            raise ValueError("operand lives on a different grid")
        out = np.fft.ifftn(self.factor * np.fft.fftn(u.values))
        return GridFunction(self.grid, out)


def multiplier_norms(factors: Iterable[np.ndarray], us: Sequence[GridFunction]) -> np.ndarray:
    """||F^-1(d . F u)||_2 for each factor d (rows) and grid function u (columns).

    Parseval gives sqrt(h^dim / N^dim * sum_k |d_k|^2 |(F u)_k|^2): one forward
    FFT per u, no inverse FFT, and one factor in memory at a time.
    """
    grid = us[0].grid
    if any(u.grid != grid for u in us):
        raise ValueError("operands live on different grids")
    spectra = np.stack([np.abs(np.fft.fftn(u.values)).ravel() ** 2 for u in us])
    spectra *= grid.cell_volume / spectra.shape[1]
    rows = []
    for d in factors:
        if np.shape(d) != grid.shape:
            raise ValueError(f"factor shape {np.shape(d)} != grid shape {grid.shape}")
        rows.append(np.sqrt(spectra @ (np.abs(d).ravel() ** 2)))
    return np.array(rows).reshape(len(rows), len(us))


def integrated_factor(s: SymbolSeq, n: int, t: float, grid: Grid) -> np.ndarray:
    """Per-mode factor of S_n(t)."""
    fac = phi(t, s.on_grid(n, grid))
    if not np.all(np.isfinite(fac)):
        raise SymbolEvaluationError(f"integrated factor non-finite at n={n}, t={t}")
    return fac


def apply_S(s: SymbolSeq, n: int, t: float, u: GridFunction) -> GridFunction:
    """Apply the integrated semigroup: factor phi(t, a_n(xi_k))."""
    return MultiplierOp(u.grid, integrated_factor(s, n, t, u.grid)).apply(u)


def resolvent_factor(s: SymbolSeq, n: int, lam: complex, grid: Grid) -> np.ndarray:
    """Per-mode factor 1/(lambda - a_n); guards spectral proximity."""
    a = s.on_grid(n, grid)
    gap = np.abs(lam - a)
    k = np.unravel_index(int(np.argmin(gap)), gap.shape)
    if gap[k] <= RESOLVENT_MARGIN:
        xi = grid.frequency_vectors()[k]
        raise ResolventSingularityError(
            f"lambda={lam} within {RESOLVENT_MARGIN} of symbol value at xi={xi} (n={n})")
    return 1.0 / (lam - a)


def apply_resolvent(s: SymbolSeq, n: int, lam: complex, u: GridFunction) -> GridFunction:
    """Apply R(lambda, Op a_n) as the multiplier 1/(lambda - a_n(xi_k))."""
    return MultiplierOp(u.grid, resolvent_factor(s, n, lam, u.grid)).apply(u)


def laplace_identity_residual(s: SymbolSeq, n: int, lam: float, u: GridFunction,
                              T: float, panels: int) -> float:
    """Relative defect of R(lambda) u = lambda integral_0^T e^(-lambda t) S(t) u dt.

    The truncated transform is evaluated with the composite Gauss-Legendre
    rule, per mode, and compared with the resolvent factor in L^2.  The
    caller chooses T so the dropped tail is below the target (the bundled
    scenarios use T = 40/(lambda - omega)).
    """
    grid = u.grid
    a = s.on_grid(n, grid)
    target = resolvent_factor(s, n, lam, grid)  # raises on spectral proximity
    omega = float(np.max(a.real))
    if not lam > omega:
        raise ValueError(f"need lambda > sup Re a_n = {omega}, got {lam}")
    if np.exp((omega - lam) * T) >= 1e-12:
        raise ValueError(f"T={T} leaves a truncation tail above 1e-12")
    pts, wts = composite_gauss_points(0.0, T, panels)
    weights = wts * np.exp(-lam * pts)
    flat = a.reshape(-1)
    # nodes per block, so a block holds at most about 2e6 entries
    chunk = max(1, int(2e6 / flat.size))
    quad = sum(weights[i0:i0 + chunk] @ phi_at_times(pts[i0:i0 + chunk, None], flat[None, :])
               for i0 in range(0, len(pts), chunk))
    defect = target - lam * quad.reshape(grid.shape)
    # the unit factor gives ||u||_2
    defect_norm, unorm = multiplier_norms([defect, np.ones(grid.shape)], [u])[:, 0]
    return float(defect_norm / unorm) if unorm else 0.0


def pseudoresolvent_residual(s: SymbolSeq, n: int, lam: complex, mu: complex,
                             u: GridFunction) -> float:
    """Relative defect of R(lam) - R(mu) = (mu - lam) R(lam) R(mu) on u."""
    grid = u.grid
    rl = resolvent_factor(s, n, lam, grid)
    rm = resolvent_factor(s, n, mu, grid)
    defect = rl - rm - (mu - lam) * rl * rm
    # the unit factor gives ||u||_2
    defect_norm, unorm = multiplier_norms([defect, np.ones(grid.shape)], [u])[:, 0]
    return float(defect_norm / unorm) if unorm else 0.0


def bromwich_S(s: SymbolSeq, n: int, times: Sequence[float], u: GridFunction,
               alpha: float, r_max: float, steps: int) -> list:
    """Contour-inversion oracle for the integrated semigroup, one result per time.

    Trapezoid discretization of
    (1/2 pi) integral_-R^R e^((alpha+ir)t) R(alpha+ir) u / (alpha+ir) dr
    on the vertical line Re lambda = alpha > omega.  Truncation decays like
    1/r_max at fixed t > 0, so this is an independent, slowly converging
    check on :func:`apply_S`.

    One pass over the nodes serves all times: per block of about 2e6
    (node, mode) entries the Cauchy kernel 1/(lambda_j - a_k) is built once
    and multiplied by the (times x nodes) weights w_j e^(lambda_j t_i) / lambda_j.
    On the line |lambda - a_k| >= alpha - omega, also in floating point, so the
    spectral-proximity scan runs only when alpha - omega <= RESOLVENT_MARGIN.
    """
    grid = u.grid
    a = s.on_grid(n, grid)
    omega = float(np.max(a.real))
    if not alpha > omega:
        raise ValueError(f"contour abscissa must exceed sup Re a_n = {omega}")
    times = np.asarray(times, dtype=float)
    r = np.linspace(-r_max, r_max, steps + 1)
    w = trapezoid_weights(steps + 1, r[1] - r[0])
    flat = a.reshape(-1)
    acc = np.zeros((len(times), flat.size), dtype=complex)
    chunk = max(1, int(2e6 / max(flat.size, 1)))
    for i0 in range(0, len(r), chunk):
        lam = alpha + 1j * r[i0:i0 + chunk]
        kernel = lam[:, None] - flat[None, :]
        if alpha - omega <= RESOLVENT_MARGIN and np.min(np.abs(kernel)) <= RESOLVENT_MARGIN:
            raise ResolventSingularityError("contour passes through the numerical spectrum")
        np.reciprocal(kernel, out=kernel)
        acc += (w[i0:i0 + chunk] * np.exp(times[:, None] * lam) / lam) @ kernel
    factors = (acc / (2.0 * np.pi)).reshape((len(times),) + grid.shape)
    return [MultiplierOp(grid, factor).apply(u) for factor in factors]


@dataclass
class GrowthCertificate:
    """Sampled growth bounds for a symbol family.

    ``resolvent_bounds`` holds M_n = max over the lambda samples of
    ||lambda^b R(lambda, A_n)||; ``semigroup_bounds`` holds M'_n = max over
    the time samples of ||e^(-omega t) t^(-b) S_n(t)||.  Both are exact
    maxima over the declared sample sets, never claims about true suprema.
    """

    omega: float
    b: float
    n_list: list
    lambda_samples: list
    t_samples: list
    resolvent_bounds: dict = field(default_factory=dict)
    semigroup_bounds: dict = field(default_factory=dict)
    resolvent_fit: object = None
    semigroup_fit: object = None


def default_time_samples(t_max: float = 50.0, count: int = 40) -> list:
    """Log-spaced positive times reaching both t -> 0 and large t."""
    return list(np.logspace(-3, np.log10(t_max), count))


def certify_growth(s: SymbolSeq, n_list: Sequence[int], omega: float, b: float,
                   lambda_samples: Sequence[complex], t_samples: Sequence[float],
                   grid: Grid) -> GrowthCertificate:
    """Sample the half-plane resolvent bound and the weighted semigroup bound.

    For diagonal operators the L^2 operator norm is the max of the factor
    magnitude over the grid frequencies, so both bounds are exact maxima
    over (sample set) x (grid modes).  Moderateness exponents of M_n and
    M'_n are fitted when at least four indices are given.
    """
    from .association import fit_moderate

    cert = GrowthCertificate(omega=omega, b=b, n_list=list(n_list),
                             lambda_samples=list(lambda_samples),
                             t_samples=list(t_samples))
    for lam in lambda_samples:
        if not complex(lam).real > omega:
            raise ValueError(f"lambda sample {lam} has Re <= omega = {omega}")
    for n in n_list:
        a = s.on_grid(n, grid)
        m_res = []
        for lam in lambda_samples:
            lam = complex(lam)
            gap = np.abs(lam - a)
            if np.min(gap) <= RESOLVENT_MARGIN:
                raise ResolventSingularityError(f"sample {lam} hits the numerical spectrum")
            m_res.append(np.max(np.abs(lam) ** b / gap))
        m_sg = []
        for t in t_samples:
            if t <= 0:
                raise ValueError("t samples must be positive")
            m_sg.append(np.exp(-omega * t) * t ** (-b) * np.max(np.abs(phi(t, a))))
        # np.max keeps a NaN bound, which the builtin max would read as 0
        cert.resolvent_bounds[n] = float(np.max(m_res))
        cert.semigroup_bounds[n] = float(np.max(m_sg))
    if len(n_list) >= 4:
        cert.resolvent_fit = fit_moderate(cert.resolvent_bounds)
        cert.semigroup_fit = fit_moderate(cert.semigroup_bounds)
    return cert
