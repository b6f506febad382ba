"""Periodic grids, discrete Fourier transforms, mollifiers and regularization.

The continuum R^d is truncated to the torus [-Lambda, Lambda)^d sampled with
N points per axis.  The Fourier convention is

    F u(xi) = integral u(x) exp(-2 pi i xi x) dx,

so differentiation d/dx acts as multiplication by 2 pi i xi, the Gaussian
exp(-pi x^2) is self-dual, and the convolution theorem carries no constant.
Grid frequencies are xi_k = k / (2 Lambda) for k = -N/2 .. N/2 - 1, stored in
the standard FFT layout.  The sampled transform

    uhat_k = h * (-1)^k * FFT(u)_k,        h = 2 Lambda / N,

is the Riemann sum of the continuum integral at xi_k; the (-1)^k phase
accounts for the leftmost sample sitting at x = -Lambda.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import GridMismatchError, ResolutionError

TWO_PI = 2.0 * np.pi


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-half_width, half_width)^dimension.

    Parameters
    ----------
    dimension : int
        1 or 2.
    half_width : float
        Lambda; the domain is [-Lambda, Lambda) per axis.
    points : int
        Samples per axis, a power of two.
    """

    dimension: int
    half_width: float
    points: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if not 0 < self.half_width < np.inf:
            raise ValueError(f"half_width must be finite and positive, got {self.half_width}")
        if not _is_power_of_two(self.points):
            raise ValueError(f"points must be a power of two, got {self.points}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def freq_spacing(self) -> float:
        return 1.0 / (2.0 * self.half_width)

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dimension

    def axis_points(self) -> np.ndarray:
        """Sample positions along one axis: -Lambda + j h."""
        return -self.half_width + self.spacing * np.arange(self.points)

    def coords(self):
        """Spatial coordinates; an array for d=1, a meshgrid tuple for d=2."""
        x = self.axis_points()
        if self.dimension == 1:
            return x
        return np.meshgrid(x, x, indexing="ij")

    def axis_frequencies(self) -> np.ndarray:
        """Frequencies xi_k = k/(2 Lambda) along one axis, FFT layout."""
        return np.fft.fftfreq(self.points, d=self.spacing)

    def frequencies(self):
        """Frequency coordinates matching :meth:`coords` in layout."""
        xi = self.axis_frequencies()
        if self.dimension == 1:
            return xi
        return np.meshgrid(xi, xi, indexing="ij")

    def frequency_vectors(self) -> np.ndarray:
        """Frequency points stacked on a trailing axis of length d."""
        if self.dimension == 1:
            return self.axis_frequencies()[:, None]
        fx, fy = self.frequencies()
        return np.stack([fx, fy], axis=-1)

    def _axis_phase(self) -> np.ndarray:
        k = np.fft.fftfreq(self.points) * self.points
        return np.where(k.astype(int) % 2 == 0, 1.0, -1.0)

    def phase(self) -> np.ndarray:
        """(-1)^k phase factors in FFT layout, tensorized over axes."""
        p = self._axis_phase()
        if self.dimension == 1:
            return p
        return np.multiply.outer(p, p)


@dataclass(frozen=True)
class GridFunction:
    """Complex sample values on a :class:`Grid`.

    Values are frozen after construction; operations return new instances.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex, copy=True)
        if vals.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _require_same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _require_same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "GridFunction":
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    @staticmethod
    def zero(grid: Grid) -> "GridFunction":
        return GridFunction(grid, np.zeros(grid.shape, dtype=complex))

    @staticmethod
    def gaussian(grid: Grid, width: float = 1.0) -> "GridFunction":
        """exp(-pi |x/width|^2); unit mass for width 1 in 1D."""
        if grid.dimension == 1:
            x = grid.coords()
            return GridFunction(grid, np.exp(-np.pi * (x / width) ** 2))
        x, y = grid.coords()
        return GridFunction(grid, np.exp(-np.pi * (x * x + y * y) / width**2))

    @staticmethod
    def impulse(grid: Grid) -> "GridFunction":
        """Discrete delta: value 1/h^d at x = 0, zero elsewhere (unit mass)."""
        vals = np.zeros(grid.shape, dtype=complex)
        center = (grid.points // 2,) * grid.dimension
        vals[center] = 1.0 / grid.cell_volume
        return GridFunction(grid, vals)

    @staticmethod
    def fourier_mode(grid: Grid, index: int) -> "GridFunction":
        """exp(2 pi i xi_k x) for the k-th axis frequency (d=1 only)."""
        if grid.dimension != 1:
            raise ValueError("fourier_mode is defined for 1D grids")
        xi = index * grid.freq_spacing
        x = grid.coords()
        return GridFunction(grid, np.exp(TWO_PI * 1j * xi * x))


def _require_same_grid(u: GridFunction, v: GridFunction) -> None:
    if u.grid != v.grid:
        raise GridMismatchError("grid functions live on different grids")


def transform(u: GridFunction) -> GridFunction:
    """Forward transform; values are uhat(xi_k) in FFT layout."""
    g = u.grid
    spectral = np.fft.fftn(u.values) * g.phase() * g.cell_volume
    return GridFunction(g, spectral)


def inverse_transform(uhat: GridFunction) -> GridFunction:
    """Inverse of :func:`transform`; exact round trip up to round-off."""
    g = uhat.grid
    vals = np.fft.ifftn(uhat.values * g.phase()) / g.cell_volume
    return GridFunction(g, vals)


def lp_norm(u: GridFunction, p: float) -> float:
    """Discrete L^p norm (sum |u|^p h^d)^(1/p); max norm for p = inf."""
    if p == np.inf:
        return float(np.max(np.abs(u.values)))
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float((np.sum(np.abs(u.values) ** p) * u.grid.cell_volume) ** (1.0 / p))


def spectral_l2(uhat: GridFunction) -> float:
    """L^2 norm computed on the frequency side (Parseval)."""
    g = uhat.grid
    return float(np.sqrt(np.sum(np.abs(uhat.values) ** 2) * g.freq_spacing ** g.dimension))


def pair(u: GridFunction, psi: GridFunction) -> complex:
    """Real dual pairing sum u * psi * h^d (no conjugation)."""
    _require_same_grid(u, psi)
    return complex(np.sum(u.values * psi.values) * u.grid.cell_volume)


def convolve(u: GridFunction, v: GridFunction) -> GridFunction:
    """Periodic convolution on the torus, computed spectrally.

    Matches the Riemann sum sum_m u(x_m) v(x_j - x_m) h^d with v extended
    periodically; the convolution theorem holds with constant one.
    """
    _require_same_grid(u, v)
    prod = transform(u).values * transform(v).values
    return inverse_transform(GridFunction(u.grid, prod))


def standard_bump(y: np.ndarray) -> np.ndarray:
    """exp(-1/(1-|y|^2)) on |y| < 1, zero outside (not normalized)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - y[inside] ** 2))
    return out


@dataclass(frozen=True)
class Mollifier:
    """A nonnegative smooth profile with support in the unit ball.

    ``profile`` maps |y| (radial distance) to profile values.  The scaled
    family is theta_n(x) = n^d theta(n x); each discretization is normalized
    to exact unit mass on the grid, so the delta-sequence pairing property
    holds at machine precision whenever the resolution guard n h <= 1/4 is
    met.
    """

    profile: Callable[[np.ndarray], np.ndarray] = standard_bump
    name: str = "bump"

    def max_scale(self, grid: Grid) -> int:
        """Largest n with n * spacing <= 1/4."""
        return int(np.floor(0.25 / grid.spacing))

    def sample(self, grid: Grid, n: int) -> GridFunction:
        """Discretized theta_n on the grid, normalized to unit mass.

        Sampling alone does not enforce the resolution guard (a crude
        delta approximation is still a valid unit-mass grid function);
        :func:`mollify` does, since regularization quality depends on it.
        """
        if n < 1:
            raise ValueError(f"mollifier scale must be positive, got {n}")
        if grid.dimension == 1:
            r = np.abs(grid.coords())
        else:
            x, y = grid.coords()
            r = np.sqrt(x * x + y * y)
        vals = (float(n) ** grid.dimension) * self.profile(n * r)
        if np.any(vals < 0):
            raise ValueError("mollifier profile must be nonnegative")
        mass = np.sum(vals) * grid.cell_volume
        if mass <= 0:
            raise ResolutionError(f"mollifier at n={n} has no grid support")
        return GridFunction(grid, vals / mass)


@dataclass(frozen=True)
class DistributionRep:
    """A distribution in structure-theorem form: sum_alpha d^alpha g_alpha.

    ``terms`` pairs each multi-index alpha (a tuple of length d) with the
    L^p density it differentiates.
    """

    terms: Sequence[tuple]
    max_order: int = field(init=False)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("distribution needs at least one term")
        d = self.terms[0][1].grid.dimension
        for alpha, g in self.terms:
            if len(alpha) != d:
                raise ValueError(f"multi-index {alpha} does not match dimension {d}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"multi-index {alpha} has negative entries")
        object.__setattr__(self, "terms", tuple((tuple(a), g) for a, g in self.terms))
        object.__setattr__(self, "max_order", max(sum(a) for a, _ in self.terms))

    @property
    def grid(self) -> Grid:
        return self.terms[0][1].grid

    @staticmethod
    def delta(grid: Grid) -> "DistributionRep":
        return DistributionRep([((0,) * grid.dimension, GridFunction.impulse(grid))])

    @staticmethod
    def delta_derivative(grid: Grid, axis: int = 0) -> "DistributionRep":
        alpha = [0] * grid.dimension
        alpha[axis] = 1
        return DistributionRep([(tuple(alpha), GridFunction.impulse(grid))])

    @staticmethod
    def from_function(g: GridFunction) -> "DistributionRep":
        return DistributionRep([((0,) * g.grid.dimension, g)])


def _frequency_monomial(grid: Grid, alpha: tuple) -> np.ndarray:
    """(2 pi i xi)^alpha over the frequency grid."""
    if grid.dimension == 1:
        return (TWO_PI * 1j * grid.axis_frequencies()) ** alpha[0]
    fx, fy = grid.frequencies()
    return (TWO_PI * 1j * fx) ** alpha[0] * (TWO_PI * 1j * fy) ** alpha[1]


def mollify(u: DistributionRep, theta: Mollifier, n: int, p: float = 2.0) -> GridFunction:
    """Regularize: sum_alpha g_alpha * theta_n^(alpha), computed spectrally.

    The derivative lands on the mollifier: each term multiplies the
    transforms of g_alpha and theta_n by (2 pi i xi)^alpha.  Raises
    :class:`ResolutionError` when n h > 1/4.
    """
    grid = u.grid
    if n * grid.spacing > 0.25:
        raise ResolutionError(
            f"scale n={n} unresolved on this grid: max usable n = {theta.max_scale(grid)}")
    theta_hat = transform(theta.sample(grid, n)).values
    acc = np.zeros(grid.shape, dtype=complex)
    for alpha, g in u.terms:
        if not np.isfinite(lp_norm(g, p)):
            raise ValueError(f"term {alpha} has non-finite L^{p} norm")
        acc = acc + _frequency_monomial(grid, alpha) * theta_hat * transform(g).values
    out = inverse_transform(GridFunction(grid, acc))
    if not np.all(np.isfinite(out.values)):
        raise ValueError("mollified result is non-finite")
    return out
