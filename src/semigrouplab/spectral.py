"""Periodic grids, discrete Fourier transforms, the mollifier and regularization.

The continuum R^d is truncated to the torus [-Lambda, Lambda)^d sampled with
N points per axis.  :class:`Grid` is the one place that lays out points: every
sampled field is an array of shape ``grid.shape``, and the points themselves
come as ``coordinate_vectors()`` and ``frequency_vectors()``, arrays of shape
``grid.shape + (d,)``, so formulas in x or xi are written once for every d.
The Fourier convention is

    F u(xi) = integral u(x) exp(-2 pi i xi x) dx,

so differentiation d/dx acts as multiplication by 2 pi i xi, the Gaussian
exp(-pi x^2) is self-dual, and the convolution theorem carries no constant.
Grid frequencies are xi_k = k / (2 Lambda) for k = -N/2 .. N/2 - 1, stored in
the standard FFT layout.  The sampled transform

    uhat_k = h * (-1)^k * FFT(u)_k,        h = 2 Lambda / N,

is the Riemann sum of the continuum integral at xi_k; the (-1)^k phase
accounts for the leftmost sample sitting at x = -Lambda.

Distributions are regularized with one mollifier, the standard bump
theta(x) = exp(-1/(1-|x|^2)) scaled to theta_n(x) = n^d theta(n x) with unit
mass on the grid (:func:`mollifier`).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

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
        if not _is_power_of_two(self.points):
            raise ValueError(f"points must be a power of two, got {self.points}")
        # the symbols square z_j = 2 pi i xi_j and sum over j, so at the largest frequency
        # d (2 pi xi)^2 must be finite too
        if not (0 < self.half_width < np.inf and 0 < self.cell_volume < np.inf
                and 0 < self.freq_spacing ** self.dimension < np.inf
                and self.dimension * (z := TWO_PI * self.max_frequency) * z < np.inf):
            raise ValueError(f"half_width must be finite and positive, with a finite positive "
                             f"spacing, frequency spacing and sum of (2 pi xi_j)^2 at the largest "
                             f"frequency in dimension {self.dimension} on {self.points} points, "
                             f"got {self.half_width}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def freq_spacing(self) -> float:
        return 1.0 / (2.0 * self.half_width)

    @property
    def max_frequency(self) -> float:  # the largest |xi_k| of an axis, as axis_frequencies
        return (self.points // 2) * (1.0 / (self.points * self.spacing))

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dimension

    def axis_points(self) -> np.ndarray:
        """Sample positions along one axis: -Lambda + j h."""
        return -self.half_width + self.spacing * np.arange(self.points)

    def axis_frequencies(self) -> np.ndarray:
        """Frequencies xi_k = k/(2 Lambda) along one axis, FFT layout."""
        return np.fft.fftfreq(self.points, d=self.spacing)

    def _vectors(self, axis: np.ndarray) -> np.ndarray:
        """Points of the tensor grid ``axis``^d, stacked on a trailing axis of length d.

        Entry [..., j] varies along array axis j only ("ij" indexing).
        """
        d = self.dimension
        out = np.empty(self.shape + (d,))
        for j in range(d):
            out[..., j] = axis.reshape((-1,) + (1,) * (d - 1 - j))
        return out

    def coordinate_vectors(self) -> np.ndarray:
        """Sample positions x, shape ``shape + (d,)``."""
        return self._vectors(self.axis_points())

    def frequency_vectors(self) -> np.ndarray:
        """Frequencies xi in FFT layout, shape ``shape + (d,)``."""
        return self._vectors(self.axis_frequencies())

    def phase(self) -> np.ndarray:
        """(-1)^k phase factors in FFT layout, tensorized over axes."""
        k = np.fft.fftfreq(self.points) * self.points
        p = np.where(k.astype(int) % 2 == 0, 1.0, -1.0)
        return functools.reduce(np.multiply.outer, [p] * self.dimension)


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
        """exp(-pi |x/width|^2); unit mass for width 1."""
        x = grid.coordinate_vectors()
        return GridFunction(grid, np.exp(-np.pi * np.sum((x / width) ** 2, axis=-1)))

    @staticmethod
    def impulse(grid: Grid) -> "GridFunction":
        """Discrete delta: value 1/h^d at x = 0, zero elsewhere (unit mass)."""
        vals = np.zeros(grid.shape, dtype=complex)
        center = (grid.points // 2,) * grid.dimension
        vals[center] = 1.0 / grid.cell_volume
        return GridFunction(grid, vals)


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


def standard_bump(y: np.ndarray) -> np.ndarray:
    """exp(-1/(1-|y|^2)) on |y| < 1, zero outside (not normalized)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - y[inside] ** 2))
    return out


def mollifier(grid: Grid, n: int) -> GridFunction:
    """theta_n(x) = n^d theta(n |x|) for the standard bump theta, at unit mass.

    The samples are normalized to exact unit mass on the grid, so the
    delta-sequence pairing property holds at machine precision.  Sampling
    alone does not enforce the resolution guard n h <= 1/4 (a crude delta
    approximation is still a valid unit-mass grid function); :func:`mollify`
    does, since regularization quality depends on it.
    """
    if n < 1:
        raise ValueError(f"mollifier scale must be positive, got {n}")
    x = grid.coordinate_vectors()
    r = np.sqrt(np.sum(x * x, axis=-1))
    vals = (float(n) ** grid.dimension) * standard_bump(n * r)
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

    @property
    def grid(self) -> Grid:
        return self.terms[0][1].grid

    @staticmethod
    def delta(grid: Grid) -> "DistributionRep":
        return DistributionRep([((0,) * grid.dimension, GridFunction.impulse(grid))])

    @staticmethod
    def delta_derivative(grid: Grid) -> "DistributionRep":
        """d/dx_1 of the delta."""
        alpha = (1,) + (0,) * (grid.dimension - 1)
        return DistributionRep([(alpha, GridFunction.impulse(grid))])

    @staticmethod
    def from_function(g: GridFunction) -> "DistributionRep":
        return DistributionRep([((0,) * g.grid.dimension, g)])


def _frequency_monomial(grid: Grid, alpha: tuple) -> np.ndarray:
    """(2 pi i xi)^alpha = prod_j (2 pi i xi_j)^alpha_j over the frequency grid."""
    xi = grid.frequency_vectors()
    return np.prod((TWO_PI * 1j * xi) ** np.array(alpha), axis=-1)


def mollify(u: DistributionRep, n: int) -> GridFunction:
    """Regularize: sum_alpha g_alpha * theta_n^(alpha), computed spectrally.

    The derivative lands on the mollifier: each term multiplies the
    transforms of g_alpha and theta_n by (2 pi i xi)^alpha.  Raises
    :class:`ResolutionError` when n h > 1/4.
    """
    grid = u.grid
    if n * grid.spacing > 0.25:
        raise ResolutionError(f"scale n={n} unresolved on this grid: "
                              f"max usable n = {int(np.floor(0.25 / grid.spacing))}")
    theta_hat = transform(mollifier(grid, n)).values
    acc = np.zeros(grid.shape, dtype=complex)
    for alpha, g in u.terms:
        if not np.isfinite(lp_norm(g, 2)):
            raise ValueError(f"term {alpha} has non-finite L^2 norm")
        acc = acc + _frequency_monomial(grid, alpha) * theta_hat * transform(g).values
    out = inverse_transform(GridFunction(grid, acc))
    if not np.all(np.isfinite(out.values)):
        raise ValueError("mollified result is non-finite")
    return out
