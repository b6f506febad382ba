"""Integrated semigroups, resolvents, sampled operator levels and growth certification.

Every operator here is diagonal in frequency: a scalar field over the grid
frequencies applied as F^-1 (factor . F u).  The once-integrated semigroup of
a symbol a has per-mode factor

    phi(t, a) = integral_0^t exp(s a) ds = (exp(t a) - 1) / a,

an entire function of a evaluated from real expm1, exp, sin and cos, with a
Taylor expansion near t a = 0.  The resolvent factor is 1/(lambda - a).  The
Laplace identity R(lambda) = lambda integral_0^inf exp(-lambda t) S(t) dt, by
``time_integral`` at b = -lambda (the functional-equation and perturbation
oracles' kernel too), the pseudoresolvent identity and the Bromwich inversion
are mutual oracles.  They take the symbol values a = a_n, as ``phi`` does, and
reduce their defects d to ||F^-1(d F u)||_2 / ||u||_2 by :func:`relative_defects`.

A :class:`Level` is a sampled family of such operators, row j being w_j F_j(a_n):
:data:`generator_level`, :func:`resolvent_level`, :func:`semigroup_level` and
:func:`derivative_level` (Arendt's generation bound).  Its sups have two reductions:
``association.check_association`` takes the L^2 norms of w (F(a_n) - F(a~_n)) on test
sequences, and :func:`operator_sups` the operator norms |w| max_xi |F(a_n)|, on which
:func:`certify_growth` and the resolvent-norm bounds rest.  Every check that evaluates
symbols takes the run's :class:`Evaluations`, which calls ``SymbolSeq.on_grid`` once per
(family value, n) and holds what the association checks share.
"""
from __future__ import annotations

import cmath
import contextlib
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Sequence

import numpy as np

from .errors import OverflowGuardError, ResolventSingularityError
from .quadrature import GAUSS_NODES_PER_PANEL, _gauss_rule, trapezoid_weights
from .spectral import Grid, GridFunction, lp_norm
from .symbols import MIN_FIT_INDICES, ModerateSeq, SymbolSeq, fit_moderate, is_moderate_fit

#: admissibility margin for 1/(lambda - a) conditioning
RESOLVENT_MARGIN = 1e-8

#: |t a| below which phi takes its Taylor expansion instead of dividing by a
PHI_TAYLOR_THRESHOLD = 1e-6

#: exp overflow guard on Re(a) * t
EXP_GUARD = 700.0

#: panels of the composite Gauss rule behind every time integral, folded 8 x 8
TIME_INTEGRAL_PANELS = 64
_FOLD = 8
#: points per entry at which ``time_integral`` evaluates phi: 8 + 8 starts, 12 offsets
TIME_INTEGRAL_LEVELS = 2 * _FOLD + GAUSS_NODES_PER_PANEL
#: largest step |Im lambda| T / 64, T = 40/(Re lambda - omega), at which the Laplace suite
#: keeps its 1e-8 gate: on perfbench verify seeds 0-31, a 2-D grid and the fractional family
#: at Re lambda - omega in [1.05, 1100], step 16 reads at most 2.8e-9 and 17 fails at 1.05;
#: the defect grows like 1/(Re lambda - omega) nearer omega (2.6e-8 at step 16 and 0.1)
LAPLACE_STEP_MAX = 16.0

#: complex entries per block of the (node x mode) quadrature oracles: 256 KiB,
#: so a block and its phi temporaries stay in cache and the peak stays small
BLOCK_ENTRIES = 2**14


def block_rows(width: int) -> int:
    """Rows of ``width`` entries in one block of ``BLOCK_ENTRIES``, at least one."""
    return max(1, BLOCK_ENTRIES // max(width, 1))


def sample_axis(values, grid: Grid) -> np.ndarray:
    """``values`` as a leading sample axis that broadcasts against ``grid.shape``."""
    return np.reshape(values, np.shape(values) + (1,) * grid.dimension)


def weight_axis(weights: Iterable, samples: Sequence, value: float, label: str,
                grid: Grid, param: str = "b") -> np.ndarray:
    """The weights, one per sample and read lazily, as a sample axis; one that overflows from
    a finite ``param`` = value and sample raises a ``ValueError`` naming both (NaN in, NaN out)."""
    kept = []
    with contextlib.suppress(OverflowError, ZeroDivisionError):  # ** and math.exp raise
        for w, x in zip(weights, samples):
            if not cmath.isfinite(w) and math.isfinite(value) and cmath.isfinite(x):
                break
            kept.append(w)
    if len(kept) < len(samples):
        raise ValueError(f"non-finite weight at {param} = {value}, {label} = {samples[len(kept)]}")
    return sample_axis(kept, grid)


def phi(t, a) -> np.ndarray:
    """(exp(t a) - 1)/a, the integrated-semigroup factor; entire in a.

    ``t`` may be an array of times broadcasting against ``a``, such as
    ``sample_axis(times, grid)``; each entry equals the scalar-t call bitwise.
    With ta = x + iy, s = sin(y/2) and c = cos(y/2), e^(ta) - 1 is
    expm1(x) - 2 e^x s^2 + 2i e^x s c: real ufuncs on every entry, free of the
    e^(ta) - 1 cancellation, and no intermediate exceeds e^x, so
    ``OverflowGuardError`` names t exactly where |e^(ta)| overflows, and the largest
    t where the product t a itself does.  Entries with
    |t a| below 1e-6 (a = 0, subnormal a) skip the division by a and take the
    Taylor expansion t (1 + ta/2 + (ta)^2/6 + (ta)^3/24) instead.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"phi needs t >= 0, got {np.min(t)}")
    a = np.asarray(a, dtype=complex)
    ta = None
    with np.errstate(over="raise"):
        try:
            ta = t * a
            t, a = np.broadcast_to(t, ta.shape), np.broadcast_to(a, ta.shape)
            small = np.abs(ta) < PHI_TAYLOR_THRESHOLD
            out = np.empty_like(ta)
            x, half = ta.real, 0.5 * ta.imag
            s = np.sin(half)
            es = np.exp(x)
            es *= s
            c = np.cos(half)
            c *= 2.0
            np.multiply(es, c, out=out.imag)
            es *= s
            # subtracted twice: 2 e^x s^2 itself could exceed e^x
            np.expm1(x, out=out.real)
            out.real -= es
            out.real -= es
            np.divide(out, a, out=out, where=~small)
        except FloatingPointError as exc:
            # t a itself overflows first at the largest t, e^(t a) at the largest Re(t a)
            at = (np.max(t) if ta is None
                  else t[np.unravel_index(np.nanargmax(ta.real), ta.shape)])
            raise OverflowGuardError(f"exp(t a) overflow at t={at}") from exc
    if small.any():
        z = ta[small]
        out[small] = t[small] * (1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0)
    return out


def time_integral(t, a, b) -> np.ndarray:
    """integral_0^t e^(s b) phi(s, a) ds by the composite Gauss rule on 64 panels.

    ``t``, ``a`` and ``b`` broadcast (t >= 0).  With the 64 panels folded 8 x 8, a
    node is s = c + f + r: coarse start, fine start, in-panel offset.  Per level,
    E = sum w e^(s b), P = sum w e^(s b) phi(s, a) and X = sum w e^(s a) e^(s b),
    with w = 1 on the starts and the Gauss weights on the offsets, combine as
    (E, P, X).(e, p, x) = (E e, P e + X p, X x), since phi(u + v, a) = phi(u, a)
    + e^(u a) phi(v, a).  So phi runs on the 8 + 8 + 12 = ``TIME_INTEGRAL_LEVELS``
    points per entry of a, not on 768 nodes, and e^(s b) on 28 per entry of t and b:
    a scalar b (the Laplace check, a xi-constant perturbation, the functional-equation
    suite at b = 0) costs 28 per time.  The start levels' e^(s a) come from that phi
    block as 1 + a phi(s, a), within a few ulp x (1 + |e^(s a)|) of exp.  Overflow
    raises ``FloatingPointError`` (phi's: ``OverflowGuardError``).
    """
    gx, gw = _gauss_rule(GAUSS_NODES_PER_PANEL)
    starts = np.concatenate([_FOLD * np.arange(_FOLD), np.arange(_FOLD)])
    h = np.asarray(t, dtype=float) / TIME_INTEGRAL_PANELS
    # a level axis in front of the broadcast dimensions, so a scalar t or b stays unexpanded
    lead = (-1,) + (1,) * max(np.ndim(t), np.ndim(a), np.ndim(b))
    pts = np.reshape(np.concatenate([starts, 0.5 * (1.0 + gx)]), lead) * h
    weights = np.reshape(0.5 * gw, lead) * h
    c, f, q = slice(0, _FOLD), slice(_FOLD, starts.size), slice(starts.size, None)
    with np.errstate(over="raise"):
        e_b = np.exp(pts * b)
        phi_a = phi(pts, a)
        p_b = e_b * phi_a
        x_b = (1.0 + a * phi_a[:starts.size]) * e_b[:starts.size]
        # P and X of (E, P, X)_coarse . (E, P, X)_fine
        p_cf = (p_b[c].sum(axis=0) * e_b[f].sum(axis=0)
                + x_b[c].sum(axis=0) * p_b[f].sum(axis=0))
        x_cf = x_b[c].sum(axis=0) * x_b[f].sum(axis=0)
        # times (E, P)_offsets: its P is the integral
        return (p_cf * np.sum(weights * e_b[q], axis=0)
                + x_cf * np.sum(weights * p_b[q], axis=0))


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


def power_spectra(us: Sequence[GridFunction]) -> np.ndarray:
    """The Parseval weights |(F u)_k|^2 h^dim / N^dim of each grid function u.

    Shape (len(us),) + grid.shape; one forward FFT per u.
    """
    grid = us[0].grid
    if any(u.grid != grid for u in us):
        raise ValueError("operands live on different grids")
    spectra = np.stack([np.abs(np.fft.fftn(u.values)) ** 2 for u in us])
    spectra *= grid.cell_volume / spectra[0].size
    return spectra


def multiplier_norms(factors: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """||F^-1(d . F u)||_2 for each factor d in the block (rows) and grid function u (columns).

    ``factors`` has shape (K,) + grid.shape and ``spectra`` is :func:`power_spectra` of
    the u.  Parseval gives sqrt(sum_k |d_k|^2 w_k) for the weights w of u: no inverse
    FFT, and one (K x modes) @ (modes x len(us)) product.  A factor too large to square
    gives an inf or NaN norm, without a warning, for the caller to refuse.
    """
    if np.shape(factors)[1:] != spectra.shape[1:]:
        raise ValueError(f"factor shape {np.shape(factors)[1:]} != grid shape "
                         f"{spectra.shape[1:]}")
    spectra = spectra.reshape(len(spectra), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.abs(factors).reshape(len(factors), spectra.shape[1]) ** 2
        return np.sqrt(power @ spectra.T)


def relative_defects(defects: np.ndarray, u: GridFunction) -> np.ndarray:
    """||F^-1(d . F u)||_2 / ||u||_2 for each defect factor d of the (K,) + grid.shape block.

    One :func:`multiplier_norms` call, whose appended unit factor gives ||u||_2; a zero u
    gives zeros.  Every identity oracle reduces its defects here.
    """
    norms = multiplier_norms(np.concatenate([defects, np.ones((1,) + u.grid.shape)]),
                             power_spectra([u]))[:, 0]
    return norms[:-1] / norms[-1] if norms[-1] else np.zeros_like(norms[:-1])


def resolvent_factor(a: np.ndarray, lam, grid: Grid, n: int) -> np.ndarray:
    """Per-mode factor 1/(lambda - a) of symbol values a = a_n; lambdas add a leading axis.

    A lambda within ``RESOLVENT_MARGIN`` of a value of a raises, naming it as passed, xi and n.
    """
    diff = sample_axis(lam, grid) - a
    gap = np.abs(diff)
    if gap.size and np.min(gap) <= RESOLVENT_MARGIN:
        hit = np.unravel_index(int(np.argmin(gap)), gap.shape)
        lead = gap.ndim - a.ndim
        raise ResolventSingularityError(
            f"lambda={lam[hit[0]] if lead else lam} within {RESOLVENT_MARGIN} of symbol value "
            f"at xi={grid.frequency_vectors()[hit[lead:]]} (n={n})")
    return np.divide(1.0, diff, out=diff)


@dataclass(frozen=True, eq=False)
class Level:
    """Sampled diagonal operators w_j F_j(a_n), one row each.

    ``weights`` has shape (rows,) + (1,) * dim, and ``factor(n, a)`` gives the
    (rows,) + grid.shape block F(a) of the symbol values a = a_n.  Compared by identity.
    """

    weights: np.ndarray
    factor: Callable[[int, np.ndarray], np.ndarray]


#: a_n itself, one row
generator_level = Level(np.ones(1), lambda n, a: a[None])


def resolvent_level(lambda_samples: Sequence[complex], grid: Grid, b: float = 0.0,
                    omega: float = -math.inf) -> Level:
    """lambda^b R(lambda, a_n) per lambda sample, each with Re > omega.

    The defaults give the plain resolvent level; b and omega give the weighted one.
    A weight lambda^b that overflows raises ``ValueError`` (:func:`weight_axis`).
    """
    for lam in lambda_samples:
        if not complex(lam).real > omega:
            raise ValueError(f"lambda sample {lam} has Re <= omega {omega}")
    return Level(weight_axis((complex(lam)**b for lam in lambda_samples), lambda_samples, b,
                             "lambda", grid),
                 lambda n, a: resolvent_factor(a, lambda_samples, grid, n))


def semigroup_level(omega: float, t_samples: Sequence[float], grid: Grid) -> Level:
    """e^(-omega t) phi(t, a_n) per time sample; an overflowing weight raises ``ValueError``."""
    times = sample_axis(np.asarray(t_samples, dtype=float), grid)
    return Level(weight_axis((math.exp(-omega * t) for t in map(float, t_samples)), t_samples,
                             omega, "t", grid, param="omega"),
                 lambda n, a: phi(times, a))


def _orders(k_max: int) -> range:
    """The derivative orders 0..k_max; k_max beyond 60 is refused.

    The partial-fraction form keeps all powers as ratios, so no factorial
    ever materializes; the bound keeps the checks inside their documented
    envelope.
    """
    if k_max > 60:
        raise ValueError("k_max > 60 exceeds the factorial-overflow guard")
    return range(k_max + 1)


def resolvent_over_lambda_derivative(lam: float, a: np.ndarray, k: int) -> np.ndarray:
    """k-th lambda-derivative of 1/(lambda (lambda - a)) divided by k!.

    For a != 0:  (1/a) (-1)^k k! ((lambda-a)^(-k-1) - lambda^(-k-1)); the
    a = 0 modes reduce to (-1)^k (k+1)! lambda^(-k-2).  The k! cancels in
    the certified quantity, so everything is computed through the stable
    ratio form without explicit factorials.
    """
    a = np.asarray(a, dtype=complex)
    sign = -1.0 if k % 2 else 1.0
    safe = np.where(a == 0, 1.0, a)
    general = sign / safe * ((lam - a) ** (-k - 1) - lam ** (-k - 1))
    zero_mode = sign * (k + 1) * lam ** (-k - 2)
    return np.where(a == 0, zero_mode, general)


def derivative_level(omega: float, k_max: int, lambda_list: Sequence[float],
                     grid: Grid) -> Level:
    """(lambda - omega)^(k+1) (d/dlambda)^k (R(lambda, a_n)/lambda) / k! per (lambda, k).

    Rows run over lambda > omega and k <= k_max, k fastest.  A bound on their operator
    norms uniform in lambda and k is Arendt's condition for generating an exponentially
    bounded once-integrated semigroup.
    """
    orders = _orders(k_max)
    for lam in lambda_list:
        if not lam > omega:
            raise ValueError(f"lambda={lam} must exceed omega={omega}")
    weights = sample_axis([(lam - omega) ** (k + 1) for lam in lambda_list for k in orders], grid)
    return Level(weights, lambda n, a: np.array(
        [resolvent_over_lambda_derivative(float(lam), a, k) for lam in lambda_list for k in orders],
        dtype=complex).reshape((-1,) + grid.shape))


#: a test sequence n -> x_n of the association checks
TestSequence = Callable[[int], GridFunction]


class Evaluations:
    """What one subcommand run evaluates, each once, on its grid; each runner makes one.

    It holds a_n per (family value, n); each distinct test function's power spectrum,
    per (test sequence, n); each (test sequence, n_list) moderateness fit; and each level
    block F(a_n) asked for twice, per level, family value and n, while the level lives.
    Test sequences are keys by identity, held here.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._values: Dict[tuple, np.ndarray] = {}
        self._spectra: Dict[tuple, np.ndarray] = {}
        self._by_value: Dict[bytes, np.ndarray] = {}
        self._fits: Dict[tuple, ModerateSeq] = {}
        self._blocks = weakref.WeakKeyDictionary()

    def values(self, s: SymbolSeq, n: int) -> np.ndarray:
        """a_n of s on the grid, evaluated once per (family value, n) and read-only, since
        every caller shares it.  A failed evaluation is not kept, so each caller reports it."""
        a = self._values.get((s, n))
        if a is None:  # a copy fills the space the evaluation freed, not the top of the heap
            a = self._values[s, n] = s.on_grid(n, self.grid).copy()
            a.setflags(write=False)
        return a

    def verify_moderate(self, test_seqs: Sequence[TestSequence], n_list: Sequence[int]) -> None:
        """Precondition of the association checks: test sequences are moderate, the one
        quantitative membership condition, since domain and range identities of multiplier
        families on a shared grid hold structurally."""
        if len(n_list) < MIN_FIT_INDICES:
            return
        for i, seq in enumerate(test_seqs):
            key = (seq, tuple(n_list))
            if key not in self._fits:
                self._fits[key] = fit_moderate({n: lp_norm(seq(n), 2) for n in n_list})
            if not is_moderate_fit(self._fits[key]):
                raise ValueError(f"test sequence {i} is not moderate "
                                 f"(fitted exponent {self._fits[key].slope:.2f})")

    def spectra(self, test_seqs: Sequence[TestSequence], n: int) -> np.ndarray:
        """:func:`power_spectra` of the sequences' values at n.  Each sequence is evaluated
        once per n and each distinct value transformed once: a fixed function costs one FFT."""
        for i, seq in enumerate(test_seqs):
            if (seq, n) in self._spectra:
                continue
            u = seq(n)
            if u.grid != self.grid:
                raise ValueError(f"test sequence {i} at n={n} lives on {u.grid}, "
                                 f"not on {self.grid}")
            key = u.values.tobytes()  # complex, of the grid's shape
            if key not in self._by_value:
                self._by_value[key] = power_spectra([u])[0]
            self._spectra[seq, n] = self._by_value[key]
        return np.stack([self._spectra[seq, n] for seq in test_seqs])

    def block(self, s: SymbolSeq, n: int, level: Level) -> np.ndarray:
        """level.factor(n, a_n) of s.  A block asked for again, while its first request holds
        it (an equal family in the same call) or later, is kept while its level lives: one
        base block serves every pair of the cross-check, and one asked for once is freed."""
        asked = self._blocks.setdefault(level, {})
        first = asked.get((s, n))
        if isinstance(first, np.ndarray):
            return first
        block = None if first is None else first()
        if block is None:
            block = level.factor(n, self.values(s, n))
        asked[s, n] = weakref.ref(block) if first is None else block
        return block


def operator_sups(s: SymbolSeq, levels: Mapping[str, Level], ev: Evaluations,
                  n_list: Sequence[int]) -> Dict[str, np.ndarray]:
    """Per label, the (len(n_list), rows) operator norms |w| max_xi |F(a_n)|.

    For diagonal operators the L^2 operator norm is the max of the factor magnitude
    over the grid modes.  a_n comes from ``ev`` once per n for all levels.  Rounding is
    monotone, so for w >= 0 each entry equals max_xi (w |F|) bitwise; np.max keeps a NaN.
    A level whose factors at n raise ``OverflowGuardError`` has no finite sup there:
    its row at n is NaN, for the caller to refuse naming the level and n.
    """
    modes = tuple(range(1, ev.grid.dimension + 1))
    scales = {label: np.abs(level.weights).ravel() for label, level in levels.items()}
    sups = {label: np.empty((len(n_list), scale.size)) for label, scale in scales.items()}
    for i, n in enumerate(n_list):
        a = ev.values(s, n)
        for label, level in levels.items():
            try:
                sups[label][i] = scales[label] * np.max(np.abs(level.factor(n, a)), axis=modes)
            except OverflowGuardError:
                sups[label][i] = np.nan
    return sups


def laplace_identity_residual(a: np.ndarray, n: int, lam: complex, u: GridFunction,
                              T: float) -> float:
    """Relative defect of R(lambda) u = lambda integral_0^T e^(-lambda t) S(t) u dt.

    ``a`` is the symbol a_n on the grid of u; n names the index in errors.  The
    transform is ``time_integral(T, a, -lambda)`` on chunks of
    ``block_rows(TIME_INTEGRAL_LEVELS)`` modes (256 modes are one chunk); the
    scenarios use T = 40/(Re lambda - omega), and ``LAPLACE_STEP_MAX`` bounds the
    step |Im lambda| T / 64 at which the rule resolves e^(-lambda t).  An overflow, or
    T sup Re a_n > ``EXP_GUARD``, raises naming lambda, n and T.
    """
    grid = u.grid
    target = resolvent_factor(a, lam, grid, n)  # raises on spectral proximity
    omega = float(np.max(a.real))
    if not lam.real > omega:
        raise ValueError(f"need Re lambda > sup Re a_n = {omega}, got {lam}")
    if np.exp((omega - lam.real) * T) >= 1e-12:
        raise ValueError(f"T={T} leaves a truncation tail above 1e-12")
    stage = f"Laplace identity at lambda={lam}, n={n}, T={T:.6g}"
    if omega * T > EXP_GUARD:  # S(T) itself overflows
        raise OverflowGuardError(f"{stage}: T sup Re a_n = {omega * T:.4g} overflows S(T)")
    rows = block_rows(TIME_INTEGRAL_LEVELS)
    try:
        quad = np.concatenate([time_integral(T, a.flat[i0:i0 + rows], -lam)
                               for i0 in range(0, a.size, rows)])
    except (FloatingPointError, OverflowGuardError) as exc:
        raise OverflowGuardError(f"{stage}: {exc}") from exc
    defect = target - lam * quad.reshape(grid.shape)
    return float(relative_defects(defect[None], u)[0])


def pseudoresolvent_residual(a: np.ndarray, n: int, lam, mu, u: GridFunction):
    """Relative defect of R(lam) - R(mu) = (mu - lam) R(lam) R(mu) on u, for the symbol a = a_n.

    Two numbers give a float, equal-length sequences one residual per pair from
    one ``resolvent_factor`` and one :func:`relative_defects` call.  A zero u gives
    zeros; lam = mu gives exactly zero.
    """
    grid = u.grid
    lams, mus = np.atleast_1d(lam), np.atleast_1d(mu)
    if lams.ndim != 1 or lams.shape != mus.shape:
        raise ValueError(f"lambda and mu need equal lengths, got {lams.shape} and {mus.shape}")
    rl, rm = np.split(resolvent_factor(a, np.append(lams, mus), grid, n), 2)
    residuals = relative_defects(rl - rm - sample_axis(mus - lams, grid) * rl * rm, u)
    return float(residuals[0]) if np.ndim(lam) == 0 else residuals


def bromwich_S(a: np.ndarray, n: int, times: Sequence[float], alpha: float, r_max: float,
               steps: int) -> np.ndarray:
    """Contour-inversion oracle for the integrated semigroup of the symbol a = a_n.

    Trapezoid discretization of
    (1/2 pi) integral_-R^R e^((alpha+ir)t) / ((alpha+ir) (alpha+ir - a)) dr
    on the vertical line Re lambda = alpha > omega, per mode: the factor block of
    shape (len(times),) + a.shape.  Truncation decays like 1/r_max at fixed t > 0,
    so this is an independent, slowly converging check on ``phi(t, a)``.

    The nodes r_j and weights are symmetric in r, and alpha and t are real, so the
    sum at conj(a) is the conjugate of the sum at a: the kernel runs once per
    distinct value Re a + i |Im a| (129 of the 256 modes of a real-coefficient
    symbol on 256 points, 147 of the 1,024 of heat on 32 x 32), and the modes with
    Im a < 0 take the conjugate of their value's column.

    One pass over the nodes serves all times, in real arithmetic: with
    p_k = alpha - Re a_k > 0 and q_jk = r_j - Im a_k, the Cauchy kernel is
    1/(lambda_j - a_k) = (p_k - i q_jk) / d_jk, d_jk = p_k^2 + q_jk^2.  Per block
    of (node, mode) entries, in one real buffer of the bytes of ``BLOCK_ENTRIES``
    complex entries reused by every block, 1/d and q/d are built in place, and
    the block's (Re, Im) time weights w_j e^(lambda_j t_i) / lambda_j, stacked
    as 2 x times rows, take one real matrix product with both; the weights are
    built per block, never for all nodes.  The sums W D and W Q give
    p (W D) - i (W Q) at the end.  On the line d >= (alpha - omega)^2, so the
    spectral-proximity scan min d <= RESOLVENT_MARGIN^2 runs only when
    alpha - omega <= RESOLVENT_MARGIN.
    """
    omega = float(np.max(a.real))
    if not alpha > omega:
        raise ValueError(f"contour abscissa must exceed sup Re a_n = {omega}")
    times = np.asarray(times, dtype=float)
    r = np.linspace(-r_max, r_max, steps + 1)
    w = trapezoid_weights(steps + 1, r[1] - r[0])
    flat = a.reshape(-1)
    # one column per distinct value up to conjugation
    values, inverse = np.unique(flat.real + 1j * np.abs(flat.imag), return_inverse=True)
    # lambda_j - a_k = p_k + i q_jk, so 1/(lambda_j - a_k) = (p_k - i q_jk) / d_jk
    p, im = alpha - values.real, values.imag.copy()
    nt = len(times)
    # W D and W Q, W the (Re, Im) weights stacked: axes (D or Q, Re/Im x time, mode)
    acc = np.zeros((2, 2 * nt, values.size))
    rows = block_rows(values.size)
    kernel = np.empty((2, min(rows, len(r)), values.size))
    try:  # an overflow, say of p^2 or q^2 for |a| near 1e308, would leave a vacuous sum
        with np.errstate(over="raise"):
            p2 = p * p
            for i0 in range(0, len(r), rows):
                r_blk = r[i0:i0 + rows]
                inv_d, q_d = kernel[:, :len(r_blk)]
                np.subtract(r_blk[:, None], im, out=q_d)
                np.square(q_d, out=inv_d)
                inv_d += p2
                if alpha - omega <= RESOLVENT_MARGIN and np.min(inv_d) <= RESOLVENT_MARGIN ** 2:
                    raise ResolventSingularityError(
                        "contour passes through the numerical spectrum")
                np.reciprocal(inv_d, out=inv_d)
                q_d *= inv_d
                lam = alpha + 1j * r_blk
                weights = w[i0:i0 + rows] * np.exp(times[:, None] * lam) / lam
                acc += np.concatenate([weights.real, weights.imag]) @ kernel[:, :len(r_blk)]
            d_re, d_im, q_re, q_im = acc.reshape(4, nt, values.size)
            factors = (((p * d_re + q_im) + 1j * (p * d_im - q_re)) / (2.0 * np.pi))[:, inverse]
    except FloatingPointError as exc:
        raise OverflowGuardError(f"Bromwich oracle at alpha={alpha}, n={n}, r_max={r_max}: "
                                 f"the contour sum overflows ({exc})") from exc
    np.conjugate(factors, out=factors, where=flat.imag < 0)
    return factors.reshape((nt,) + np.shape(a))


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
    resolvent_bounds: dict = field(default_factory=dict)
    semigroup_bounds: dict = field(default_factory=dict)
    resolvent_fit: object = None


def certify_growth(s: SymbolSeq, n_list: Sequence[int], omega: float, b: float,
                   lambda_samples: Sequence[complex], t_samples: Sequence[float],
                   ev: Evaluations) -> GrowthCertificate:
    """Sample the half-plane resolvent bound and the weighted semigroup bound.

    Both bounds are maxima of :func:`operator_sups` over the sample sets, so exact
    maxima over (sample set) x (grid modes).  A lambda sample on the numerical
    spectrum raises ``ResolventSingularityError`` from :func:`resolvent_factor`,
    naming lambda, xi and n; an overflowing weight (:func:`weight_axis`) or a non-finite
    bound, named M_n or M'_n with n, raises ``ValueError``; a factor past phi's overflow
    guard makes its bound NaN (:func:`operator_sups`).  The moderateness exponent of M_n
    is fitted when at least ``MIN_FIT_INDICES`` indices are given.
    """
    cert = GrowthCertificate(omega=omega, b=b, n_list=list(n_list))
    lams = [complex(lam) for lam in lambda_samples]
    times = np.asarray(t_samples, dtype=float)
    if np.any(times <= 0):
        raise ValueError("t samples must be positive")
    # the levels' factors with the certificate's weights |lambda|^b and e^(-omega t) t^(-b)
    grid = ev.grid
    lam_weights = weight_axis((abs(lam) ** b for lam in lams), lams, b, "lambda", grid)
    with np.errstate(over="ignore", invalid="ignore"):
        t_weights = weight_axis(np.exp(-omega * times) * times ** (-b), times, b, "t", grid)
    levels = {"resolvent": Level(lam_weights, resolvent_level(lams, grid, omega=omega).factor),
              "semigroup": Level(t_weights, semigroup_level(omega, times, grid).factor)}
    sups = operator_sups(s, levels, ev, n_list)
    # np.max keeps a NaN bound, which the builtin max would read as 0
    cert.resolvent_bounds = {n: float(np.max(row)) for n, row in zip(n_list, sups["resolvent"])}
    cert.semigroup_bounds = {n: float(np.max(row)) for n, row in zip(n_list, sups["semigroup"])}
    for name, bounds in (("M_n", cert.resolvent_bounds), ("M'_n", cert.semigroup_bounds)):
        for n, v in bounds.items():
            if not math.isfinite(v):
                raise ValueError(f"growth bound {name} at n={n} is {v}")
    if len(n_list) >= MIN_FIT_INDICES:
        cert.resolvent_fit = fit_moderate(cert.resolvent_bounds)
    return cert
