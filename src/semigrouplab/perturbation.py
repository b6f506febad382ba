"""Commuting bounded perturbations of integrated-semigroup families.

For a bounded multiplier b commuting with the resolvents, the perturbed
integrated semigroup is

    S^b(t) = e^(t b) S(t) - b integral_0^t e^(s b) S(s) ds.

Per mode the s-integral has the closed form (e^(t b) phi(t,a) - phi(t,a+b));
integrating by parts shows the whole expression collapses to phi(t, a+b),
i.e. the perturbed family is the integrated semigroup of the summed symbol.
The claims suite works with that closed form, through ``summed_symbol_seq``.

The quadrature form is kept as the oracle the closed form is tested against:
``perturbation_quadrature`` takes its s-integral from ``semigroup.time_integral``
on ``PERTURBATION_PANELS`` panels.  ``perturbed_factor`` (one row per time) and
the ``verify`` perturbation suite both call it.  b goes in the shape its family
gives: every family the lab builds is constant in xi, so b stays a scalar and
the rule takes one e^(s b) per node, not one per node and mode.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .association import (SUITE_T_SAMPLES, AssociationReport, bundled_test_sequences,
                          check_association, make_association_report, resolvent_level,
                          semigroup_level)
from .errors import OverflowGuardError
from .semigroup import EXP_GUARD, GrowthCertificate, certify_growth, phi, time_integral
from .spectral import Grid, GridFunction
from .symbols import (SymbolSeq, make_poly_symbol_seq, perturbed_heat_seq, poly_sup_re,
                      shifted_symbol_seq)

#: panel count of the s-integral in the quadrature oracle
PERTURBATION_PANELS = 64


@dataclass(frozen=True)
class BoundedMultiplierSeq:
    """A perturbation family b_n(xi) with a declared uniform bound.

    Commutation with the resolvents is automatic for multipliers and is
    recorded as a structural fact.
    """

    eval: Callable[[int, np.ndarray], np.ndarray]
    c_bound: float
    name: str = "B"

    def on_grid(self, n: int, grid: Grid) -> np.ndarray:
        """b_n at the grid frequencies, FFT layout, in the shape ``eval`` gives.

        That shape must broadcast against ``grid.shape``, and it is not
        expanded: a xi-constant family stays 0-d, so the kernels take one
        e^(s b) per level instead of one per mode.
        """
        vals = np.asarray(self.eval(n, grid.frequency_vectors()), dtype=complex)
        if vals.ndim > grid.dimension or any(
                v not in (1, g) for v, g in zip(vals.shape[::-1], grid.shape[::-1])):
            raise ValueError(f"{self.name} values of shape {vals.shape} do not broadcast "
                             f"against grid shape {grid.shape}")
        return vals

    @staticmethod
    def constant(value: complex, name: str = "const") -> "BoundedMultiplierSeq":
        return BoundedMultiplierSeq(eval=lambda n, v: np.asarray(value),
                                    c_bound=abs(value), name=name)

    @staticmethod
    def vanishing(rate: Callable[[int], float], name: str = "C") -> "BoundedMultiplierSeq":
        """A constant family with sup-norms rate(n) <= 1, e.g. rate = 1/n for the ideal."""
        return BoundedMultiplierSeq(eval=lambda n, v: np.asarray(rate(n), dtype=float),
                                    c_bound=1.0, name=name)

    def plus(self, other: "BoundedMultiplierSeq", name: str = "") -> "BoundedMultiplierSeq":
        return BoundedMultiplierSeq(
            eval=lambda n, v: np.asarray(self.eval(n, v)) + np.asarray(other.eval(n, v)),
            c_bound=self.c_bound + other.c_bound,
            name=name or f"{self.name}+{other.name}")


def perturbation_quadrature(t, a, b) -> np.ndarray:
    """e^(tb) phi(t,a) - b int_0^t e^(sb) phi(s,a) ds by the composite Gauss rule.

    ``t``, ``a`` and ``b`` broadcast (t >= 0).  Nothing is evaluated at a + b, so
    the result stays independent of phi(t, a + b).  Overflows raise ``OverflowGuardError``.
    """
    with np.errstate(over="raise"):
        try:
            return np.exp(t * b) * phi(t, a) - b * time_integral(t, a, b, PERTURBATION_PANELS)
        except FloatingPointError as exc:
            raise OverflowGuardError("perturbation quadrature overflows") from exc


def perturbed_factor(s: SymbolSeq, B: BoundedMultiplierSeq, n: int, times: Sequence[float],
                     grid: Grid) -> np.ndarray:
    """Quadrature oracle per time and mode: e^(tb) phi(t,a) - b int_0^t e^(sb) phi(s,a) ds.

    Returns shape ``(len(times),) + grid.shape``.  a_n and b_n are evaluated
    once, b_n in the shape ``B.on_grid`` gives, and the Re(a+b) t and Re(b) t
    overflow guards are checked once, at the largest time.  Each time is one
    ``perturbation_quadrature`` call, so the kernel's temporaries stay one time deep.
    A zero time gives a zero row: every node and phi(0, a) are zero.
    """
    times = np.asarray(times, dtype=float)
    a = s.on_grid(n, grid)
    b = B.on_grid(n, grid)
    t_max = float(np.max(times))
    guard = float(np.max((a + b).real)) * t_max
    if guard > EXP_GUARD or float(np.max(b.real)) * t_max > EXP_GUARD:
        raise OverflowGuardError(f"Re(a+b) t = {guard:.3g} would overflow")
    return np.stack([perturbation_quadrature(t, a, b) for t in times])


def summed_symbol_seq(s: SymbolSeq, B: BoundedMultiplierSeq) -> SymbolSeq:
    """The family a_n + b_n (the generator of the perturbed semigroups)."""
    return shifted_symbol_seq(s, lambda n, v: np.asarray(B.eval(n, v), dtype=complex),
                              name=f"{s.name}+{B.name}", re_bound_shift=B.c_bound)


@dataclass
class PerturbationReport:
    """Outcome of the three perturbation claims on a family pair."""

    growth: Optional[GrowthCertificate] = None
    pair_association: Optional[AssociationReport] = None
    transported_association: Optional[AssociationReport] = None
    verdicts: dict = field(default_factory=dict)


def perturbation_claims_suite(s: SymbolSeq, s_tilde: SymbolSeq, B: BoundedMultiplierSeq,
                          C_seq: BoundedMultiplierSeq, grid: Grid,
                          n_list: Sequence[int], omega: float,
                          b: float = 1.0) -> PerturbationReport:
    """Check the three perturbation claims on multiplier families.

    1. the summed family a_n + b_n admits a growth certificate;
    2. perturbing by B versus B + C with vanishing C yields associated
       perturbed semigroups;
    3. if the unperturbed pair is associated in the strong (GE4) sense,
       the B-perturbed semigroups are associated as well.

    Claims 2 and 3 compare the perturbed semigroups in closed form, as the
    integrated semigroups of the summed families a_n + b_n, on the bundled
    Gaussian test sequence at the times ``SUITE_T_SAMPLES``.
    """
    test_seqs = [bundled_test_sequences(grid)["gaussian"]]
    report = PerturbationReport()

    # membership of C in the vanishing ideal, via its sup-norm decay
    c_norms = [float(np.max(np.abs(C_seq.on_grid(n, grid)))) for n in n_list]
    c_seq_fit = make_association_report(list(n_list), c_norms, label="C-seq-norms")
    if not c_seq_fit.is_associated():
        raise ValueError("C sequence does not vanish; claim 2 needs C in the ideal")

    summed = summed_symbol_seq(s, B)
    lam_samples = [omega + 1.0, omega + 1.0 + 5j, omega + 10.0, omega + 100.0]
    report.growth = certify_growth(summed, n_list, omega, b, lam_samples,
                                   list(np.logspace(-2, 1, 10)), grid)
    report.verdicts["growth-moderate"] = (
        report.growth.resolvent_fit is None
        or report.growth.resolvent_fit.slope <= 1.0)

    semigroup = semigroup_level(omega, SUITE_T_SAMPLES, grid)
    report.pair_association = check_association(
        summed, summed_symbol_seq(s, B.plus(C_seq)), {"B vs B+C": semigroup}, test_seqs,
        grid, n_list)["B vs B+C"]
    report.verdicts["perturbed-pair"] = report.pair_association.verdict

    weighted = resolvent_level([omega + 1.0, omega + 1.0 + 5j, omega + 10.0], grid, b, omega)
    report.verdicts["base-weighted"] = check_association(
        s, s_tilde, {"base-pair": weighted}, test_seqs, grid, n_list)["base-pair"].verdict
    report.transported_association = check_association(
        summed, summed_symbol_seq(s_tilde, B), {"transported": semigroup}, test_seqs,
        grid, n_list)["transported"]
    report.verdicts["transported"] = report.transported_association.verdict
    return report


def constant_coefficient_example(f: GridFunction, coeffs: Sequence[complex], n_list: Sequence[int],
                                 t_max: float) -> AssociationReport:
    """The constant-coefficient example: perturb c_0 and c_2 by 1/n.

    Builds the fixed operator from ``coeffs`` and the family with c_0 + 1/n
    and c_2 + 1/n, then reports the decay of sup over t in (0, t_max], at
    50 equally spaced times, of ||S_n(t) f - S(t) f||_2.
    """
    if f.grid.dimension != 1:
        raise ValueError("the constant-coefficient example is one-dimensional")
    # Re c_2 + 1/n > 0 whenever Re c_2 >= 0, so Re P_n is bounded above whenever Re P is
    if not math.isfinite(poly_sup_re(coeffs)):
        raise ValueError("coefficients must keep Re p(2 pi i xi) bounded above")
    fixed = make_poly_symbol_seq(lambda n: coeffs, name="P(D)")
    family = perturbed_heat_seq(coeffs, name="P_n(D)")
    ts = np.linspace(0, t_max, 51)[1:]
    label = "coefficient-perturbation"
    return check_association(family, fixed, {label: semigroup_level(0.0, ts, f.grid)},
                             [lambda n: f], f.grid, n_list)[label]
