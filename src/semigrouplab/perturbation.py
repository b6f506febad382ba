"""Commuting bounded perturbations of integrated-semigroup families.

For a bounded multiplier b commuting with the resolvents, the perturbed
integrated semigroup is

    S^b(t) = e^(t b) S(t) - b integral_0^t e^(s b) S(s) ds.

Per mode the s-integral has the closed form (e^(t b) phi(t,a) - phi(t,a+b));
integrating by parts shows the whole expression collapses to phi(t, a+b),
i.e. the perturbed family is the integrated semigroup of the summed symbol.
The claims suite works with that closed form, through ``summed_symbol_seq``.

The quadrature form is kept as the oracle the closed form is tested against:
``perturbation_quadrature`` evaluates it on broadcast arrays with the
composite Gauss-Legendre rule (``PERTURBATION_PANELS`` panels of width
h = t/PERTURBATION_PANELS, ``GAUSS_NODES_PER_PANEL`` nodes each).  A node is
split as s = e_p + r_q, with panel start e_p = p h and in-panel offset
r_q = h (1 + x_q)/2, and the two exact identities

    phi(e + r, a) = phi(e, a) + e^(e a) phi(r, a)    (the functional equation)
    e^((e + r) b) = e^(e b) e^(r b)

factor the double sum over panels and nodes into sums over panels times sums
over nodes.  ``perturbed_factor`` and the ``verify`` perturbation suite both
call it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .association import (AssociationReport, bundled_test_sequences,
                          check_semigroup_association,
                          check_weighted_resolvent_association,
                          make_association_report)
from .errors import OverflowGuardError
from .quadrature import GAUSS_NODES_PER_PANEL, _gauss_rule
from .semigroup import (EXP_GUARD, GrowthCertificate, MultiplierOp,
                        certify_growth, phi_at_times)
from .spectral import Grid, GridFunction
from .symbols import SymbolSeq, make_poly_symbol_seq, PolySymbolParams, shifted_symbol_seq

#: panel count of the s-integral in the quadrature oracle
PERTURBATION_PANELS = 64


@dataclass(frozen=True)
class BoundedMultiplierSeq:
    """A perturbation family b_n(xi) with a declared uniform bound.

    Commutation with the resolvents is automatic for multipliers and is
    recorded as a structural fact; ``validate_on`` checks the bound on a
    grid sample.
    """

    eval: Callable[[int, np.ndarray], np.ndarray]
    c_bound: float
    name: str = "B"

    def on_grid(self, n: int, grid: Grid) -> np.ndarray:
        vals = np.asarray(self.eval(n, grid.frequency_vectors()), dtype=complex)
        return np.broadcast_to(vals, grid.shape).astype(complex)

    def validate_on(self, grid: Grid, n_list: Sequence[int]) -> float:
        worst = 0.0
        for n in n_list:
            worst = max(worst, float(np.max(np.abs(self.on_grid(n, grid)))))
        if worst > self.c_bound * (1 + 1e-12):
            raise ValueError(
                f"perturbation '{self.name}' exceeds its bound: {worst} > {self.c_bound}")
        return worst

    @staticmethod
    def zero() -> "BoundedMultiplierSeq":
        return BoundedMultiplierSeq(eval=lambda n, v: np.zeros(v.shape[:-1]),
                                    c_bound=0.0, name="0")

    @staticmethod
    def constant(value: complex, name: str = "const") -> "BoundedMultiplierSeq":
        return BoundedMultiplierSeq(eval=lambda n, v: np.full(v.shape[:-1], value),
                                    c_bound=abs(value), name=name)

    @staticmethod
    def vanishing(rate: Callable[[int], float], shape: Optional[Callable] = None,
                  bound: float = 1.0, name: str = "C") -> "BoundedMultiplierSeq":
        """A family with sup-norms rate(n), e.g. rate = 1/n for the ideal."""
        def _eval(n, v):
            base = np.ones(v.shape[:-1]) if shape is None else shape(v)
            return rate(n) * base
        return BoundedMultiplierSeq(eval=_eval, c_bound=bound, name=name)

    def plus(self, other: "BoundedMultiplierSeq", name: str = "") -> "BoundedMultiplierSeq":
        return BoundedMultiplierSeq(
            eval=lambda n, v: np.asarray(self.eval(n, v)) + np.asarray(other.eval(n, v)),
            c_bound=self.c_bound + other.c_bound,
            name=name or f"{self.name}+{other.name}")


def perturbation_quadrature(t, a, b) -> np.ndarray:
    """e^(tb) phi(t,a) - b int_0^t e^(sb) phi(s,a) ds by the composite Gauss rule.

    ``t``, ``a`` and ``b`` broadcast against each other (t >= 0).  With the
    split s = e_p + r_q of the module docstring and the weights w_q = h g_q / 2
    of the Gauss rule (x_q, g_q) on [-1, 1], the s-integral is

        sum_p sum_q w_q e^(s b) phi(s, a)
            = [sum_p e^(e_p b) phi(e_p, a)] [sum_q w_q e^(r_q b)]
            + [sum_p e^(e_p a) e^(e_p b)] [sum_q w_q e^(r_q b) phi(r_q, a)],

    so exp and phi run on PERTURBATION_PANELS + GAUSS_NODES_PER_PANEL points
    per entry instead of their product.  Nothing is evaluated at a + b, so the
    result stays independent of the closed form phi(t, a + b).  An overflow
    raises ``OverflowGuardError``.
    """
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    gx, gw = _gauss_rule(GAUSS_NODES_PER_PANEL)
    lead = (slice(None),) + (None,) * np.broadcast(t, a, b).ndim
    h = t / PERTURBATION_PANELS
    starts = np.arange(PERTURBATION_PANELS)[lead] * h
    offsets = (0.5 * (1.0 + gx))[lead] * h
    with np.errstate(over="raise"):
        try:
            e_b = np.exp(starts * b)
            w_b = (0.5 * gw)[lead] * h * np.exp(offsets * b)
            integral = (np.sum(e_b * phi_at_times(starts, a), axis=0) * np.sum(w_b, axis=0)
                        + np.sum(np.exp(starts * a) * e_b, axis=0)
                        * np.sum(w_b * phi_at_times(offsets, a), axis=0))
            return np.exp(t * b) * phi_at_times(t, a) - b * integral
        except FloatingPointError as exc:
            raise OverflowGuardError("perturbation quadrature overflows") from exc


def perturbed_factor(s: SymbolSeq, B: BoundedMultiplierSeq, n: int, t: float,
                     grid: Grid) -> np.ndarray:
    """Quadrature oracle: e^(tb) phi(t,a) - b int_0^t e^(sb) phi(s,a) ds per mode.

    Evaluated by ``perturbation_quadrature``: the s-integral runs on
    PERTURBATION_PANELS panels of width h = t/PERTURBATION_PANELS; each Gauss
    node s = e_p + r_q is split into its panel start e_p = p h and its offset
    r_q, and phi(e + r, a) = phi(e, a) + e^(e a) phi(r, a) together with
    e^((e + r) b) = e^(e b) e^(r b) turn the sum over all nodes into sums
    over panel starts times sums over offsets.
    """
    a = s.on_grid(n, grid)
    b = B.on_grid(n, grid)
    guard = float(np.max((a + b).real)) * t
    if guard > EXP_GUARD or float(np.max(b.real)) * t > EXP_GUARD:
        raise OverflowGuardError(f"Re(a+b) t = {guard:.3g} would overflow")
    if t == 0:
        return np.zeros(grid.shape, dtype=complex)
    return perturbation_quadrature(t, a, b)


def perturbed_S(s: SymbolSeq, B: BoundedMultiplierSeq, n: int, t: float,
                u: GridFunction) -> GridFunction:
    """Apply the perturbed integrated semigroup (quadrature form)."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return MultiplierOp(u.grid, perturbed_factor(s, B, n, t, u.grid)).apply(u)


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
    c_seq_fit: object = None
    verdicts: dict = field(default_factory=dict)


def perturbation_claims_suite(s: SymbolSeq, s_tilde: SymbolSeq, B: BoundedMultiplierSeq,
                          C_seq: BoundedMultiplierSeq, grid: Grid,
                          n_list: Sequence[int], omega: float, b: float = 1.0,
                          t_samples: Sequence[float] = (),
                          test_seqs=None) -> PerturbationReport:
    """Check the three perturbation claims on multiplier families.

    1. the summed family a_n + b_n admits a growth certificate;
    2. perturbing by B versus B + C with vanishing C yields associated
       perturbed semigroups;
    3. if the unperturbed pair is associated in the strong (GE4) sense,
       the B-perturbed semigroups are associated as well.

    Claims 2 and 3 compare the perturbed semigroups in closed form, as the
    integrated semigroups of the summed families a_n + b_n.
    """
    ts = list(t_samples) or list(np.linspace(0.25, 5.0, 12))
    if test_seqs is None:
        test_seqs = [bundled_test_sequences(grid)["gaussian"]]
    report = PerturbationReport()

    # membership of C in the vanishing ideal, via its sup-norm decay
    c_norms = {n: max(float(np.max(np.abs(C_seq.on_grid(n, grid)))), 0.0) for n in n_list}
    report.c_seq_fit = make_association_report(list(n_list),
                                               [c_norms[n] for n in n_list],
                                               label="C-seq-norms")
    if not report.c_seq_fit.is_associated():
        raise ValueError("C sequence does not vanish; claim 2 needs C in the ideal")

    summed = summed_symbol_seq(s, B)
    lam_samples = [omega + 1.0, omega + 1.0 + 5j, omega + 10.0, omega + 100.0]
    report.growth = certify_growth(summed, n_list, omega, b, lam_samples,
                                   list(np.logspace(-2, 1, 10)), grid)
    report.verdicts["growth-moderate"] = (
        report.growth.resolvent_fit is None
        or report.growth.resolvent_fit.slope <= 1.0)

    report.pair_association = check_semigroup_association(
        summed, summed_symbol_seq(s, B.plus(C_seq)), omega, ts, test_seqs, grid,
        n_list, label="B vs B+C", rerun_resolvent=False)
    report.verdicts["perturbed-pair"] = report.pair_association.verdict

    weighted = check_weighted_resolvent_association(
        s, s_tilde, omega, b, [omega + 1.0, omega + 1.0 + 5j, omega + 10.0],
        test_seqs, grid, n_list, label="base-pair", rerun_semigroup=False)
    report.verdicts["base-weighted"] = weighted.verdict
    report.transported_association = check_semigroup_association(
        summed, summed_symbol_seq(s_tilde, B), omega, ts, test_seqs, grid,
        n_list, label="transported", rerun_resolvent=False)
    report.verdicts["transported"] = report.transported_association.verdict
    return report


def constant_coefficient_example(f: GridFunction, coeffs: Sequence[complex], n_list: Sequence[int],
                    t_max: float,
                    t_samples: Sequence[float] = ()) -> AssociationReport:
    """The constant-coefficient example: perturb c_0 and c_2 by 1/n.

    Builds the fixed operator from ``coeffs`` and the family with c_0 + 1/n
    and c_2 + 1/n, then reports the decay of sup over sampled t in
    (0, t_max] of ||S_n(t) f - S(t) f||_2.
    """
    if f.grid.dimension != 1:
        raise ValueError("the constant-coefficient example is one-dimensional")
    base = np.pad(np.asarray(coeffs, dtype=complex), (0, max(0, 3 - len(coeffs))))
    from .symbols import poly_sup_re
    ruled = lambda n: (base[0] + 1.0 / n, base[1], base[2] + 1.0 / n)
    bounds = [poly_sup_re(tuple(base))] + [poly_sup_re(ruled(n)) for n in n_list]
    if not all(math.isfinite(v) for v in bounds):
        raise ValueError("coefficients must keep Re p(2 pi i xi) bounded above")
    fixed = make_poly_symbol_seq(PolySymbolParams(rule=lambda n: tuple(base), name="P(D)"))
    family = make_poly_symbol_seq(PolySymbolParams(rule=ruled, name="P_n(D)"))
    ts = np.asarray(t_samples, dtype=float) if len(t_samples) else np.linspace(0, t_max, 51)[1:]
    return check_semigroup_association(family, fixed, 0.0, ts, [lambda n: f], f.grid, n_list,
                                       label="coefficient-perturbation", rerun_resolvent=False)
