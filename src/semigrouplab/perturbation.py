"""Commuting bounded perturbations of integrated-semigroup families.

For a bounded multiplier b commuting with the resolvents, the perturbed
integrated semigroup is

    S^b(t) = e^(t b) S(t) - b integral_0^t e^(s b) S(s) ds.

Per mode the s-integral has the closed form (e^(t b) phi(t,a) - phi(t,a+b));
integrating by parts shows the whole expression collapses to phi(t, a+b),
i.e. the perturbed family is the integrated semigroup of ``summed_symbol_seq(s, B)``,
the closed form the claims suite works with; B and C are ordinary ``SymbolSeq``s.

The quadrature form is kept as the oracle the closed form is tested against:
``perturbation_quadrature`` takes its s-integral from ``semigroup.time_integral``,
the one 64-panel rule of every time-integral oracle.  ``perturbed_factor`` (one
row per time) and the ``verify`` perturbation suite both call it.  b goes in the
shape ``SymbolSeq.on_grid`` gives: every family the lab builds is constant in xi,
so b stays 0-d and the rule takes one e^(s b) per node, not one per node and mode.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .association import (SUITE_T_SAMPLES, AssociationReport, bundled_test_sequences,
                          check_association, make_association_report)
from .errors import OverflowGuardError
from .semigroup import (EXP_GUARD, GrowthCertificate, certify_growth, phi, resolvent_level,
                        semigroup_level, time_integral)
from .spectral import Grid
from .symbols import SymbolSeq, summed_symbol_seq

def perturbation_quadrature(t, a, b) -> np.ndarray:
    """e^(tb) phi(t,a) - b int_0^t e^(sb) phi(s,a) ds by the composite Gauss rule.

    ``t``, ``a`` and ``b`` broadcast (t >= 0).  Nothing is evaluated at a + b, so
    the result stays independent of phi(t, a + b).  Overflows raise ``OverflowGuardError``.
    """
    with np.errstate(over="raise"):
        try:
            return np.exp(t * b) * phi(t, a) - b * time_integral(t, a, b)
        except FloatingPointError as exc:
            raise OverflowGuardError("perturbation quadrature overflows") from exc


def perturbed_factor(s: SymbolSeq, B: SymbolSeq, n: int, times: Sequence[float],
                     grid: Grid) -> np.ndarray:
    """Quadrature oracle per time and mode: e^(tb) phi(t,a) - b int_0^t e^(sb) phi(s,a) ds.

    Returns shape ``(len(times),) + grid.shape``.  a_n and b_n are evaluated
    once, b_n in the shape ``B.on_grid`` gives, and the Re(a+b) t and Re(b) t
    overflow guards are checked once, at the largest time.  Each time is one
    ``perturbation_quadrature`` call: blocks of four times per call gained nothing in
    ``perturb`` runs, since glibc returned their larger temporaries' heap pages to the
    system and faulted them back in (11.4k-13.4k minor page faults per run, against
    under 100 for this loop).  A zero time gives a zero row: every node and phi(0, a)
    are zero.
    """
    times = np.asarray(times, dtype=float)
    a = s.on_grid(n, grid)
    b = B.on_grid(n, grid)
    t_max = float(np.max(times))
    guard = float(np.max((a + b).real)) * t_max
    if guard > EXP_GUARD or float(np.max(b.real)) * t_max > EXP_GUARD:
        raise OverflowGuardError(f"Re(a+b) t = {guard:.3g} would overflow")
    return np.stack([perturbation_quadrature(t, a, b) for t in times])


@dataclass
class PerturbationReport:
    """Outcome of the three perturbation claims on a family pair."""

    growth: Optional[GrowthCertificate] = None
    pair_association: Optional[AssociationReport] = None
    transported_association: Optional[AssociationReport] = None
    verdicts: dict = field(default_factory=dict)


def perturbation_claims_suite(s: SymbolSeq, s_tilde: SymbolSeq, B: SymbolSeq, C_seq: SymbolSeq,
                              grid: Grid, n_list: Sequence[int], omega: float,
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
        summed, summed_symbol_seq(s, summed_symbol_seq(B, C_seq)), {"B vs B+C": semigroup},
        test_seqs, grid, n_list)["B vs B+C"]
    report.verdicts["perturbed-pair"] = report.pair_association.verdict

    weighted = resolvent_level([omega + 1.0, omega + 1.0 + 5j, omega + 10.0], grid, b, omega)
    report.verdicts["base-weighted"] = check_association(
        s, s_tilde, {"base-pair": weighted}, test_seqs, grid, n_list)["base-pair"].verdict
    report.transported_association = check_association(
        summed, summed_symbol_seq(s_tilde, B), {"transported": semigroup}, test_seqs,
        grid, n_list)["transported"]
    report.verdicts["transported"] = report.transported_association.verdict
    return report
