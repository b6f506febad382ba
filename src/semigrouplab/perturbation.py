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
the one 64-panel rule of every time-integral oracle, folded by doubling.
``perturbed_factor`` (one ``phi`` block per index, one ``time_integral`` call per
time) and the ``verify`` perturbation suite both reach the quadrature form through
one helper, on symbol values as ``phi`` takes them.  b goes in the shape
``SymbolSeq.on_grid`` gives: every family the lab builds is constant in xi, so b
stays 0-d and the rule takes one e^(s b) per node, not one per node and mode.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .association import (SUITE_T_SAMPLES, AssociationReport, bundled_test_sequences,
                          check_association, make_association_report)
from .errors import OverflowGuardError
from .semigroup import (EXP_GUARD, Evaluations, GrowthCertificate, certify_growth, phi,
                        resolvent_level, semigroup_level, time_integral)
from .symbols import SymbolSeq, summed_symbol_seq

def _quadrature_form(t, a, b, integral) -> np.ndarray:
    """e^(tb) phi(t,a) - b I for I = ``integral()``, the s-integral at the same times.

    The one place the quadrature form is written: overflows, of the first term or
    of the rule, raise ``OverflowGuardError``.
    """
    with np.errstate(over="raise"):
        try:
            return np.exp(t * b) * phi(t, a) - b * integral()
        except FloatingPointError as exc:
            raise OverflowGuardError("perturbation quadrature overflows") from exc


def perturbation_quadrature(t, a, b) -> np.ndarray:
    """e^(tb) phi(t,a) - b int_0^t e^(sb) phi(s,a) ds by the composite Gauss rule.

    ``t``, ``a`` and ``b`` broadcast (t >= 0).  Nothing is evaluated at a + b, so
    the result stays independent of phi(t, a + b).  Overflows raise ``OverflowGuardError``.
    """
    return _quadrature_form(t, a, b, lambda: time_integral(t, a, b))


def perturbed_factor(a: np.ndarray, b: np.ndarray, times: Sequence[float]) -> np.ndarray:
    """Quadrature oracle per time and mode: e^(tb) phi(t,a) - b int_0^t e^(sb) phi(s,a) ds.

    ``a`` and ``b`` are the symbol values a_n and b_n; the result has shape
    ``(len(times),)`` + their broadcast shape, each row bitwise equal to
    ``perturbation_quadrature`` at its time.  The Re(a+b) t and Re(b) t overflow
    guards are checked once, at the largest time.  e^(tb) phi(t, a) is one ``phi``
    call on the (times x modes) block; the integral is one ``time_integral`` call per
    time.  Blocks of seven times per ``time_integral`` call took ``perturb`` warm from
    68 to 45 ms, but its fresh-process peak RSS rose by 0.7 MB (32.49 to 33.18), since
    glibc returned the larger temporaries' heap pages to the system and faulted them
    back in.  A zero time gives a zero row: every node and phi(0, a) are zero.
    """
    times = np.asarray(times, dtype=float)
    t_max = float(np.max(times))
    guard = float(np.max((a + b).real)) * t_max
    if guard > EXP_GUARD or float(np.max(b.real)) * t_max > EXP_GUARD:
        raise OverflowGuardError(f"Re(a+b) t = {guard:.3g} would overflow")
    column = np.reshape(times, (-1,) + (1,) * max(np.ndim(a), np.ndim(b)))
    return _quadrature_form(column, a, b,
                            lambda: np.stack([time_integral(t, a, b) for t in times]))


@dataclass
class PerturbationReport:
    """Outcome of the three perturbation claims on a family pair."""

    growth: Optional[GrowthCertificate] = None
    pair_association: Optional[AssociationReport] = None
    transported_association: Optional[AssociationReport] = None
    verdicts: dict = field(default_factory=dict)


def perturbation_claims_suite(s: SymbolSeq, s_tilde: SymbolSeq, B: SymbolSeq, C_seq: SymbolSeq,
                              ev: Evaluations, n_list: Sequence[int], omega: float,
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
    test_seqs = [bundled_test_sequences(ev.grid)["gaussian"]]
    report = PerturbationReport()

    # membership of C in the vanishing ideal, via its sup-norm decay
    c_norms = [float(np.max(np.abs(ev.values(C_seq, n)))) for n in n_list]
    c_seq_fit = make_association_report(list(n_list), c_norms, label="C-seq-norms")
    if not c_seq_fit.is_associated():
        raise ValueError("C sequence does not vanish; claim 2 needs C in the ideal")

    summed = summed_symbol_seq(s, B)
    lam_samples = [omega + 1.0, omega + 1.0 + 5j, omega + 10.0, omega + 100.0]
    report.growth = certify_growth(summed, n_list, omega, b, lam_samples,
                                   list(np.logspace(-2, 1, 10)), ev)
    report.verdicts["growth-moderate"] = (
        report.growth.resolvent_fit is None
        or report.growth.resolvent_fit.slope <= 1.0)

    semigroup = semigroup_level(omega, SUITE_T_SAMPLES, ev.grid)
    report.pair_association = check_association(
        summed, summed_symbol_seq(s, summed_symbol_seq(B, C_seq)), {"B vs B+C": semigroup},
        test_seqs, ev, n_list)["B vs B+C"]
    report.verdicts["perturbed-pair"] = report.pair_association.verdict

    weighted = resolvent_level([omega + 1.0, omega + 1.0 + 5j, omega + 10.0], ev.grid, b, omega)
    report.verdicts["base-weighted"] = check_association(
        s, s_tilde, {"base-pair": weighted}, test_seqs, ev, n_list)["base-pair"].verdict
    report.transported_association = check_association(
        summed, summed_symbol_seq(s_tilde, B), {"transported": semigroup}, test_seqs,
        ev, n_list)["transported"]
    report.verdicts["transported"] = report.transported_association.verdict
    return report
