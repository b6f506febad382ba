"""Deterministic CSV and summary writers.

All floats are rendered with repr (shortest round-trip form), rows follow
the iteration order of the inputs, and nothing time- or platform-dependent
enters the files, so identical runs produce byte-identical outputs.
``solution.csv``, the one large file, is written in per-time-slice blocks
with the same ``repr`` format instead of row by row through ``csv``.  It is
streamed from an iterable of time slices, one slice at a time, into
``solution.csv.partial``, which is renamed to ``solution.csv`` after the last
slice and deleted if an exception is raised before then: a failed run leaves
no solution file.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Tuple

import numpy as np

from .association import SLOPE_MIN, AssociationReport
from .semigroup import GrowthCertificate
from .spectral import Grid


def _fmt(value) -> str:
    # float() and complex() drop numpy scalar types, whose repr is np.float64(...)
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, complex):
        value = complex(value)
        return repr(value.real) if value.imag == 0 else repr(value)
    return str(value)


def write_rows(path: Path, header: Sequence[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_certificate(path: Path, cert: GrowthCertificate) -> None:
    fit_c = cert.resolvent_fit.constant if cert.resolvent_fit else ""
    fit_a = cert.resolvent_fit.slope if cert.resolvent_fit else ""
    rows = ((n, cert.resolvent_bounds[n], cert.semigroup_bounds[n],
             cert.omega, cert.b, fit_c, fit_a) for n in cert.n_list)
    write_rows(path, ["n", "M_n", "M_prime_n", "omega", "b", "fitted_C", "fitted_a"], rows)


def write_association(path: Path, report: AssociationReport) -> None:
    """Norm table plus a JSON summary sidecar (verdict, slope, thresholds)."""
    rows = zip(report.indices, report.norms)
    write_rows(path, ["n", "norm"], rows)
    summary = {
        "label": report.label,
        "verdict": report.verdict,
        "slope": report.slope,
        "r_squared": report.r_squared,
        "tol_assoc": report.tol_assoc,
        "slope_min": SLOPE_MIN,
    }
    sidecar = path.with_name(path.stem + "_summary.txt")
    sidecar.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def coordinate_names(dimension: int) -> list:
    return ["x"] if dimension == 1 else [f"x_{j}" for j in range(1, dimension + 1)]


def write_solution(path: Path, grid: Grid,
                   slices: Iterable[Tuple[int, float, np.ndarray]]) -> None:
    """Solution samples: columns n, t, x (x_1 ... x_d off a line), re_w, im_w; points in C order.

    ``slices`` yields (n, t, w) with w the samples of w_n(t), of ``grid.shape``, and
    each is written before the next is asked for.  A slice's rows are built from
    ``tolist()`` values with ``repr`` and written as one block, which gives the bytes
    :func:`write_rows` would, without a per-cell ``csv`` call.  Only floats and integers
    enter the file, so no field needs quoting.
    """
    partial = path.with_name(path.name + ".partial")
    path.parent.mkdir(parents=True, exist_ok=True)
    points = grid.coordinate_vectors().reshape(-1, grid.dimension).tolist()
    xs = [",".join(map(repr, x)) for x in points]
    try:
        with open(partial, "w", newline="") as fh:
            fh.write(",".join(["n", "t", *coordinate_names(grid.dimension),
                               "re_w", "im_w"]) + "\n")
            for n, t, w in slices:
                flat = w.reshape(-1)
                head = f"{n},{float(t)!r},"
                fh.write("".join([f"{head}{x},{r!r},{i!r}\n" for x, r, i
                                  in zip(xs, flat.real.tolist(), flat.imag.tolist())]))
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_pairings(path: Path, pairings: Mapping) -> None:
    """Pairing table: columns n, psi_id, re_pair, im_pair."""
    items = sorted(pairings.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    rows = ((n, label, float(v.real), float(v.imag)) for (n, label), v in items)
    write_rows(path, ["n", "psi_id", "re_pair", "im_pair"], rows)
