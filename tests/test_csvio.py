"""CSV schema and determinism of the writers."""
from dataclasses import replace

import numpy as np
import pytest

from semigrouplab.association import make_association_report
from semigrouplab.cauchy import ForcingSeq, solve_sequence
from semigrouplab.cli import build_data
from semigrouplab.config import default_config
from semigrouplab.csvio import (write_association, write_pairings, write_rows,
                                write_solution)
from semigrouplab.errors import ConfigError
from semigrouplab.spectral import Grid, GridFunction
from semigrouplab.symbols import heat_symbol_seq


def test_association_csv_and_sidecar(tmp_path):
    rep = make_association_report([4, 8, 16, 32], [1.0, 0.5, 0.25, 0.125],
                                  label="demo")
    path = tmp_path / "assoc.csv"
    write_association(path, rep)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,norm"
    assert lines[1].startswith("4,")
    sidecar = (tmp_path / "assoc_summary.txt").read_text()
    assert '"verdict": "associated"' in sidecar


def test_pairings_sorted_and_typed(tmp_path):
    pairings = {(8, "psiB"): 1 + 2j, (4, "psiA"): 3 + 0j, (4, "psiB"): 0j}
    path = tmp_path / "pair.csv"
    write_pairings(path, pairings)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,psi_id,re_pair,im_pair"
    assert lines[1].split(",")[:2] == ["4", "psiA"]
    assert lines[2].split(",")[:2] == ["4", "psiB"]


def test_numpy_scalars_written_as_plain_numbers(tmp_path):
    path = tmp_path / "scalars.csv"
    write_rows(path, ["f", "c_real", "c", "re"],
               [(np.float64(2.5), np.complex128(1.0), np.complex128(1 + 2j),
                 np.complex128(3 + 4j).real)])
    assert path.read_text().splitlines()[1] == "2.5,1.0,(1+2j),3.0"


def test_writer_is_reproducible(tmp_path):
    rep = make_association_report([4, 8, 16, 32], [1 / 3, 1 / 7, 1 / 13, 1 / 29])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_association(a, rep)
    write_association(b, rep)
    assert a.read_bytes() == b.read_bytes()


def _per_cell_solution_rows(sol, stride):
    """The row-by-row solution export that write_solution must reproduce."""
    x = sol.grid.axis_points()
    for n in sol.indices():
        w = sol.w_values(n)
        for j in range(0, len(sol.t_grid), stride):
            t = float(sol.t_grid[j])
            for i in range(sol.grid.points):
                yield (n, t, float(x[i]), float(w[j, i].real), float(w[j, i].imag))


def test_solution_blocks_match_per_cell_rows(tmp_path):
    g = Grid(1, 4.0, 64)
    t_grid = np.linspace(0.0, 1.0, 9)  # 8 steps: not a multiple of the stride
    sol = solve_sequence(heat_symbol_seq(), [4, 8],
                         lambda n: GridFunction.gaussian(g, 1.0 / n),
                         ForcingSeq.zero(g), t_grid)
    sol.w_values(4).real[3, 5] = -0.0
    sol.w_values(8).imag[6, 7] = np.nan
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    write_solution(fast, sol, stride=3)
    write_rows(ref, ["n", "t", "x", "re_w", "im_w"], _per_cell_solution_rows(sol, 3))
    data = fast.read_bytes()
    assert data == ref.read_bytes()
    assert b",-0.0," in data and b",nan\n" in data
    assert data.count(b"\n") == 1 + 2 * 3 * 64


def test_two_dimensional_solution_reads_back_as_a_data_file(tmp_path):
    g = Grid(2, 2.0, 8)
    sol = solve_sequence(heat_symbol_seq(), [1, 2], lambda n: GridFunction.gaussian(g, 1.0 / n),
                         ForcingSeq.zero(g), np.linspace(0.0, 0.5, 3))
    path = tmp_path / "sol.csv"
    write_solution(path, sol, stride=2)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,t,x_1,x_2,re_w,im_w"
    assert len(lines) == 1 + 2 * 2 * 64
    points = g.coordinate_vectors().reshape(-1, 2)
    assert [[float(v) for v in line.split(",")[2:4]] for line in lines[-64:]] == points.tolist()
    # the last slice of n = 2 without its n and t columns is a data_kind = file datum
    data = tmp_path / "datum.csv"
    data.write_text("\n".join(["x_1,x_2,re,im"] + [line.split(",", 2)[2] for line in lines[-64:]]))
    cfg = replace(default_config("solve"), dimension=2, half_width=2.0, points=8,
                  data_kind="file", data_path=str(data))
    (alpha, datum), = build_data(cfg, g).terms
    assert alpha == (0, 0)
    assert np.array_equal(datum.values, sol.w_values(2)[-1])
    # x_1, x_2, re without im: the column after the coordinates that holds im is missing
    data.write_text("\n".join(["x_1,x_2,re"] + [line.rsplit(",", 1)[0] for line in
                                                 data.read_text().splitlines()[1:]]))
    with pytest.raises(ConfigError, match="one row x_1, x_2, re, im per grid point"):
        build_data(cfg, g)
