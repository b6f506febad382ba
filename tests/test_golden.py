"""Golden corpus: every subcommand on its default config, plus named variants.

``VARIANTS`` adds configs that reach branches no default config reaches:
``associate-shift`` runs ``associate`` with ``comparison = shift:0.5j``, the
non-drift branch of the scenario, and ``associate-2d`` runs it on a 64 x 64
grid in two dimensions with the fractional family and ``comparison =
scale:1.5``.  ``verify-2d``, ``solve-2d``, ``perturb-2d`` and ``growth-2d``
run the heat family, -|xi|^2, on a two-dimensional grid: 64 x 64, except 32 x 32
for ``perturb-2d``, and on [-2, 2)^2 with n = 1 ... 4 and dt = 1/8 for
``solve-2d``, whose ``solution.csv`` has the columns x_1 and x_2.
``solve-forced`` runs ``solve`` with ``forcing_kind = gaussian_pulse`` and
``data_kind = delta_prime``, the only case that reaches the forcing terms of
the Duhamel integrator.
Each case runs twice; the two output
trees and stdouts must be byte-identical.  Every CSV is then compared with
``tests/golden/<case>.json``:
numeric cells within 1e-9 relative (absolute floor 1e-12), other cells
exactly.  ``solution.csv`` is stored as its row count, column sums and every
``SOLUTION_STRIDE``-th row.  The ``worst`` column of ``verify.csv`` is an
oracle error, so it is checked against its tolerance instead of the golden.

Regenerate the goldens with ``PYTHONPATH=src python tests/test_golden.py``,
only for an intended output change; name cases after it to write only theirs,
as for a new variant.
"""
import csv
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from dataclasses import replace

import pytest

from semigrouplab.cli import main
from semigrouplab.config import default_config, serialize_config

GOLDEN_DIR = Path(__file__).with_name("golden")
COMMANDS = ("verify", "solve", "associate", "perturb", "growth")
#: case name -> (subcommand, fields replaced in its default config)
VARIANTS = {
    "associate-shift": ("associate", {"comparison": "shift:0.5j"}),
    "associate-2d": ("associate", {"dimension": 2, "points": 64,
                                   "family_kind": "fractional", "comparison": "scale:1.5"}),
    "solve-forced": ("solve", {"forcing_kind": "gaussian_pulse", "data_kind": "delta_prime"}),
    "verify-2d": ("verify", {"dimension": 2, "points": 64}),
    "solve-2d": ("solve", {"dimension": 2, "half_width": 2.0, "points": 64,
                           "n_list": (1, 2, 3, 4), "dt": 1.0 / 8.0}),
    "perturb-2d": ("perturb", {"dimension": 2, "points": 32}),
    "growth-2d": ("growth", {"dimension": 2, "points": 64}),
}
CASES = {**{command: (command, {}) for command in COMMANDS}, **VARIANTS}
SOLUTION_STRIDE = 4096
REL_TOL = 1e-9
ABS_FLOOR = 1e-12


def run_case(case: str, out_dir: Path) -> str:
    """Run one case of ``CASES``; returns its stdout.

    A variant's config is written beside ``out_dir`` and passed with --config.
    """
    command, changes = CASES[case]
    argv = [command, "--out", str(out_dir), "--no-plots"]
    if changes:
        config = out_dir.with_name(out_dir.name + ".cfg")
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text(serialize_config(replace(default_config(command), **changes)))
        argv += ["--config", str(config)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{case} exited {code}"
    return buf.getvalue()


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column_sums(header, rows):
    sums = [0.0] * len(header)
    for row in rows:
        for j, cell in enumerate(row):
            sums[j] += float(cell)
    return sums


def summarize(out_dir: Path) -> dict:
    """The golden record of every CSV in one output directory."""
    record = {}
    for path in sorted(out_dir.glob("*.csv")):
        header, rows = _read_csv(path)
        if path.name == "solution.csv":
            record[path.name] = {
                "header": header,
                "row_count": len(rows),
                "column_sums": _column_sums(header, rows),
                "sampled_rows": rows[::SOLUTION_STRIDE],
            }
            continue
        if path.name == "verify.csv":
            worst = header.index("worst")
            rows = [row[:worst] + [None] + row[worst + 1:] for row in rows]
        record[path.name] = {"header": header, "rows": rows}
    return record


def _as_float(cell):
    if not isinstance(cell, str):
        return cell
    try:
        return float(cell)
    except ValueError:
        return None


def _cells_match(got, want) -> bool:
    if got == want:
        return True
    g, w = _as_float(got), _as_float(want)
    if g is None or w is None:
        return False
    return abs(g - w) <= max(REL_TOL * max(abs(g), abs(w)), ABS_FLOOR)


def _compare_rows(name, got_rows, want_rows):
    assert len(got_rows) == len(want_rows), f"{name}: row count"
    for i, (got, want) in enumerate(zip(got_rows, want_rows)):
        assert len(got) == len(want), f"{name} row {i}: width"
        for j, (g, w) in enumerate(zip(got, want)):
            assert _cells_match(g, w), f"{name} row {i} col {j}: {g!r} != {w!r}"


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for case in CASES:
        out[case] = [(root / f"run{k}" / case, run_case(case, root / f"run{k}" / case))
                     for k in (1, 2)]
    return out


@pytest.mark.parametrize("case", CASES)
def test_rerun_byte_identical(runs, case):
    (first, out1), (second, out2) = runs[case]
    assert out1 == out2
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("case", CASES)
def test_matches_golden(runs, case):
    out_dir = runs[case][0][0]
    want = json.loads((GOLDEN_DIR / f"{case}.json").read_text())
    got = summarize(out_dir)
    assert sorted(got) == sorted(want)
    for name, record in want.items():
        assert got[name]["header"] == record["header"], name
        if name == "solution.csv":
            assert got[name]["row_count"] == record["row_count"]
            _compare_rows(name, [got[name]["column_sums"]], [record["column_sums"]])
            _compare_rows(name, got[name]["sampled_rows"], record["sampled_rows"])
        else:
            _compare_rows(name, got[name]["rows"], record["rows"])
    if CASES[case][0] == "verify":
        header, rows = _read_csv(out_dir / "verify.csv")
        worst, tol = header.index("worst"), header.index("tolerance")
        for row in rows:
            assert float(row[worst]) <= float(row[tol]), row


if __name__ == "__main__":
    import sys
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sys.argv[1:] or CASES:
            run_case(case, Path(tmp) / case)
            record = summarize(Path(tmp) / case)
            (GOLDEN_DIR / f"{case}.json").write_text(
                json.dumps(record, indent=1, sort_keys=True) + "\n")
            print(f"wrote {GOLDEN_DIR / (case + '.json')}")
