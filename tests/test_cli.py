"""Harness tests: config round-trip, subcommands, exit codes, determinism."""
import dataclasses
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from semigrouplab import association, cli, perturbation, semigroup, symbols
from semigrouplab.cauchy import duhamel_solve
from semigrouplab.cli import main
from semigrouplab.config import (DATA_KINDS, FAMILY_KINDS, FORCING_KINDS, FRACTIONAL_C_RATES,
                                 HEAT_C2, PERTURB_C_RATES, PERTURB_ORACLE_T_MAX, ExperimentConfig,
                                 default_config, load_config, parse_config, serialize_config,
                                 time_grid)
from semigrouplab.errors import ConfigError
from semigrouplab.quadrature import composite_gauss_points
from semigrouplab.semigroup import Evaluations
from semigrouplab.spectral import Grid, GridFunction, lp_norm, mollify
from semigrouplab.symbols import heat_symbol_seq, summed_symbol_seq

COMMANDS = ("verify", "solve", "associate", "perturb", "growth")
FAST_VERIFY = dataclasses.replace(
    default_config("verify"), points=128, lambda_samples=(2.0 + 0j, 10.0 + 0j),
    n_list=(2, 3))
FAST_PERTURB = dataclasses.replace(default_config("perturb"), points=64, n_list=(4, 8, 16, 32))


def write_cfg(tmp_path: Path, cfg: ExperimentConfig, name: str = "scenario.cfg") -> str:
    p = tmp_path / name
    p.write_text(serialize_config(cfg))
    return str(p)


class TestConfig:
    def test_round_trip_identity(self):
        for scenario in ("verify", "solve", "associate", "perturb"):
            cfg = default_config(scenario)
            assert parse_config(serialize_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[grid]\nwidth = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[mystery]\nx = 1\n")

    def test_bad_value_diagnosed(self):
        with pytest.raises(ConfigError, match="grid.points"):
            parse_config("[grid]\npoints = many\n")

    def test_validation_rules(self, tmp_path, capsys):
        bad_inputs = [
            ("[grid]\npoints = 100\n", "points"),
            ("[grid]\ndimension = 2\npoints = 1048576\n", "points"),
            ("[grid]\nhalf_width = nan\n", "half_width"),
            ("[sequence]\nn_list = 8, 4\n", "n_list"),
            ("[sequence]\nn_list = 0, 4, 8\n", "n_list"),
            ("[sequence]\nn_list = 4, 4, 8\n", "n_list"),
            ("[tolerances]\ntol_perturbation_oracle = nan\n", "tol_perturbation_oracle"),
            ("[tolerances]\ntol_laplace = inf\n", "tol_laplace"),
            ("[tolerances]\ntol_bromwich = 0.0\n", "tol_bromwich"),
            ("[tolerances]\ntol_pairing = -1e-3\n", "tol_pairing"),
            ("[lambda]\nlambda_samples =\n", "lambda_samples"),
            ("[time]\ndt = nan\n", "dt"),
            ("[time]\nt_max = nan\n", "t_max"),
            ("[time]\nt_end = inf\n", "t_end"),
            ("[growth]\nomega = nan\n", "omega"),
            ("[growth]\nomega = -inf\n", "omega"),
            # anchored: a bare "b" would match almost any message
            ("[growth]\nb = nan\n", "^b must be finite"),
            ("[growth]\nb = inf\n", "^b must be finite"),
            ("[perturbation]\nperturb_b = nan\n", "perturb_b"),
            ("[perturbation]\nperturb_b = 1+infj\n", "perturb_b"),
            # 64 panels up to t = 2 resolve e^(s b) only for |b| <= 256
            ("[perturbation]\nperturb_b = 257j\n", r"^perturb_b must have .* <= 256,"),
            ("[perturbation]\nperturb_b = -800\n", r"^perturb_b must have .* <= 256,"),
            # the oracle's cancelling terms grow like |b| e^(2 Re b)
            ("[perturbation]\nperturb_b = 6\n", r"^perturb_b must have .* <= 120000,"),
            ("[perturbation]\nperturb_b = 4+150j\n", r"^perturb_b must have .* <= 120000,"),
            ("[perturbation]\nperturb_b = 10\n", r"^perturb_b must have .* <= 120000,"),
            ("[mollifier]\nmollifier = bump\n", r"unknown section \[mollifier\]"),
            ("[family]\ncoeffs = nan, 0, 0.025\n", "^coeffs must be finite"),
            ("[family]\ncoeffs = 0, 0, infj\n", "^coeffs must be finite"),
            # Re a(xi) = 0.025 (2 pi xi)^2 is unbounded above
            ("[family]\ncoeffs = 0, 0, -0.025\n", "^coeffs must keep Re a"),
            ("[family]\ncoeffs = 0, 1j, 0\n", "^coeffs must keep Re a"),
            ("[family]\nfractional_m = nan\n", "^fractional_m must be finite"),
            ("[lambda]\nlambda_samples = nan\n", "^lambda_samples must be finite"),
            ("[lambda]\nlambda_samples = 2, inf\n", "^lambda_samples must be finite"),
            ("[data]\ndata_width = nan\n", "^data_width must be finite and positive"),
            ("[data]\ndata_width = 0.0\n", "^data_width must be finite and positive"),
            ("[forcing]\nforcing_amplitude = inf\n", "^forcing_amplitude must be finite"),
            ("[family]\nfractional_m = -1\n", "^fractional_m must be finite and positive"),
            ("[family]\nfractional_m = 0\n", "^fractional_m must be finite and positive"),
            ("[family]\nfamily_kind = fractional\nfractional_c_rate = bogus\n",
             "fractional_c_rate"),
            ("[comparison]\ncomparison = shift:nan\n", "^comparison shift: needs a finite complex"),
            ("[comparison]\ncomparison = shift:abc\n", "^comparison shift: needs a finite complex"),
            ("[comparison]\ncomparison = scale:inf\n", "^comparison scale: needs a finite real"),
            ("[comparison]\ncomparison = scale:2j\n", "^comparison scale: needs a finite real"),
            ("[data]\ndata_kind = file\n", "^data_path must name a file"),
            # 4 * 129 * 2**22 solution samples, about 8.7 GB per complex array
            ("[grid]\npoints = 4194304\n", r"n_list.*t_end/dt.*points.*t_end = .*dt = "),
            ("[time]\nt_end = 100000.0\n", r"n_list.*t_end/dt.*points.*t_end = .*dt = "),
            # t_end / dt rounds to 0 steps: a time grid of one node
            ("[time]\nt_end = 1e-300\n", r"^t_end / dt must round to at least one step, "
                                           r"got t_end = 1e-300, dt = 0.0078125$"),
            ("[time]\ndt = 1e308\n", r"^t_end / dt must round .* dt = 1e\+308$"),
        ]
        for text, field in bad_inputs:
            with pytest.raises(ConfigError, match=field):
                parse_config(text)
        for b in ("256j", "-256", "-181-181j", "5", "3+250j"):
            assert parse_config(f"[perturbation]\nperturb_b = {b}\n").perturb_b == complex(b)
        # a finite b whose weight |lambda|^b or e^(-omega t) t^(-b) overflows stops the run;
        # at omega = -1 (growth) or -2 (associate) a lambda sample is 0, so b < 0 is infinite
        at_zero = "[family]\ncoeffs = -3, 0, 0.025\n[growth]\nomega = {}\nb = -1\n"
        for command, b, sample, text in [
                ("growth", "200", "lambda", "[growth]\nb = 200\n"),
                ("perturb", "200", "lambda", "[growth]\nb = 200\n"),
                ("growth", "-400", "t", "[growth]\nb = -400\n"),
                ("associate", "1e6", "lambda", "[growth]\nb = 1e6\n"),
                ("growth", "-1", "lambda", at_zero.format(-1.0)),
                ("associate", "-1", "lambda", at_zero.format(-2.0))]:
            config = _write(tmp_path / f"{command}{b}.cfg", text)
            out = str(tmp_path / f"{command}{b}")
            assert main([command, "--config", config, "--out", out]) == 2
            assert capsys.readouterr().err.startswith(
                f"parameter error: non-finite weight at b = {float(b)}, {sample} = ")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.cfg")


class TestVerifyCommand:
    def test_default_config_passes(self, tmp_path):
        code = main(["verify", "--config", write_cfg(tmp_path, FAST_VERIFY),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "verify.csv").exists()
        summary = (tmp_path / "out" / "verify_summary.txt").read_text()
        assert summary.count("pass") == 5

    def test_lambda_inside_spectrum_names_singularity(self, tmp_path, capsys):
        # 1e-9 is right of omega = 0 but within RESOLVENT_MARGIN of a(0) = 0 for heat
        bad = dataclasses.replace(FAST_VERIFY, lambda_samples=(1e-9 + 0j,))
        code = main(["verify", "--config", write_cfg(tmp_path, bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        text = capsys.readouterr().out + (tmp_path / "out" / "verify_summary.txt").read_text()
        assert "ResolventSingularity" in text

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(["verify", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestVerifyBlocks:
    """The (node x mode) oracles are summed in blocks of ``semigroup.BLOCK_ENTRIES``."""

    @pytest.fixture(scope="class")
    def setting(self):
        cfg = default_config("verify")
        grid, s = cli.build_grid(cfg), cli.build_family(cfg)
        return cfg, grid, s, GridFunction.gaussian(grid)

    def test_block_size_does_not_change_results(self, monkeypatch, setting):
        cfg, grid, s, u = setting
        results = []
        # one row per block, the default, and one block for everything; 20,001 contour
        # nodes over 256 modes leave a partial last block at the default
        a1, a2 = s.on_grid(1, grid), s.on_grid(2, grid)
        for entries in (1, semigroup.BLOCK_ENTRIES, 10**9):
            monkeypatch.setattr(semigroup, "BLOCK_ENTRIES", entries)
            contours = semigroup.bromwich_S(a1, 1, (0.25, 1.0), alpha=2.0, r_max=200.0,
                                            steps=20000)
            results.append((semigroup.laplace_identity_residual(a2, 2, 10.0, u, 4.0),
                            cli._suite_functional_equation(cfg).worst, contours))
        (laplace, fe, contour), others = results[0], results[1:]
        for other_laplace, other_fe, other_contour in others:
            # both are defects of quantities of order one
            assert abs(other_laplace - laplace) <= 1e-12
            assert abs(other_fe - fe) <= 1e-12
            assert np.max(np.abs(other_contour - contour)) <= 1e-12 * np.max(np.abs(contour))

    def test_each_suite_peak_memory_is_small(self, setting):
        cfg, grid, s, _ = setting
        suites = [lambda: cli._suite_laplace(cfg, Evaluations(grid), s),
                  lambda: cli._suite_pseudoresolvent(cfg, Evaluations(grid), s, None),
                  lambda: cli._suite_functional_equation(cfg),
                  lambda: cli._suite_bromwich(cfg, Evaluations(grid), s),
                  lambda: cli._suite_perturbation_oracle(cfg)]
        peaks = []
        for run in suites:
            tracemalloc.start()
            try:
                assert run().passed
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 8 * 2**20, [f"{p / 2**20:.1f} MiB" for p in peaks]

    def test_functional_equation_suite_peak_memory_is_under_2_mib(self, setting):
        # chunked draws peak near 1.5 MiB; one call on all 1,000 draws peaked at 6.9 MiB
        cfg = setting[0]
        tracemalloc.start()
        try:
            assert cli._suite_functional_equation(cfg).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_perturbation_oracle_suite_peak_memory_is_under_2_mib(self, setting):
        # chunks of block_rows samples peak near 1.7 MiB; one call on all 1,000 samples
        # peaked at 2.7 MiB
        cfg = setting[0]
        tracemalloc.start()
        try:
            assert cli._suite_perturbation_oracle(cfg).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_bromwich_suite_peak_memory_is_under_1_mib(self, setting):
        # the real kernel and the time weights are built per block: about 0.84 MiB on a
        # first call; weights built for all 20,001 nodes up front peaked at 2.97 MiB
        cfg, grid, s, _ = setting
        tracemalloc.start()
        try:
            assert cli._suite_bromwich(cfg, Evaluations(grid), s).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, f"{peak / 2**20:.2f} MiB"

    def test_two_dimensional_laplace_is_small_and_matches_the_plain_rule(self, monkeypatch):
        g2, s, n, lam, T = Grid(2, 8.0, 128), heat_symbol_seq(), 2, 2.0 + 1j, 20.0
        u = GridFunction.gaussian(g2)
        tracemalloc.start()
        try:
            res = semigroup.laplace_identity_residual(s.on_grid(n, g2), n, lam, u, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"{peak / 2**20:.1f} MiB"
        # the plain rule on all 768 nodes, 64 nodes at a time
        a = s.on_grid(n, g2).ravel()
        pts, wts = composite_gauss_points(0.0, T, 64)
        quad = sum((wts[i:i + 64] * np.exp(-lam * pts[i:i + 64]))
                   @ semigroup.phi(pts[i:i + 64, None], a) for i in range(0, len(pts), 64))
        defect = (semigroup.resolvent_factor(s.on_grid(n, g2), lam, g2, n)
                  - lam * quad.reshape(g2.shape))
        norms = semigroup.multiplier_norms(np.stack([defect, np.ones(g2.shape)]),
                                           semigroup.power_spectra([u]))[:, 0]
        assert abs(res - norms[0] / norms[1]) <= 1e-14
        # phi runs on coarse + fine + Gauss points per mode, 8 + 8 + 12, never on 768
        entries = []
        phi = semigroup.phi

        def counted(t, a):
            entries.append(np.broadcast(t, a).size)
            return phi(t, a)

        monkeypatch.setattr(semigroup, "phi", counted)
        assert semigroup.laplace_identity_residual(s.on_grid(n, g2), n, lam, u, T) == res
        assert 0 < sum(entries) <= 29 * g2.shape[0] * g2.shape[1]


def test_pseudoresolvent_suite_makes_one_block_per_index(monkeypatch):
    counts = Counter()

    def counting(name):
        fn = getattr(semigroup, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("resolvent_factor", "multiplier_norms"):
        monkeypatch.setattr(semigroup, name, counting(name))
    grid, s = cli.build_grid(FAST_VERIFY), cli.build_family(FAST_VERIFY)
    s_tilde = cli.build_comparison_family(FAST_VERIFY, s)
    assert s_tilde is not None
    assert cli._suite_pseudoresolvent(FAST_VERIFY, Evaluations(grid), s, s_tilde).passed
    # two families times two indices, for the 50 (lambda, mu) pairs
    assert counts == {"resolvent_factor": 4, "multiplier_norms": 4}


def _call_args(monkeypatch, name, suite):
    """The arguments of every ``cli.<name>`` call that ``suite`` makes, in order."""
    calls, fn = [], getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    assert suite(FAST_VERIFY).passed
    return calls


def _first_call_args(monkeypatch, name, suite):
    """The arguments of the first ``cli.<name>`` call that ``suite`` makes."""
    return _call_args(monkeypatch, name, suite)[0]


def test_functional_equation_samples_are_the_box_points(monkeypatch):
    t_in, a_in = _first_call_args(monkeypatch, "phi", cli._suite_functional_equation)
    t, _, r, ang = cli.box_points(*BOX_POINT_SETS["functional-equation"]).T
    assert np.asarray(t_in).tobytes() == t.tobytes()
    assert np.asarray(a_in).tobytes() == (r * np.exp(1j * ang)).tobytes()


def _unfolded_functional_equation_rhs(t, sdur, a):
    """integral_0^s (phi(t + r, a) - phi(r, a)) dr on all 768 nodes of the 64-panel rule,
    in blocks of ``BLOCK_ENTRIES`` (draw, node) entries."""
    unit_pts, unit_wts = composite_gauss_points(0.0, 1.0, panels=64)
    rows = semigroup.block_rows(unit_pts.size)
    rhs = np.empty(len(t), dtype=complex)
    for i0 in range(0, len(t), rows):
        blk = slice(i0, i0 + rows)
        pts, a_blk = sdur[blk, None] * unit_pts, a[blk, None]
        vals = semigroup.phi(t[blk, None] + pts, a_blk) - semigroup.phi(pts, a_blk)
        rhs[blk] = sdur[blk] * (vals @ unit_wts)
    return rhs


def test_functional_equation_suite_matches_the_unfolded_rule(monkeypatch):
    # the suite's I(t + s) - I(t) - I(s), from its time_integral calls, per draw
    calls, kernel = [], cli.time_integral

    def spy(T, a, b):
        calls.append((T, a, kernel(T, a, b)))
        return calls[-1][2]

    monkeypatch.setattr(cli, "time_integral", spy)
    worst = cli._suite_functional_equation(FAST_VERIFY).worst
    t, sdur = (np.concatenate([T[i] for T, _, _ in calls]) for i in (1, 2))
    a = np.concatenate([a for _, a, _ in calls])
    assert len(calls) > 1 and len(t) == 1000
    assert np.array_equal(np.concatenate([T[0] for T, _, _ in calls]), t + sdur)
    folded = np.concatenate([I[0] - I[1] - I[2] for _, _, I in calls])
    assert np.max(np.abs(folded - _unfolded_functional_equation_rhs(t, sdur, a))) <= 1e-14
    assert worst == np.max(np.abs(semigroup.phi(t, a) * semigroup.phi(sdur, a) - folded))
    # phi runs on 2 + 3 x (8 + 8 + 12) points per draw, never on 768
    entries = []

    def counted(phi):
        def run(t, a):
            entries.append(np.broadcast(t, a).size)
            return phi(t, a)
        return run

    monkeypatch.setattr(cli, "phi", counted(cli.phi))
    monkeypatch.setattr(semigroup, "phi", counted(semigroup.phi))
    assert cli._suite_functional_equation(FAST_VERIFY).worst == worst
    assert 0 < sum(entries) <= (2 + 3 * 28) * 1000


def test_perturbation_oracle_samples_are_the_box_points(monkeypatch):
    # in chunks of block_rows samples, 585 + 415, which together are the 1,000 points
    calls = _call_args(monkeypatch, "perturbation_quadrature", cli._suite_perturbation_oracle)
    rows = semigroup.block_rows(semigroup.TIME_INTEGRAL_LEVELS)
    assert [len(t_in) for t_in, _, _ in calls] == [rows, 1000 - rows]
    t_in, a_in, b_in = (np.concatenate(args) for args in zip(*calls))
    ra, rb, ta, tb, t = cli.box_points(*BOX_POINT_SETS["perturbation-oracle"]).T
    for got, want in ((t_in, t), (a_in, ra * np.exp(1j * ta)), (b_in, rb * np.exp(1j * tb))):
        assert np.asarray(got).tobytes() == want.tobytes()


def _kolmogorov_distance(x):
    """sup_u |F_k(u) - u| of the empirical distribution of a sample x in [0, 1)."""
    x, k = np.sort(x), len(x)
    return max(np.max(np.arange(1, k + 1) / k - x), np.max(x - np.arange(k) / k))


#: (lo, hi, count) of each box_points call in cli
BOX_POINT_SETS = {
    "pseudoresolvent": ([0.5, -20.0, 0.5, -20.0], [50.0, 20.0, 50.0, 20.0], 50),
    "functional-equation": ([0.05, 0.05, 0.0, 0.5 * np.pi], [2.0, 2.0, 100.0, 1.5 * np.pi],
                            1000),
    "perturbation-oracle": ([0.0, 0.0, 0.5 * np.pi, 0.5 * np.pi, 0.01],
                            [100.0, 100.0, 1.5 * np.pi, 1.5 * np.pi, 5.0], 1000),
    **{f"perturb-run-{m}": ([0.0, 0.1], [float(m), PERTURB_ORACLE_T_MAX], 200)
       for m in range(1, 9)},
}


@pytest.mark.parametrize("name", list(BOX_POINT_SETS))
def test_box_points_fill_their_box_evenly(name):
    lo, hi, count = BOX_POINT_SETS[name]
    pts = cli.box_points(lo, hi, count)
    assert pts.shape == (count, len(lo))
    assert np.all((pts >= lo) & (pts < hi))
    # per axis, a Kronecker sequence keeps the Kolmogorov distance O(log(count) / count):
    # at most 9.4 / count here, against 1.36 / sqrt(count) (43 / count at 1,000) for
    # uniform draws at the 95 % level
    u = (pts - lo) / (np.asarray(hi) - lo)
    assert max(_kolmogorov_distance(col) for col in u.T) <= 2.0 * np.log(count) / count
    if name.startswith("perturb-run-"):
        # run_perturb's index n_list[int(i)] stays in range and reaches every index
        m = int(hi[0])
        assert sorted(set(pts[:, 0].astype(int))) == list(range(m))


def test_box_point_sets_are_the_suites_calls(monkeypatch, tmp_path):
    calls, box_points = [], cli.box_points

    def spy(lo, hi, count):
        calls.append((list(lo), list(hi), count))
        return box_points(lo, hi, count)

    monkeypatch.setattr(cli, "box_points", spy)
    grid, s = cli.build_grid(FAST_VERIFY), cli.build_family(FAST_VERIFY)
    assert cli._suite_pseudoresolvent(FAST_VERIFY, Evaluations(grid), s, None).passed
    assert cli._suite_functional_equation(FAST_VERIFY).passed
    assert cli._suite_perturbation_oracle(FAST_VERIFY).passed
    assert cli.run_perturb(FAST_PERTURB, tmp_path) == 0
    assert calls == [BOX_POINT_SETS[name] for name in ("pseudoresolvent", "functional-equation",
                                                       "perturbation-oracle", "perturb-run-4")]


def test_laplace_overflow_names_the_stage(tmp_path, capsys):
    # sup Re a = 1.9 < 2, so lambda = 2 is valid, and T = 40/(2 - 1.9) = 400;
    # S(400) carries e^(1.9 * 400), past the exp overflow guard
    cfg = dataclasses.replace(default_config("verify"),
                              coeffs=(1.9 + 0j, 0j, complex(HEAT_C2)))
    code = main(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert ("error: OverflowGuardError: Laplace identity at lambda=(2+0j), n=4, T=400: "
            "T sup Re a_n = 760 overflows S(T)") in out.splitlines()
    assert "Traceback" not in out + err
    assert "laplace-identity" not in out
    assert "laplace-identity" not in (tmp_path / "verify.csv").read_text()


#: runs ``cli.main`` on its arguments, then reports whether numpy.random was loaded
FRESH_MAIN = ("import sys\nfrom semigrouplab.cli import main\ncode = main(sys.argv[1:])\n"
              "print('numpy.random loaded:', 'numpy.random' in sys.modules)\nsys.exit(code)\n")


def run_fresh(tmp_path: Path, command: str, cfg: ExperimentConfig):
    """``command`` on ``cfg`` in a new interpreter: its exit code, stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN, command, "--config",
                           write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("command, cfg", [("verify", FAST_VERIFY), ("perturb", FAST_PERTURB)])
def test_oracle_runs_do_not_load_numpy_random(tmp_path, command, cfg):
    code, out, err = run_fresh(tmp_path, command, cfg)
    assert code == 0, err
    assert out.splitlines()[-1] == "numpy.random loaded: False"


@pytest.mark.parametrize("coeffs", [(1e308j,), (-1e308 + 0j,)], ids=["imaginary", "negative"])
def test_bromwich_overflow_is_an_error_not_a_pass(tmp_path, coeffs):
    # |a| near 1e308 overflows q^2 (imaginary) or p^2 (negative) in the contour kernel,
    # which used to warn and then sum nothing: worst 0, a vacuous pass
    code, out, err = run_fresh(tmp_path, "verify", dataclasses.replace(FAST_VERIFY,
                                                                       coeffs=coeffs))
    assert code == 1
    assert "RuntimeWarning" not in out + err and "Traceback" not in out + err
    assert "error: OverflowGuardError: Bromwich oracle at alpha=2.0, n=2" in out
    assert not [line for line in out.splitlines() if line.startswith("bromwich-oracle")]
    assert "bromwich-oracle" not in (tmp_path / "out" / "verify.csv").read_text()


@pytest.mark.parametrize("c0", [1.0, 1.5])
def test_bromwich_suite_passes_right_of_the_imaginary_axis(tmp_path, c0):
    # sup Re a = c0: the contour at alpha = c0 + 0.5 keeps the e^(alpha t) truncation small
    cfg = dataclasses.replace(default_config("verify"), coeffs=(complex(c0), 0j, complex(HEAT_C2)))
    assert main(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    rows = {r.split(",")[0]: r.split(",") for r in
            (tmp_path / "verify.csv").read_text().splitlines()[1:]}
    # the worst error is relative to ||u||_2; times ||u||_2 it is the absolute error
    unorm = lp_norm(GridFunction.gaussian(cli.build_grid(cfg)), 2)
    assert float(rows["bromwich-oracle"][1]) * unorm <= 5e-5


def test_verify_passes_on_four_points(tmp_path):
    # the Gaussian sampled on 4 points has ||u||_2 = 2.0 against 0.84 on 256: the Bromwich
    # error is relative, so it reads 5.1e-5 here as on the default grid
    cfg = dataclasses.replace(default_config("verify"), points=4)
    assert main(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    rows = {r.split(",")[0]: r.split(",") for r in
            (tmp_path / "verify.csv").read_text().splitlines()[1:]}
    assert float(rows["bromwich-oracle"][1]) <= 5.2e-5


def test_verify_evaluates_each_family_once_per_index(monkeypatch, tmp_path):
    # the Laplace, pseudoresolvent and Bromwich suites share one evaluation per (family, n):
    # the scenario family and its drift comparison at the two indices of FAST_VERIFY
    keys, on_grid = [], symbols.SymbolSeq.on_grid

    def counted(seq, n, grid):
        keys.append((seq.name, n))
        return on_grid(seq, n, grid)

    monkeypatch.setattr(symbols.SymbolSeq, "on_grid", counted)
    assert cli.run_verify(FAST_VERIFY, tmp_path) == 0
    assert sorted(keys) == sorted((name, n) for name in ("heat-default", "heat-default+1/n")
                                  for n in FAST_VERIFY.n_list)


def test_evaluations_keep_families_apart_that_differ_only_in_a_signed_zero():
    # -0.0 == 0.0, yet the two families' values may differ in the sign of a zero
    ev = Evaluations(Grid(1, 4.0, 16))
    plus, minus = (symbols.make_poly_symbol_seq((c0, 0.0, HEAT_C2)) for c0 in (0.0, -0.0))
    assert ev.values(plus, 4) is not ev.values(minus, 4)
    assert ev.values(plus, 4) is ev.values(symbols.make_poly_symbol_seq((0.0, 0.0, HEAT_C2)), 4)


@pytest.mark.parametrize("family", [heat_symbol_seq(), symbols.constant_symbol_seq(0.5j, "B")],
                         ids=["grid", "constant"])
def test_evaluations_return_read_only_values(family):
    # every caller of a run shares one array per (family, n), so none may write into it
    ev = Evaluations(Grid(1, 4.0, 16))
    a = ev.values(family, 4)
    assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a[...] = 0.0
    assert ev.values(family, 4) is a
    assert a.tobytes() == family.on_grid(4, ev.grid).tobytes()


def test_laplace_suite_resolves_a_step_below_the_bound(tmp_path):
    # T = 40 / 2 = 20, so 2+50j takes the step 50 x 20 / 64 = 15.6 <= LAPLACE_STEP_MAX
    cfg = dataclasses.replace(FAST_VERIFY, lambda_samples=(2.0 + 50j,))
    assert main(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    rows = {r.split(",")[0]: r.split(",") for r in
            (tmp_path / "verify.csv").read_text().splitlines()[1:]}
    assert float(rows["laplace-identity"][1]) <= 1e-9


def test_laplace_suite_samples_complex_lambda_as_given():
    cfg = dataclasses.replace(FAST_VERIFY, lambda_samples=(2.0 + 5j,))
    grid, s = cli.build_grid(cfg), cli.build_family(cfg)
    u = GridFunction.gaussian(grid)
    omega = max(0.0, s.re_bound)

    def direct(lam):
        return max(semigroup.laplace_identity_residual(s.on_grid(n, grid), n, lam, u,
                                                       40.0 / (lam.real - omega))
                   for n in cfg.n_list[:2])

    worst = cli._suite_laplace(cfg, Evaluations(grid), s).worst
    assert worst == direct(2.0 + 5j)
    assert worst != direct(2.0 + 0j)


def nan_on_second_call(monkeypatch, name):
    """Patch ``cli.<name>`` so its second call returns NaN values.

    Every site makes at least two calls, so the NaN never leads the list: the
    pseudoresolvent site makes two on ``FAST_VERIFY`` (one block of pairs per
    index), so there it lands last, and the others make three or more.  The
    builtin ``max`` over a list keeps only a leading NaN (``max([x, nan])``
    is x) and a running ``max(worst, v)`` keeps none, so only a NaN-keeping
    sup such as ``np.max`` reports it.
    """
    original, calls = getattr(cli, name), []

    def patched(*args, **kwargs):
        calls.append(None)
        value = original(*args, **kwargs)
        return value * np.nan if len(calls) == 2 else value

    monkeypatch.setattr(cli, name, patched)


def nan_in_last_entry(monkeypatch, name):
    """Patch ``cli.<name>`` so the last entry of each array it returns is NaN.

    The Bromwich site reduces its three times in one call, so a NaN there is a
    trailing entry, which the builtin ``max`` would drop.
    """
    original = getattr(cli, name)

    def patched(*args, **kwargs):
        value = original(*args, **kwargs).copy()
        value[-1] = np.nan
        return value

    monkeypatch.setattr(cli, name, patched)


def _verify_status(suite, *extra):
    """The status cell of one verify suite run on ``FAST_VERIFY``."""
    run = getattr(cli, f"_suite_{suite}")
    grid, s = cli.build_grid(FAST_VERIFY), cli.build_family(FAST_VERIFY)
    return run(FAST_VERIFY, Evaluations(grid), s, *extra).row()[3]


#: sup site -> (the NaN patch, the cli name whose result enters the sup, run, the failure
#: it must report)
NAN_SITES = {
    "laplace": (nan_on_second_call, "laplace_identity_residual",
                lambda out: _verify_status("laplace"), "FAIL"),
    "pseudoresolvent": (nan_on_second_call, "pseudoresolvent_residual",
                        lambda out: _verify_status("pseudoresolvent", None), "FAIL"),
    "bromwich": (nan_in_last_entry, "relative_defects",
                 lambda out: _verify_status("bromwich"), "FAIL"),
    "perturbation-oracle": (nan_on_second_call, "phi",
                            lambda out: cli.run_perturb(FAST_PERTURB, out), 1),
}


@pytest.mark.parametrize("site", list(NAN_SITES))
def test_nan_in_a_sup_is_a_failure(monkeypatch, tmp_path, site):
    patch, name, run, failure = NAN_SITES[site]
    patch(monkeypatch, name)
    assert run(tmp_path) == failure


@pytest.mark.parametrize("command, text, names", [
    ("solve", "[sequence]\nn_list = 4, 8, 16\n", ("n_list",)),
    ("associate", "[sequence]\nn_list = 4, 8, 16\n", ("n_list",)),
    ("perturb", "[sequence]\nn_list = 4, 8, 16\n", ("n_list",)),
    # the 256-point default grid resolves n <= 4 only
    ("solve", "[sequence]\nn_list = 4, 8, 16, 32\n", ("n_list", "points", "half_width")),
    ("growth", "[mollifier]\nmollifier = bump\n", ("unknown section [mollifier]",)),
] + [
    # Re a(xi) = 0.025 (2 pi xi)^2 is unbounded above
    (command, "[family]\ncoeffs = 0, 0, -0.025\n", ("coeffs",)) for command in COMMANDS
] + [
    # the Laplace suite needs Re lambda > omega = 0 for the default heat family
    ("verify", f"[lambda]\nlambda_samples = {samples}\n", ("lambda_samples",))
    for samples in ("0.0, 10.0", "0+5j, 10.0", "-1.0", "2.0, -4.0")
] + [
    # the drift comparison has sup Re a_n = 1, so omega + 2 would sample left of it
    (command, "[growth]\nomega = -5\n", ("omega",)) for command in ("associate", "perturb")
] + [
    # a real lambda left of sup Re a_n = 1 of the drift and bundled families
    ("associate", "[lambda]\nlambda_samples = -5.0, 10.0\n",
     ("lambda_samples", "[-5.0, 10.0]", "1.0")),
    ("associate", "[lambda]\nlambda_samples = 2.0, 1.0, 1000.0\n",
     ("lambda_samples", "[2.0, 1.0]", "1.0")),
    # scale:2 doubles sup Re a = 0.5, so omega = 0.6 is below the scaled family's bound 1
    ("associate", "[family]\ncoeffs = 0.5, 0, 0.025\n[comparison]\ncomparison = scale:2\n"
                  "[growth]\nomega = 0.6\n", ("omega", "1.0")),
    # scale:-1 turns the heat family into anti-diffusion, Re a unbounded above
    ("associate", "[comparison]\ncomparison = scale:-1\n", ("comparison", "scale:-1")),
    # 2+100j takes the Laplace step 100 x 20 / 64 = 31.25, past LAPLACE_STEP_MAX = 16
    ("verify", "[lambda]\nlambda_samples = 2.0, 2+100j\n",
     ("lambda_samples", "(2+100j)", "31.25", "16")),
    ("verify", "[lambda]\nlambda_samples = 1+1000000j\n", ("lambda_samples", "(1+1000000j)")),
    # t_end / dt overflows to inf: no step count
    ("verify", "[time]\nt_end = 1.0\ndt = 5e-324\n", ("t_end", "dt")),
    ("verify", "[time]\nt_end = 1e300\ndt = 1e-10\n", ("t_end", "dt")),
    # the spacing 2 half_width / points overflows, or the frequency spacing 1/(2 half_width)
    ("verify", "[grid]\nhalf_width = 1e308\n", ("half_width",)),
    ("growth", "[grid]\nhalf_width = 1e-320\n", ("half_width",)),
    # the largest frequency 256 / (4e-300) makes (2 pi xi)^2 overflow in the symbols
    ("verify", "[grid]\nhalf_width = 1e-300\n", ("half_width",)),
    # a finite sup Re a_n whose e^(T sup Re a_n) overflows the Duhamel solve at t_end
    ("solve", "[family]\ncoeffs = 800, 0, 0.025\n", ("coeffs", "t_end")),
    ("solve", "[family]\ncoeffs = 1e308\n", ("coeffs", "t_end")),
], ids=["solve-three", "associate-three", "perturb-three", "solve-unresolved", "mollifier"]
   + [f"{command}-unbounded-poly" for command in COMMANDS]
   + ["verify-lambda-zero", "verify-lambda-imaginary", "verify-lambda-negative",
      "verify-lambda-second", "associate-omega-below-bound", "perturb-omega-below-bound",
      "associate-lambda-left", "associate-lambda-second-left",
      "associate-scale-omega-below-bound",
      "associate-scale-unbounded", "verify-lambda-step", "verify-lambda-step-huge",
      "verify-dt-subnormal", "verify-t-end-huge",
      "verify-half-width-huge", "growth-half-width-tiny", "verify-half-width-overflow",
      "solve-overflow",
      "solve-overflow-huge"])
def test_bad_config_exits_2_naming_fields(tmp_path, capsys, command, text, names):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    for name in names:
        assert name in err


#: each kind field, its section and the table of the values it takes
KIND_FIELDS = [("family_kind", "family", FAMILY_KINDS),
               ("fractional_c_rate", "family", FRACTIONAL_C_RATES),
               ("data_kind", "data", DATA_KINDS), ("forcing_kind", "forcing", FORCING_KINDS),
               ("perturb_c_rate", "perturbation", PERTURB_C_RATES)]


@pytest.mark.parametrize("field, section, kinds", KIND_FIELDS,
                         ids=[field for field, *_ in KIND_FIELDS])
def test_unknown_kind_exits_2_naming_its_field(tmp_path, capsys, field, section, kinds):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{field} = bogus\n")
    assert main(["growth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"config error: {field} must be one of "
                                       f"{', '.join(kinds)}, got 'bogus'\n")


def test_rate_fields_take_rates():
    # the values of fractional_c_rate and perturb_c_rate name the rates r(n) of symbols.RATES
    assert set(FRACTIONAL_C_RATES) | set(PERTURB_C_RATES) <= set(symbols.RATES)


@pytest.mark.parametrize("command", ["verify", "associate", "perturb", "growth"])
def test_drift_comparison_of_a_fractional_family_names_both_fields(command, tmp_path, capsys):
    # the default comparison is drift; growth reads no comparison and runs this config
    cfg = tmp_path / "fractional.cfg"
    cfg.write_text("[family]\nfamily_kind = fractional\n")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if command == "growth":
        assert (code, err) == (0, "")
    else:
        assert code == 2
        assert err == "config error: comparison = drift needs family_kind = poly, got fractional\n"


def test_scale_comparison_evaluates_its_base_once(monkeypatch):
    cfg = dataclasses.replace(default_config("associate"), comparison="scale:1.5")
    grid, base, calls = cli.build_grid(cfg), cli.build_family(cfg), []
    evaluate = symbols.SymbolSeq.eval

    def counted(seq, n, xi_vectors):
        calls.append((seq.shape, n))
        return evaluate(seq, n, xi_vectors)

    monkeypatch.setattr(symbols.SymbolSeq, "eval", counted)
    values = cli.build_comparison_family(cfg, base).on_grid(4, grid)
    assert calls == [("scaled", 4), ("poly", 4)]
    monkeypatch.undo()
    # the arithmetic of a base evaluated twice, bit for bit
    a = base.on_grid(4, grid)
    assert values.tobytes() == (a + (1.5 - 1.0) * a).tobytes()


#: comparisons whose declared sup Re a_n is checked, on poly bases with c0 = 0.5 and -0.2
RE_BOUND_COMPARISONS = ("drift", "shift:0.5j", "shift:-1", "scale:1.5", "scale:2", "scale:0")


def _built_families() -> dict:
    """Every family the code builds, id -> (family, n_list), on the associate grid."""
    cfg = default_config("associate")
    perturbations = {f"B={b}": cli.build_perturbations(dataclasses.replace(cfg, perturb_b=b))[0]
                     for b in (0.5j, 0.5, -0.5)}
    families = {name: (B, cfg.n_list) for name, B in perturbations.items()}
    for rate in ("inverse", "inverse-sqrt", "zero"):
        _, C = cli.build_perturbations(dataclasses.replace(cfg, perturb_c_rate=rate))
        families[f"C={rate}"] = (C, cfg.n_list)
    for c0 in (0.5, -0.2):
        poly = dataclasses.replace(cfg, coeffs=(c0, 0, HEAT_C2))
        s = cli.build_family(poly)
        families[f"c0={c0}"] = (s, cfg.n_list)
        for mode in RE_BOUND_COMPARISONS:
            families[f"c0={c0}-{mode}"] = (
                cli.build_comparison_family(dataclasses.replace(poly, comparison=mode), s),
                cfg.n_list)
        for name, B in perturbations.items():
            families[f"c0={c0}+{name}"] = (summed_symbol_seq(s, B), cfg.n_list)
    fractional = dataclasses.replace(cfg, family_kind="fractional",
                                     fractional_c_rate="one-plus-inverse")
    s = cli.build_family(fractional)
    families["fractional"] = (s, cfg.n_list)
    for mode in RE_BOUND_COMPARISONS[1:]:
        families[f"fractional-{mode}"] = (
            cli.build_comparison_family(dataclasses.replace(fractional, comparison=mode), s),
            cfg.n_list)
    for pair in association.bundled_family_pairs():
        families[f"pair-{pair.name}"] = (pair.s, pair.n_list)
        families[f"pair-{pair.name}-tilde"] = (pair.s_tilde, pair.n_list)
    return families


BUILT_FAMILIES = _built_families()


@pytest.mark.parametrize("family", list(BUILT_FAMILIES))
def test_grid_sup_re_is_within_the_declared_bound(family):
    # on L^2 a multiplier family generates exactly when sup Re a_n is finite,
    # and omega, the Laplace horizon and the contour abscissa all read re_bound
    s, n_list = BUILT_FAMILIES[family]
    grid = cli.build_grid(default_config("associate"))
    sup_re = max(float(np.max(s.on_grid(n, grid).real)) for n in n_list)
    assert sup_re <= s.re_bound + 1e-12, (sup_re, s.re_bound)


def _write(path: Path, text: str, encoding: str = "utf-8") -> str:
    path.write_text(text, encoding=encoding)
    return str(path)


#: case -> (extra argv, the prefix and path the message must name); ``blocker`` is a file
BAD_PATHS = {
    "out-is-a-file": lambda tmp, blocker: (
        ["--out", str(blocker)], ("usage error: --out", str(blocker))),
    "out-under-a-file": lambda tmp, blocker: (
        ["--out", str(blocker / "sub")], ("usage error: --out", str(blocker / "sub"))),
    "output-dir-under-a-file": lambda tmp, blocker: (
        ["--config", _write(tmp / "o.cfg", f"[output]\noutput_dir = {blocker / 'sub'}\n")],
        ("config error: output_dir", str(blocker / "sub"))),
    "config-is-a-directory": lambda tmp, blocker: (
        ["--config", str(tmp)], ("usage error: --config", str(tmp))),
    "config-not-utf8": lambda tmp, blocker: (
        ["--config", _write(tmp / "latin1.cfg", "[family]\nname = caf\xe9\n", "latin-1")],
        ("usage error: --config", str(tmp / "latin1.cfg"))),
}


@pytest.mark.parametrize("case", list(BAD_PATHS))
def test_bad_path_exits_2_naming_it(tmp_path, capsys, case):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    argv, names = BAD_PATHS[case](tmp_path, blocker)
    assert main(["growth"] + argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for name in names:
        assert name in err


def test_no_plots_is_accepted_and_changes_no_output(tmp_path, capsys):
    # a retired flag that perfbench still passes: hidden from --help, and it changes no byte
    for command, changes in (("growth", {}), ("solve", {"points": 512, "n_list": (2, 3, 4, 5)})):
        cfg = write_cfg(tmp_path, dataclasses.replace(default_config(command), **changes))
        outputs = []
        for flag in ([], ["--no-plots"]):
            out = tmp_path / f"{command}{len(outputs)}"
            assert main([command, "--config", cfg, "--out", str(out)] + flag) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert any(name.endswith(".csv") for name in outputs[0])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "--no-plots" not in capsys.readouterr().out


#: the C-order x of the 512-point grid of the data-file cases
DATA_FILE_X = Grid(1, default_config("solve").half_width, 512).coordinate_vectors()
DATA_FILE_X = DATA_FILE_X.ravel().tolist()


class TestSolveCommand:
    @pytest.mark.parametrize("header, rows, code", [
        ("x,re,im", [f"{x!r},1.0,0.0" for x in DATA_FILE_X], 0),
        (None, [], 2),
        ("x,re", [f"{x!r},1.0" for x in DATA_FILE_X], 2),
        ("x,re,im", [f"{x!r},1.0,0.0" for x in DATA_FILE_X[:10]], 2),
        ("x,re,im", [f"{99.0 + k!r},1.0,0.0" for k in range(512)], 2),
        ("x,re,im", [f"{x!r},1.0,0.0" for x in DATA_FILE_X[::-1]], 2),
    ], ids=["valid", "missing", "two-columns", "short", "wrong-coordinates", "reversed"])
    def test_data_file(self, tmp_path, capsys, header, rows, code):
        data = tmp_path / "datum.csv"
        if header is not None:
            data.write_text("\n".join([header] + rows) + "\n")
        cfg = dataclasses.replace(default_config("solve"), points=512, n_list=(2, 3, 4, 5),
                                  data_kind="file", data_path=str(data))
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "f")]) == code
        assert ("data_path" in capsys.readouterr().err) == (code == 2)

    def test_data_file_names_the_first_bad_row(self, tmp_path, capsys):
        # every row is off by half the stated tolerance, as a file printed at fewer digits
        # would be, and passes; row 3 is moved by half a spacing more
        cfg = dataclasses.replace(default_config("solve"), points=512, n_list=(2, 3, 4, 5),
                                  data_kind="file", data_path=str(tmp_path / "datum.csv"))
        h = cli.build_grid(cfg).spacing
        xs = [x + 0.5 * cli.DATA_COORD_TOL * h for x in DATA_FILE_X]
        xs[2] += 0.5 * h
        Path(cfg.data_path).write_text("x,re,im\n" + "".join(f"{x!r},1.0,0.0\n" for x in xs))
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert "data_path" in err and "row 3 after the header" in err, err

    def test_narrow_half_width_is_a_config_error(self, tmp_path, capsys):
        # the resolution guard accepts half_width = 1, but psi1 and psi2 reach |x| = 1.7, 1.9
        cfg = dataclasses.replace(default_config("solve"), points=512, half_width=1.0,
                                  n_list=(1, 2, 3, 4))
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert "half_width = 1.0" in err and "|x| = 1.9" in err, err


    def test_heat_delta_scenario(self, tmp_path):
        cfg = dataclasses.replace(default_config("solve"), points=1024,
                                  n_list=(2, 4, 8, 16), output_dir=str(tmp_path / "o"))
        code = main(["solve", "--config", write_cfg(tmp_path, cfg)])
        assert code == 0
        out = tmp_path / "o"
        for name in ("solution.csv", "pairings.csv", "weak_limits.csv",
                     "residuals.csv", "moderateness.csv"):
            assert (out / name).exists()
        limits = (out / "weak_limits.csv").read_text().splitlines()
        assert all("True" in line for line in limits[1:])

    def test_zero_data_zero_forcing(self, tmp_path):
        cfg = dataclasses.replace(default_config("solve"), points=512,
                                  data_kind="zero", n_list=(2, 3, 4, 5))
        code = main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "z")])
        assert code == 0
        body = (tmp_path / "z" / "residuals.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[1]) == 0.0 for line in body)
        sol = (tmp_path / "z" / "solution.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[3]) == 0.0 for line in sol)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("changes, nan_pairing_at, message", [
        ({"forcing_kind": "gaussian_pulse", "forcing_amplitude": amplitude}, None,
         "residual at n = 4 is nan") for amplitude in (1e200, 1e308)
    ] + [
        # the weight e^(-omega t) of the moderateness sup overflows
        ({"omega": -1000.0}, None, "sup_weighted_l2 at n = 4 is inf"),
        # the last index fails after the first three are written to solution.csv.partial
        ({}, 32, "pairing psi0 at n = 32 is (nan+nanj)"),
    ], ids=["amplitude-1e200", "amplitude-1e308", "omega", "pairing-at-last-index"])
    def test_non_finite_output_exits_2_before_any_csv(self, tmp_path, capsys, monkeypatch,
                                                      changes, nan_pairing_at, message):
        cfg = dataclasses.replace(default_config("solve"), **changes)
        pairing, calls = cli.very_weak_pairing, []

        def patched(sums, psi):
            calls.append(psi.label)  # one call per test function, index by index
            n = cfg.n_list[(len(calls) - 1) // len(cli.PAIRING_BUMPS)]
            return complex(np.nan, np.nan) if n == nan_pairing_at else pairing(sums, psi)

        monkeypatch.setattr(cli, "very_weak_pairing", patched)
        out = tmp_path / "o"
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}, not finite")
        assert f"forcing_amplitude = {cfg.forcing_amplitude}" in err
        assert f"omega = {cfg.omega}" in err
        assert [p.name for p in out.iterdir()] == ["config_used.txt"]

    def test_default_solve_holds_one_time_slice_at_a_time(self, tmp_path):
        # one index's samples are 129 x 2,048 complex, 4.03 MiB: holding them for the
        # reductions peaked at 5.06 MiB, and holding all four indices of n_list until
        # the first CSV was written at 18.7 MiB; a slice is 32 KiB
        cfg = default_config("solve")
        assert len(time_grid(cfg)) * cfg.points ** cfg.dimension * 16 == 129 * 2048 * 16
        tracemalloc.start()
        try:
            assert cli.run_solve(cfg, tmp_path) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_schrodinger_type_family_runs(self, tmp_path):
        cfg = dataclasses.replace(
            default_config("solve"), family_kind="fractional", fractional_m=2.0,
            fractional_c_rate="one-plus-inverse", comparison="none", points=1024,
            n_list=(2, 4, 8, 16))
        code = main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "s")])
        assert code == 0
        rows = (tmp_path / "s" / "moderateness.csv").read_text().splitlines()[1:]
        sup_norms = [float(r.split(",")[2]) for r in rows]
        assert all(np.isfinite(sup_norms))


    def test_two_dimensional_sup_weighted_l2_is_the_sup_of_slice_norms(self, tmp_path):
        # 64 x 64 points on [-2, 2)^2 resolve n <= 4; each moderateness row is
        # max_t e^(-omega t) ||w_n(t)||_2 over the whole plane
        cfg = dataclasses.replace(default_config("solve"), dimension=2, half_width=2.0,
                                  points=64, n_list=(1, 2, 3, 4), dt=1.0 / 8.0, omega=0.5)
        out = tmp_path / "s2"
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
        assert (out / "solution.csv").read_text().splitlines()[0] == "n,t,x_1,x_2,re_w,im_w"
        grid, tg = cli.build_grid(cfg), time_grid(cfg)
        data = cli.build_data(cfg, grid)
        s, forcing = cli.build_family(cfg), cli.build_forcing(cfg, grid)
        rows = (out / "moderateness.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(cfg.n_list)
        for row in rows:
            n, sup = int(row.split(",")[0]), float(row.split(",")[2])
            slices = duhamel_solve(s.on_grid(n, grid), n, mollify(data, n), forcing, tg)
            expected = max(np.exp(-cfg.omega * t) * lp_norm(GridFunction(grid, w), 2)
                           for t, w in zip(tg, slices))
            assert sup == pytest.approx(expected, rel=1e-12)


class TestAssociateCommand:
    def test_drift_scenario_on_a_two_dimensional_grid(self, tmp_path):
        # the drift family is c_2 times the Laplacian plus the x_1 drift, perturbed by 1/n
        cfg = dataclasses.replace(default_config("associate"), dimension=2, points=32)
        out = tmp_path / "a2"
        assert main(["associate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
        summary = (out / "association_summary.txt").read_text()
        assert '"label": "coefficient-perturbation"' in summary
        for line in (out / "theorem_agreement.csv").read_text().splitlines()[1:]:
            assert line.endswith(",")  # empty disagreement column

    def test_drift_scenario(self, tmp_path):
        code = main(["associate", "--out", str(tmp_path / "a")])
        assert code == 0
        summary = (tmp_path / "a" / "association_summary.txt").read_text()
        assert '"verdict": "associated"' in summary
        agreement = (tmp_path / "a" / "theorem_agreement.csv").read_text()
        assert agreement.count("associated") > 0
        for line in agreement.splitlines()[1:]:
            assert line.endswith(",")  # empty disagreement column

    def test_identical_families_zero(self, tmp_path):
        cfg = dataclasses.replace(default_config("associate"), comparison="scale:1.0")
        code = main(["associate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "i")])
        assert code == 0
        rows = (tmp_path / "i" / "association_generator.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_no_real_lambda_is_config_error(self, tmp_path, capsys):
        # the resolvent checks and bounds sample only the real lambdas
        cfg = dataclasses.replace(default_config("associate"),
                                  lambda_samples=(2.0 + 1j, 10.0 + 0.5j))
        code = main(["associate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "c")])
        assert code == 2
        assert "lambda_samples" in capsys.readouterr().err
        assert not (tmp_path / "c" / "association_resolvent.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t_max", [3000.0, 1e308])
    def test_overflowing_t_max_exits_2_naming_it(self, tmp_path, capsys, t_max):
        # Re a_4 = 1/4 for the drift family, so e^(t a_4) overflows from t = 2,840 on;
        # at 1e308 the product t a_4 itself overflows, inside phi's guard, with no warning
        cfg = dataclasses.replace(default_config("associate"), t_max=t_max)
        code = main(["associate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: t_max = {t_max} takes ")
        assert "overflow" in err
        assert not (tmp_path / "o" / "association.csv").exists()

    @pytest.mark.parametrize("change, named", [
        # t a~_n, a~_n = a_n - 1e308, overflows in the semigroup-difference samples
        ({"comparison": "shift:-1e308"}, "comparison = shift:-1e308"),
        # the generator-level norm |1e300j| ||f|| overflows in its sum of squares
        ({"comparison": "shift:1e300j"}, "comparison = shift:1e300j"),
        # t a_n = 1e308j t overflows from t = 1.8 on
        ({"coeffs": (1e308j,)}, "coeffs = (1e+308j,)"),
        # (f - 1) a_n overflows in a + (f - 1) a_n once |a_n| > 1.8
        ({"comparison": "scale:1e308"}, "comparison scale:1e308"),
        # |xi|^400 overflows from |xi| = 5.9 on, below the largest grid frequency 8
        ({"family_kind": "fractional", "fractional_m": 400.0, "comparison": "scale:1.5"},
         "fractional_m = 400.0"),
    ], ids=["shift-real", "shift-imaginary", "coeffs-imaginary", "scale-huge",
            "fractional-m-huge"])
    # each stops through a guard, a refused norm or the config check, without numpy's
    # RuntimeWarning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_symbol_exits_2_naming_its_field(self, tmp_path, capsys, change,
                                                         named):
        cfg = dataclasses.replace(default_config("associate"), **change)
        code = main(["associate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ")
        assert named in err
        assert not (tmp_path / "o" / "association.csv").exists()

    def test_semigroup_weight_overflow_exits_2_naming_omega_and_t(self, tmp_path, capsys):
        # e^(-omega t) = e^(200 t) overflows from t = 3.75 on
        cfg = dataclasses.replace(default_config("associate"), coeffs=(-300, 0, 0.0253),
                                  comparison="shift:1j", omega=-200.0)
        code = main(["associate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("parameter error: non-finite weight at omega = -200.0, t = ")
        assert "Traceback" not in err

    def test_shifted_families_not_associated(self, tmp_path):
        cfg = dataclasses.replace(default_config("associate"), comparison="shift:1.0")
        code = main(["associate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "n")])
        assert code == 0
        summary = (tmp_path / "n" / "association_summary.txt").read_text()
        assert '"verdict": "not-associated"' in summary


def test_associate_evaluates_each_symbol_and_spectrum_once_per_pair_and_index(
        tmp_path, monkeypatch):
    # the counts of the one-pass association kernel on the default config; a check
    # that went back to one pass per level would evaluate symbols and FFTs again
    counts, kernel_indices = Counter(), []

    def counting(owner, name, record=None):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            if record is not None:
                record.append(len(args[-1]))  # the kernel's n_list
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    counting(symbols.SymbolSeq, "on_grid")
    counting(np.fft, "fftn")
    counting(association, "multiplier_norms")
    counting(association, "fit_moderate")
    # the levels' factors call these in their own module
    counting(semigroup, "phi")
    counting(semigroup, "resolvent_factor")
    # each module that calls the kernel holds its own reference to it
    for caller in (association, cli, perturbation):
        counting(caller, "check_association", kernel_indices)
    assert cli.run_associate(default_config("associate"), tmp_path) == 0
    # the scenario check, the merged generator/resolvent/weighted call, one per pair
    assert len(kernel_indices) == 2 + len(association.bundled_family_pairs())
    assert 0 < counts["multiplier_norms"] <= sum(kernel_indices)
    assert 0 < counts["multiplier_norms"] <= 55
    # one evaluation per distinct (family value, n) of the run
    assert 0 < counts["on_grid"] <= 57
    # one FFT per distinct test function of the run; the run's Evaluations takes the base
    # family's blocks once per index and each moderateness fit once for the run, and a
    # one-sequence report reuses that sequence's fit for its envelope
    assert 0 < counts["fftn"] <= 13
    assert 0 < counts["phi"] <= 57
    assert 0 < counts["resolvent_factor"] <= 119
    assert 0 < counts["fit_moderate"] <= 110


def test_character_contradiction_exits_1_naming_pair_and_level(tmp_path, monkeypatch, capsys):
    # real-shift, designed not-associated, is relabelled associated: its levels still
    # agree with each other, so only the character gate can fail the run
    pairs = [dataclasses.replace(pr, character="associated") if pr.name == "real-shift" else pr
             for pr in association.bundled_family_pairs()]
    monkeypatch.setattr(cli, "bundled_family_pairs", lambda: pairs)
    assert main(["associate", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "suite disagreements: 0" in captured.out
    assert captured.err.splitlines() == [
        f"character contradiction: real-shift reads not-associated at the {level} level, "
        f"against its character associated"
        for level in ("generator", "resolvent", "weighted", "semigroup")]


@pytest.mark.parametrize("command", COMMANDS)
def test_each_run_evaluates_each_family_value_once_per_index(command, tmp_path, monkeypatch):
    # one Evaluations per run: as many on_grid calls as distinct (family value, n) keys,
    # also where equal families are built as different objects (the cross-check's pairs)
    keys, on_grid = [], symbols.SymbolSeq.on_grid

    def counted(seq, n, grid):
        keys.append((seq, n))
        return on_grid(seq, n, grid)

    monkeypatch.setattr(symbols.SymbolSeq, "on_grid", counted)
    assert cli.RUNNERS[command](default_config(command), tmp_path) == 0
    assert 0 < len(keys) == len(set(keys))


def test_growth_evaluates_the_symbol_once_per_index(tmp_path, monkeypatch):
    # M_n and M'_n come from one operator_sups pass over the default n_list
    calls = []
    on_grid = symbols.SymbolSeq.on_grid

    def counted(self, n, grid):
        calls.append(n)
        return on_grid(self, n, grid)

    monkeypatch.setattr(symbols.SymbolSeq, "on_grid", counted)
    assert cli.run_growth(default_config("growth"), tmp_path) == 0
    assert len(calls) == 4


class TestPerturbGrowthCommands:
    def test_perturb_default(self, tmp_path):
        cfg = dataclasses.replace(default_config("perturb"), n_list=(4, 8, 16, 32))
        code = main(["perturb", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "p")])
        assert code == 0
        summary = (tmp_path / "p" / "perturb_summary.txt").read_text()
        assert "claim 2 perturbed pair: associated" in summary

    def test_perturb_on_a_two_dimensional_grid(self, tmp_path):
        cfg = dataclasses.replace(default_config("perturb"), dimension=2, half_width=3.0,
                                  points=16, n_list=(1, 2, 3, 4))
        code = main(["perturb", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "p2")])
        assert code == 0
        summary = (tmp_path / "p2" / "perturb_summary.txt").read_text()
        assert "claim 2 perturbed pair: associated" in summary

    def test_growth_writes_certificate(self, tmp_path):
        cfg = dataclasses.replace(FAST_VERIFY, n_list=(4, 8, 16, 32))
        code = main(["growth", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "g")])
        assert code == 0
        header = (tmp_path / "g" / "growth.csv").read_text().splitlines()[0]
        assert header == "n,M_n,M_prime_n,omega,b,fitted_C,fitted_a"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_certificate_exits_2_naming_the_bound(self, tmp_path, capsys):
        # Im(t a) overflows at the large t samples, and cos(inf) is NaN
        cfg = dataclasses.replace(default_config("growth"), coeffs=(1e308j,))
        out = tmp_path / "g"
        assert main(["growth", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "parameter error: growth bound M'_n at n=4 is nan\n"
        assert not (out / "growth.csv").exists()

    def test_growth_omega_is_a_plain_float(self, tmp_path):
        # omega = re_bound + 0.5 = 2.5 here, the family's closed-form sup Re
        cfg = dataclasses.replace(FAST_VERIFY, coeffs=(2.0 + 0j, 0j, 0.025 + 0j))
        code = main(["growth", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "g")])
        assert code == 0
        rows = (tmp_path / "g" / "growth.csv").read_text().splitlines()[1:]
        assert rows and all(r.split(",")[3] == "2.5" for r in rows)
