"""Harness tests: config round-trip, subcommands, exit codes, determinism."""
import dataclasses
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from semigrouplab import association, cli, perturbation, semigroup, symbols
from semigrouplab.cauchy import solve_sequence
from semigrouplab.cli import main
from semigrouplab.config import (HEAT_C2, ExperimentConfig, default_config, load_config,
                                 parse_config, serialize_config, time_grid)
from semigrouplab.errors import ConfigError
from semigrouplab.quadrature import composite_gauss_points
from semigrouplab.spectral import Grid, GridFunction, lp_norm, mollify
from semigrouplab.symbols import heat_symbol_seq, summed_symbol_seq

COMMANDS = ("verify", "solve", "associate", "perturb", "growth")
FAST_VERIFY = dataclasses.replace(
    default_config("verify"), points=128, lambda_samples=(2.0 + 0j, 10.0 + 0j),
    n_list=(2, 3))


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
            assert main([command, "--config", config, "--out", out, "--no-plots"]) == 2
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
        for entries in (1, semigroup.BLOCK_ENTRIES, 10**9):
            monkeypatch.setattr(semigroup, "BLOCK_ENTRIES", entries)
            contours = semigroup.bromwich_S(s, 1, (0.25, 1.0), u, alpha=2.0, r_max=200.0,
                                            steps=20000)
            results.append((semigroup.laplace_identity_residual(s, 2, 10.0, u, 4.0),
                            cli._suite_functional_equation(cfg).worst,
                            np.stack([c.values for c in contours])))
        (laplace, fe, contour), others = results[0], results[1:]
        for other_laplace, other_fe, other_contour in others:
            # both are defects of quantities of order one
            assert abs(other_laplace - laplace) <= 1e-12
            assert abs(other_fe - fe) <= 1e-12
            assert np.max(np.abs(other_contour - contour)) <= 1e-12 * np.max(np.abs(contour))

    def test_each_suite_peak_memory_is_small(self, setting):
        cfg, grid, s, _ = setting
        suites = [lambda: cli._suite_laplace(cfg, grid, s),
                  lambda: cli._suite_pseudoresolvent(cfg, grid, s, None),
                  lambda: cli._suite_functional_equation(cfg),
                  lambda: cli._suite_bromwich(cfg, grid, s),
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

    def test_bromwich_suite_peak_memory_is_under_1_mib(self, setting):
        # the real kernel and the time weights are built per block: about 0.84 MiB on a
        # first call; weights built for all 20,001 nodes up front peaked at 2.97 MiB
        cfg, grid, s, _ = setting
        tracemalloc.start()
        try:
            assert cli._suite_bromwich(cfg, grid, s).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, f"{peak / 2**20:.2f} MiB"

    def test_two_dimensional_laplace_is_small_and_matches_the_plain_rule(self, monkeypatch):
        g2, s, n, lam, T = Grid(2, 8.0, 128), heat_symbol_seq(), 2, 2.0 + 1j, 20.0
        u = GridFunction.gaussian(g2)
        tracemalloc.start()
        try:
            res = semigroup.laplace_identity_residual(s, n, lam, u, T)
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

        def counted(t, a, out=None):
            entries.append(np.broadcast(t, a).size)
            return phi(t, a, out=out)

        monkeypatch.setattr(semigroup, "phi", counted)
        assert semigroup.laplace_identity_residual(s, n, lam, u, T) == res
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
    assert cli._suite_pseudoresolvent(FAST_VERIFY, grid, s, s_tilde).passed
    # two families times two indices, for the 50 (lambda, mu) pairs
    assert counts == {"resolvent_factor": 4, "multiplier_norms": 4}


def _first_call_args(monkeypatch, name, suite):
    """The arguments of the first ``cli.<name>`` call that ``suite`` makes."""
    calls, fn = [], getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    assert suite(FAST_VERIFY).passed
    return calls[0]


def test_functional_equation_draws_match_the_scalar_loop(monkeypatch):
    t_in, a_in = _first_call_args(monkeypatch, "phi", cli._suite_functional_equation)
    rng = np.random.default_rng(20240802)
    draws = [(rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0), rng.uniform(0.0, 100.0),
              rng.uniform(0.5 * np.pi, 1.5 * np.pi)) for _ in range(1000)]
    t, _, r, ang = (np.array(col) for col in zip(*draws))
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
        def run(t, a, out=None):
            entries.append(np.broadcast(t, a).size)
            return phi(t, a, out=out)
        return run

    monkeypatch.setattr(cli, "phi", counted(cli.phi))
    monkeypatch.setattr(semigroup, "phi", counted(semigroup.phi))
    assert cli._suite_functional_equation(FAST_VERIFY).worst == worst
    assert 0 < sum(entries) <= (2 + 3 * 28) * 1000


def test_perturbation_oracle_draws_match_the_scalar_loop(monkeypatch):
    args = _first_call_args(monkeypatch, "perturbation_quadrature",
                            cli._suite_perturbation_oracle)
    rng = np.random.default_rng(20240803)
    draws = []
    for _ in range(1000):
        ra, rb = rng.uniform(0, 100.0, size=2)
        ta_, tb_ = rng.uniform(0.5 * np.pi, 1.5 * np.pi, size=2)
        draws.append((ra * np.exp(1j * ta_), rb * np.exp(1j * tb_), rng.uniform(0.01, 5.0)))
    t, a, b = args
    for got, want in zip((a, b, t), zip(*draws)):
        assert np.asarray(got).tobytes() == np.array(want).tobytes()


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


@pytest.mark.parametrize("c0", [1.0, 1.5])
def test_bromwich_suite_passes_right_of_the_imaginary_axis(tmp_path, c0):
    # sup Re a = c0: the contour at alpha = c0 + 0.5 keeps the e^(alpha t) truncation small
    cfg = dataclasses.replace(default_config("verify"), coeffs=(complex(c0), 0j, complex(HEAT_C2)))
    assert main(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    rows = {r.split(",")[0]: r.split(",") for r in
            (tmp_path / "verify.csv").read_text().splitlines()[1:]}
    assert float(rows["bromwich-oracle"][1]) <= 5e-5


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
        return max(semigroup.laplace_identity_residual(s, n, lam, u, 40.0 / (lam.real - omega))
                   for n in cfg.n_list[:2])

    worst = cli._suite_laplace(cfg, grid, s).worst
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


FAST_PERTURB = dataclasses.replace(default_config("perturb"), points=64, n_list=(4, 8, 16, 32))


def _verify_status(suite, *extra):
    """The status cell of one verify suite run on ``FAST_VERIFY``."""
    run = getattr(cli, f"_suite_{suite}")
    grid, s = cli.build_grid(FAST_VERIFY), cli.build_family(FAST_VERIFY)
    return run(FAST_VERIFY, grid, s, *extra).row()[3]


#: sup site -> (the cli name whose result enters the sup, run, the failure it must report)
NAN_SITES = {
    "laplace": ("laplace_identity_residual", lambda out: _verify_status("laplace"), "FAIL"),
    "pseudoresolvent": ("pseudoresolvent_residual",
                        lambda out: _verify_status("pseudoresolvent", None), "FAIL"),
    "bromwich": ("lp_norm", lambda out: _verify_status("bromwich"), "FAIL"),
    "perturbation-oracle": ("phi",
                            lambda out: cli.run_perturb(FAST_PERTURB, out), 1),
}


@pytest.mark.parametrize("site", list(NAN_SITES))
def test_nan_in_a_sup_is_a_failure(monkeypatch, tmp_path, site):
    name, run, failure = NAN_SITES[site]
    nan_on_second_call(monkeypatch, name)
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
], ids=["solve-three", "associate-three", "perturb-three", "solve-unresolved", "mollifier"]
   + [f"{command}-unbounded-poly" for command in COMMANDS]
   + ["verify-lambda-zero", "verify-lambda-imaginary", "verify-lambda-negative",
      "verify-lambda-second", "associate-omega-below-bound", "perturb-omega-below-bound",
      "associate-lambda-left", "associate-lambda-second-left",
      "associate-scale-omega-below-bound",
      "associate-scale-unbounded", "verify-lambda-step", "verify-lambda-step-huge",
      "verify-dt-subnormal", "verify-t-end-huge",
      "verify-half-width-huge", "growth-half-width-tiny"])
def test_bad_config_exits_2_naming_fields(tmp_path, capsys, command, text, names):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--no-plots"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    for name in names:
        assert name in err


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
                     "--out", str(tmp_path / "f"), "--no-plots"]) == code
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
                     "--out", str(tmp_path / "f"), "--no-plots"]) == 2
        err = capsys.readouterr().err
        assert "data_path" in err and "row 3 after the header" in err, err

    def test_narrow_half_width_is_a_config_error(self, tmp_path, capsys):
        # the resolution guard accepts half_width = 1, but psi1 and psi2 reach |x| = 1.7, 1.9
        cfg = dataclasses.replace(default_config("solve"), points=512, half_width=1.0,
                                  n_list=(1, 2, 3, 4))
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "f"), "--no-plots"]) == 2
        err = capsys.readouterr().err
        assert "half_width = 1.0" in err and "|x| = 1.9" in err, err


    def test_heat_delta_scenario(self, tmp_path):
        cfg = dataclasses.replace(default_config("solve"), points=1024,
                                  n_list=(2, 4, 8, 16), output_dir=str(tmp_path / "o"))
        code = main(["solve", "--config", write_cfg(tmp_path, cfg), "--no-plots"])
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
                     "--out", str(tmp_path / "z"), "--no-plots"])
        assert code == 0
        body = (tmp_path / "z" / "residuals.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[1]) == 0.0 for line in body)
        sol = (tmp_path / "z" / "solution.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[3]) == 0.0 for line in sol)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("changes, message", [
        ({"forcing_kind": "gaussian_pulse", "forcing_amplitude": amplitude},
         "residual at n = 4 is nan") for amplitude in (1e200, 1e308)
    ] + [
        # the weight e^(-omega t) of the moderateness sup overflows
        ({"omega": -1000.0}, "sup_weighted_l2 at n = 4 is inf"),
    ], ids=["amplitude-1e200", "amplitude-1e308", "omega"])
    def test_non_finite_output_exits_2_before_any_csv(self, tmp_path, capsys, changes, message):
        cfg = dataclasses.replace(default_config("solve"), **changes)
        out = tmp_path / "o"
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out), "--no-plots"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}, not finite")
        assert f"forcing_amplitude = {cfg.forcing_amplitude}" in err
        assert f"omega = {cfg.omega}" in err
        assert list(out.glob("*.csv")) == []

    def test_schrodinger_type_family_runs(self, tmp_path):
        cfg = dataclasses.replace(
            default_config("solve"), family_kind="fractional", fractional_m=2.0,
            fractional_c_rate="one-plus-inverse", comparison="none", points=1024,
            n_list=(2, 4, 8, 16))
        code = main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "s"), "--no-plots"])
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
                     "--out", str(out), "--no-plots"]) == 0
        assert (out / "solution.csv").read_text().splitlines()[0] == "n,t,x_1,x_2,re_w,im_w"
        grid, tg = cli.build_grid(cfg), time_grid(cfg)
        data = cli.build_data(cfg, grid)
        sol = solve_sequence(cli.build_family(cfg), cfg.n_list, lambda n: mollify(data, n),
                             cli.build_forcing(cfg, grid), tg)
        rows = (out / "moderateness.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(cfg.n_list)
        for row in rows:
            n, sup = int(row.split(",")[0]), float(row.split(",")[2])
            expected = max(np.exp(-cfg.omega * t) * lp_norm(sol.w(n, t), 2) for t in tg)
            assert sup == pytest.approx(expected, rel=1e-12)


class TestAssociateCommand:
    def test_drift_scenario_on_a_two_dimensional_grid(self, tmp_path):
        # the drift family is c_2 times the Laplacian plus the x_1 drift, perturbed by 1/n
        cfg = dataclasses.replace(default_config("associate"), dimension=2, points=32)
        out = tmp_path / "a2"
        assert main(["associate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out), "--no-plots"]) == 0
        summary = (out / "association_summary.txt").read_text()
        assert '"label": "coefficient-perturbation"' in summary
        for line in (out / "theorem_agreement.csv").read_text().splitlines()[1:]:
            assert line.endswith(",")  # empty disagreement column

    def test_drift_scenario(self, tmp_path):
        code = main(["associate", "--out", str(tmp_path / "a"), "--no-plots"])
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
                     "--out", str(tmp_path / "i"), "--no-plots"])
        assert code == 0
        rows = (tmp_path / "i" / "association_generator.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_no_real_lambda_is_config_error(self, tmp_path, capsys):
        # the resolvent checks and bounds sample only the real lambdas
        cfg = dataclasses.replace(default_config("associate"),
                                  lambda_samples=(2.0 + 1j, 10.0 + 0.5j))
        code = main(["associate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "c"), "--no-plots"])
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
                     "--out", str(tmp_path / "o"), "--no-plots"])
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
    ], ids=["shift-real", "shift-imaginary", "coeffs-imaginary"])
    # each stops through a guard or a refused norm, without numpy's RuntimeWarning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_symbol_exits_2_naming_its_field(self, tmp_path, capsys, change,
                                                         named):
        cfg = dataclasses.replace(default_config("associate"), **change)
        code = main(["associate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "o"), "--no-plots"])
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
                     "--out", str(tmp_path / "o"), "--no-plots"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("parameter error: non-finite weight at omega = -200.0, t = ")
        assert "Traceback" not in err

    def test_shifted_families_not_associated(self, tmp_path):
        cfg = dataclasses.replace(default_config("associate"), comparison="shift:1.0")
        code = main(["associate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "n"), "--no-plots"])
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
    assert cli.run_associate(default_config("associate"), tmp_path, make_plots=False) == 0
    # the scenario check, the merged generator/resolvent/weighted call, one per pair
    assert len(kernel_indices) == 2 + len(association.bundled_family_pairs())
    assert 0 < counts["multiplier_norms"] <= sum(kernel_indices)
    assert 0 < counts["multiplier_norms"] <= 55
    assert 0 < counts["on_grid"] <= 115
    # one FFT per distinct test function; the cross-check's shared pass takes the base
    # family's blocks once per index and each moderateness fit once for all nine pairs,
    # and a one-sequence report reuses that sequence's fit for its envelope
    assert 0 < counts["fftn"] <= 14
    assert 0 < counts["phi"] <= 57
    assert 0 < counts["resolvent_factor"] <= 119
    assert 0 < counts["fit_moderate"] <= 117


def test_character_contradiction_exits_1_naming_pair_and_level(tmp_path, monkeypatch, capsys):
    # real-shift, designed not-associated, is relabelled associated: its levels still
    # agree with each other, so only the character gate can fail the run
    pairs = [dataclasses.replace(pr, character="associated") if pr.name == "real-shift" else pr
             for pr in association.bundled_family_pairs()]
    monkeypatch.setattr(cli, "bundled_family_pairs", lambda: pairs)
    assert main(["associate", "--out", str(tmp_path), "--no-plots"]) == 1
    captured = capsys.readouterr()
    assert "suite disagreements: 0" in captured.out
    assert captured.err.splitlines() == [
        f"character contradiction: real-shift reads not-associated at the {level} level, "
        f"against its character associated"
        for level in ("generator", "resolvent", "weighted", "semigroup")]


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
