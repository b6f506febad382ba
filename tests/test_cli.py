"""Harness tests: config round-trip, subcommands, exit codes, determinism."""
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from semigrouplab.cli import main
from semigrouplab.config import (ExperimentConfig, default_config, load_config,
                                 parse_config, serialize_config)
from semigrouplab.errors import ConfigError

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

    def test_validation_rules(self):
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
            ("[mollifier]\nmollifier = gaussian\n", "mollifier"),
            ("[family]\ncoeffs = nan, 0, 0.025\n", "^coeffs must be finite"),
            ("[family]\ncoeffs = 0, 0, infj\n", "^coeffs must be finite"),
            ("[family]\nfractional_m = nan\n", "^fractional_m must be finite"),
            ("[lambda]\nlambda_samples = nan\n", "^lambda_samples must be finite"),
            ("[lambda]\nlambda_samples = 2, inf\n", "^lambda_samples must be finite"),
            ("[data]\ndata_width = nan\n", "^data_width must be finite and positive"),
            ("[data]\ndata_width = 0.0\n", "^data_width must be finite and positive"),
            ("[forcing]\nforcing_amplitude = inf\n", "^forcing_amplitude must be finite"),
        ]
        for text, field in bad_inputs:
            with pytest.raises(ConfigError, match=field):
                parse_config(text)

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
        # -4 = a(xi) at xi = 2, an exact spectral hit for the heat family
        bad = dataclasses.replace(FAST_VERIFY, lambda_samples=(-4.0 + 0j,))
        code = main(["verify", "--config", write_cfg(tmp_path, bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        text = capsys.readouterr().out + (tmp_path / "out" / "verify_summary.txt").read_text()
        assert "ResolventSingularity" in text

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(["verify", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestSolveCommand:
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


class TestAssociateCommand:
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

    def test_shifted_families_not_associated(self, tmp_path):
        cfg = dataclasses.replace(default_config("associate"), comparison="shift:1.0")
        code = main(["associate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "n"), "--no-plots"])
        assert code == 0
        summary = (tmp_path / "n" / "association_summary.txt").read_text()
        assert '"verdict": "not-associated"' in summary


class TestPerturbGrowthCommands:
    def test_perturb_default(self, tmp_path):
        cfg = dataclasses.replace(default_config("perturb"), n_list=(4, 8, 16, 32))
        code = main(["perturb", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "p")])
        assert code == 0
        summary = (tmp_path / "p" / "perturb_summary.txt").read_text()
        assert "claim 2 perturbed pair: associated" in summary

    def test_growth_writes_certificate(self, tmp_path):
        cfg = dataclasses.replace(FAST_VERIFY, n_list=(4, 8, 16, 32))
        code = main(["growth", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "g")])
        assert code == 0
        header = (tmp_path / "g" / "growth.csv").read_text().splitlines()[0]
        assert header == "n,M_n,M_prime_n,omega,b,fitted_C,fitted_a"
