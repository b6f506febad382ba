"""Experiment configuration: a flat sectioned text format.

The file format is INI-style sections with ``key = value`` lines.  Parsing
and serialization round-trip exactly: every field is rendered with repr-
stable formatting and read back into the same value.
"""
from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Tuple

import numpy as np

from .errors import ConfigError
from .semigroup import TIME_INTEGRAL_PANELS
from .spectral import TWO_PI, Grid
from .symbols import poly_sup_re

HEAT_C2 = 1.0 / (4.0 * math.pi**2)

#: largest grid accepted, points ** dimension (the bundled scenarios use at most 8,192)
MAX_GRID_MODES = 2**22
#: largest solution accepted, len(n_list) * time nodes * grid modes: it bounds the
#: total work of ``solve`` and the size of solution.csv, not the memory held at once,
#: since ``solve`` holds one index at a time (the bundled solve uses 1,056,768)
MAX_SOLUTION_SAMPLES = 2**24
#: largest time at which ``perturb`` samples its quadrature oracle
PERTURB_ORACLE_T_MAX = 2.0
#: largest panel step |b| h at which that oracle keeps its 1e-10 gate: on the
#: perturb scenario |perturb_b| = 256 (|b| h = 8) deviates by at most 1.3e-13,
#: 400j by 4.8e-10 and 800j by 2.2e-3
PERTURB_STEP_MAX = 8.0
#: largest size |b| e^(T max(0, Re b)), T = PERTURB_ORACLE_T_MAX, of the terms that cancel
#: in that oracle at which it keeps its 1e-10 gate: its round-off is at most 5.3e-16 times
#: that size on the perturb scenario (perfbench seeds 0 and 7), so b = 5 (size 1.1e5)
#: deviates by at most 4.5e-11 and 3+250j (1.0e5) by 3.2e-11, while 5.5 (3.3e5) deviates
#: by 1.3e-10, 4+150j (4.5e5) by 2.1e-10, 6 (9.8e5) by 4.0e-10 and 10 (4.9e9) by 2.3e-6
PERTURB_TERM_MAX = 1.2e5

#: the values of each kind field; the values of a rate field are names in ``symbols.RATES``
FAMILY_KINDS = ("poly", "fractional")
FRACTIONAL_C_RATES = ("constant", "one-plus-inverse")
DATA_KINDS = ("delta", "delta_prime", "gaussian", "file", "zero")
FORCING_KINDS = ("none", "gaussian_pulse")
PERTURB_C_RATES = ("inverse", "inverse-sqrt", "zero")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a scenario run needs, grouped as in the config file."""

    # [scenario]
    name: str = "heat-default"
    # [grid]
    dimension: int = 1
    half_width: float = 8.0
    points: int = 256
    # [family]  (kind: poly | fractional)
    family_kind: str = "poly"
    coeffs: Tuple[complex, ...] = (0.0 + 0j, 0.0 + 0j, complex(HEAT_C2))
    fractional_m: float = 2.0
    fractional_c_rate: str = "constant"  # constant | one-plus-inverse
    # [comparison]  (second family: none | drift | shift:<complex> | scale:<real>)
    comparison: str = "drift"
    # [data]  (kind: delta | delta_prime | gaussian | file)
    data_kind: str = "delta"
    data_width: float = 1.0
    data_path: str = ""
    # [forcing]  (kind: none | gaussian_pulse)
    forcing_kind: str = "none"
    forcing_amplitude: float = 1.0
    # [sequence]
    n_list: Tuple[int, ...] = (4, 8, 16, 32)
    # [time]
    t_end: float = 1.0
    dt: float = 1.0 / 128.0
    t_max: float = 5.0
    # [lambda]
    lambda_samples: Tuple[complex, ...] = (2.0 + 0j, 10.0 + 0j, 1000.0 + 0j)
    # [growth]
    omega: float = 1.0
    b: float = 1.0
    # [perturbation]
    perturb_b: complex = 0.5j
    perturb_c_rate: str = "inverse"  # inverse | inverse-sqrt | zero
    # [tolerances]
    tol_laplace: float = 1e-8
    tol_pseudoresolvent: float = 1e-12
    tol_functional_equation: float = 1e-8
    tol_bromwich: float = 1e-4
    tol_perturbation_oracle: float = 1e-10
    tol_pairing: float = 1e-3
    # [output]
    output_dir: str = "out"


_LAYOUT = {
    "scenario": ("name",),
    "grid": ("dimension", "half_width", "points"),
    "family": ("family_kind", "coeffs", "fractional_m", "fractional_c_rate"),
    "comparison": ("comparison",),
    "data": ("data_kind", "data_width", "data_path"),
    "forcing": ("forcing_kind", "forcing_amplitude"),
    "sequence": ("n_list",),
    "time": ("t_end", "dt", "t_max"),
    "lambda": ("lambda_samples",),
    "growth": ("omega", "b"),
    "perturbation": ("perturb_b", "perturb_c_rate"),
    "tolerances": ("tol_laplace", "tol_pseudoresolvent", "tol_functional_equation",
                   "tol_bromwich", "tol_perturbation_oracle", "tol_pairing"),
    "output": ("output_dir",),
}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _render(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_render(v) for v in value)
    if isinstance(value, complex):
        return repr(value).strip("()")
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    out = io.StringIO()
    for section, keys in _LAYOUT.items():
        out.write(f"[{section}]\n")
        for key in keys:
            out.write(f"{key} = {_render(getattr(cfg, key))}\n")
        out.write("\n")
    return out.getvalue()


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if name == "n_list":
        return tuple(int(v) for v in raw.split(",") if v.strip())
    if name in ("coeffs", "lambda_samples"):
        return tuple(complex(v.strip()) for v in raw.split(",") if v.strip())
    if kind in ("int", int):
        return int(raw)
    if kind in ("float", float):
        return float(raw)
    if kind in ("complex", complex):
        return complex(raw)
    return raw


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    values = {}
    for section, keys in _LAYOUT.items():
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            try:
                values[key] = _parse_value(key, raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw!r} ({exc})") from exc
    for section in parser.sections():
        if section not in _LAYOUT:
            raise ConfigError(f"unknown section [{section}]")
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    return parse_config(p.read_text(encoding="utf-8"))


def validate_config(cfg: ExperimentConfig) -> None:
    try:
        grid = Grid(cfg.dimension, cfg.half_width, cfg.points)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.points ** cfg.dimension > MAX_GRID_MODES:
        raise ConfigError(f"grid points ** dimension must be at most {MAX_GRID_MODES} modes, "
                          f"got points = {cfg.points} in dimension {cfg.dimension}")
    for key, kinds in (("family_kind", FAMILY_KINDS), ("fractional_c_rate", FRACTIONAL_C_RATES),
                       ("data_kind", DATA_KINDS), ("forcing_kind", FORCING_KINDS),
                       ("perturb_c_rate", PERTURB_C_RATES)):
        if getattr(cfg, key) not in kinds:
            raise ConfigError(f"{key} must be one of {', '.join(kinds)}, "
                              f"got {getattr(cfg, key)!r}")
    if cfg.family_kind == "poly" and len(cfg.coeffs) > 3:
        raise ConfigError("polynomial families support degree <= 2")
    if cfg.comparison.startswith(("shift:", "scale:")):
        comparison_operand(cfg.comparison)
    elif cfg.comparison not in ("none", "drift"):
        raise ConfigError(f"unknown comparison '{cfg.comparison}'")
    if cfg.data_kind == "file" and not cfg.data_path:
        raise ConfigError("data_path must name a file when data_kind = file")
    n = cfg.n_list
    if not n or n[0] < 1 or any(lo >= hi for lo, hi in zip(n, n[1:])):
        raise ConfigError(f"n_list must be strictly increasing positive indices, got {n}")
    if not cfg.lambda_samples:
        raise ConfigError("lambda_samples must be nonempty")
    for key in (("data_width", "fractional_m", "dt", "t_end", "t_max")
                + _LAYOUT["tolerances"]):
        value = getattr(cfg, key)
        if not 0 < value < math.inf:
            raise ConfigError(f"{key} must be finite and positive, got {value}")
    for key in ("coeffs", "forcing_amplitude", "lambda_samples",
                "omega", "b", "perturb_b"):
        if not np.all(np.isfinite(getattr(cfg, key))):
            raise ConfigError(f"{key} must be finite, got {getattr(cfg, key)}")
    b_max = PERTURB_STEP_MAX * TIME_INTEGRAL_PANELS / PERTURB_ORACLE_T_MAX
    if abs(cfg.perturb_b) > b_max:
        raise ConfigError(f"perturb_b must have |perturb_b| <= {b_max:g}, so that the "
                          f"oracle's {TIME_INTEGRAL_PANELS} panels resolve e^(s perturb_b) "
                          f"up to t = {PERTURB_ORACLE_T_MAX:g}; got {cfg.perturb_b}")
    term = abs(cfg.perturb_b) * math.exp(PERTURB_ORACLE_T_MAX * max(0.0, cfg.perturb_b.real))
    if term > PERTURB_TERM_MAX:
        raise ConfigError(f"perturb_b must have |perturb_b| e^({PERTURB_ORACLE_T_MAX:g} "
                          f"max(0, Re perturb_b)) <= {PERTURB_TERM_MAX:g}, so that the "
                          f"oracle's cancelling terms stay inside its round-off budget; "
                          f"got {cfg.perturb_b} (size {term:.3g})")
    poly = cfg.family_kind == "poly"
    if poly and not math.isfinite(poly_sup_re(cfg.coeffs)):
        raise ConfigError(f"coeffs must keep Re a(xi) bounded above (Re c_2 > 0, or "
                          f"Re c_2 = 0 and Im c_1 = 0), got {cfg.coeffs}")
    factor = comparison_operand(cfg.comparison) if cfg.comparison.startswith("scale:") else 1.0
    if poly and not math.isfinite(poly_sup_re([factor * c for c in cfg.coeffs])):
        raise ConfigError(f"comparison {cfg.comparison} makes Re a(xi) unbounded above "
                          f"for coeffs {cfg.coeffs}")
    # at the largest grid frequency xi, z = 2 pi xi, |a| is at most |c_0| + |c_1| z +
    # d |c_2| z^2, or r(n) (sqrt(d) xi)^m with r(n) <= 2: the family, and a scale:f
    # comparison, which forms a + (f - 1) a, must keep it below the largest float
    xi = grid.max_frequency
    z = TWO_PI * xi
    field = "coeffs" if poly else "fractional_m"
    # an infinite size refuses the family first, before (f - 1) size reads 0 inf = NaN
    with np.errstate(over="ignore", invalid="ignore"):
        size = (sum(abs(c) * w for c, w in zip(cfg.coeffs, (1.0, z, cfg.dimension * z * z)))
                if poly else 2.0 * np.float64(math.sqrt(cfg.dimension) * xi) ** cfg.fractional_m)
        for name, value in ((f"{field} = {getattr(cfg, field)} takes a(xi)", size),
                            (f"comparison {cfg.comparison} takes (f - 1) a(xi)",
                             abs(factor - 1.0) * size)):
            if not value < math.inf:
                raise ConfigError(f"{name} past the largest float at the largest grid "
                                  f"frequency xi = {xi:g}")
    steps = cfg.t_end / cfg.dt
    if not math.isfinite(steps):
        raise ConfigError(f"t_end / dt must be a finite step count, got t_end = {cfg.t_end}, "
                          f"dt = {cfg.dt}")
    if abs(steps - round(steps)) > 1e-9:
        raise ConfigError("t_end must be an integer multiple of dt")
    if round(steps) < 1:
        raise ConfigError(f"t_end / dt must round to at least one step, got t_end = "
                          f"{cfg.t_end}, dt = {cfg.dt}")
    nodes = round(steps) + 1
    samples = len(n) * nodes * cfg.points ** cfg.dimension
    if samples > MAX_SOLUTION_SAMPLES:
        raise ConfigError(
            f"len(n_list) * (t_end/dt + 1) * points ** dimension must be at most "
            f"{MAX_SOLUTION_SAMPLES} solution samples, got {len(n)} * {nodes} * "
            f"{cfg.points} ** {cfg.dimension} = {samples} (t_end = {cfg.t_end}, dt = {cfg.dt})")


def comparison_operand(comparison: str) -> complex | float:
    """The finite complex after ``shift:`` or the finite real after ``scale:``."""
    kind, raw = comparison.split(":", 1)
    wanted = "complex" if kind == "shift" else "real"
    try:
        value = complex(raw) if kind == "shift" else float(raw)
    except ValueError:
        value = math.nan
    if not np.isfinite(value):
        raise ConfigError(f"comparison {kind}: needs a finite {wanted} number, got {raw!r}")
    return value


def default_config(scenario: str = "verify") -> ExperimentConfig:
    """Built-in scenarios used when no config file is given."""
    if scenario in ("verify", "growth"):
        return ExperimentConfig()
    if scenario == "solve":
        return ExperimentConfig(name="heat-delta", points=2048, t_end=1.0,
                                dt=1.0 / 128.0, n_list=(4, 8, 16, 32))
    if scenario == "associate":
        return ExperimentConfig(name="coefficient-drift", half_width=4.0, points=128,
                                n_list=(4, 8, 16, 32, 64), comparison="drift",
                                data_kind="gaussian", data_width=1.8)
    if scenario == "perturb":
        return ExperimentConfig(name="perturbation", half_width=4.0, points=128,
                                n_list=(4, 8, 16, 32, 64))
    raise ConfigError(f"no default scenario named '{scenario}'")


def time_grid(cfg: ExperimentConfig) -> np.ndarray:
    return np.arange(0.0, cfg.t_end + 0.5 * cfg.dt, cfg.dt)
