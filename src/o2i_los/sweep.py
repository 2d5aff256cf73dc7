"""Parameter sweeps over the LoS, diffraction, and coverage calculators.

Configs are flat ``key=value`` documents: one assignment per line, ``#``
comments, case-sensitive keys with SI units suffixed in the key names.
Unset keys fall back to documented defaults.  Sweep output is CSV with a
``# key=value`` echo of the fully resolved config, so a result file can be
re-parsed into the SweepSpec that produced it.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import TextIO

from .coverage import FadingModel, LinkBudget, coverage_probability
from .diffraction import (diffraction_parameter, free_space_path_loss_db, fresnel_radius,
                          ked_excess_loss_db, wavelength)
from .geometry import SceneGeometry
from .los import GridSpec, critical_frequency, p_los_closed, p_los_grids, p_los_optical


class ConfigError(Exception):
    """Invalid configuration document."""


_NUMERIC_DEFAULTS = {
    "room_m": 20.0,
    "window_m": 2.0,
    "bs_distance_m": 5.0,
    "theta_deg": 0.0,
    "frequency_hz": 28e9,
    "ms_distance_m": 20.0,
    # The link-budget and fading defaults are held by LinkBudget and FadingModel.
    **{f.name: f.default for f in fields(LinkBudget) + fields(FadingModel)
       if f.default is not MISSING},
    "d1_m": 8.0,
    "d2_m": 20.0,
    "delta_over_rd": 1.0,
}
_RANGE_KEYS = ("start", "stop", "step")
_INT_KEYS = ("oracle_n", "seed")
_ALL_KEYS = (
    {"sweep", "outputs", *_RANGE_KEYS, *_INT_KEYS} | set(_NUMERIC_DEFAULTS)
)

SWEEPABLE = (
    "theta_deg",
    "frequency_hz",
    "window_m",
    "room_m",
    "bs_distance_m",
    "delta_over_rd",
)
_SCENE_KEYS = ("room_m", "window_m", "bs_distance_m", "theta_deg")
# Largest sweep and grid a spec may ask for; beyond these a config is
# rejected before anything is allocated.
MAX_POINTS = 100_000
MAX_ORACLE_N = 10_000
# Largest grid work, points x oracle_n columns, at 0.2-0.3 us a column on a 2-vCPU
# Xeon (numpy 2.4): 2-3 s.
MAX_GRID_COLUMNS = 10_000_000


@dataclass
class SweepSpec:
    """One swept parameter plus the fully resolved fixed values."""

    swept: str
    start: float
    stop: float
    step: float
    fixed: dict[str, float]
    outputs: tuple[str, ...] = ("p_los_closed",)
    oracle_n: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.swept not in SWEEPABLE:
            raise ConfigError(f"cannot sweep '{self.swept}'")
        if not self.step > 0:
            raise ConfigError("step must be positive")
        if not self.start < self.stop:
            raise ConfigError("start must be less than stop")
        if self.swept in self.fixed:
            raise ConfigError(f"swept parameter '{self.swept}' must not also be fixed")
        for i, name in enumerate(self.outputs):
            if name not in OUTPUTS:
                raise ConfigError(f"unknown output '{name}'")
            if name in self.outputs[:i]:
                raise ConfigError(f"duplicate output '{name}'")
        if self.outputs and not any(self.swept in OUTPUTS[name][1] for name in self.outputs):
            raise ConfigError(f"no requested output reads the swept key '{self.swept}'")
        if not 10 <= self.oracle_n <= MAX_ORACLE_N:
            raise ConfigError(f"oracle_n must lie between 10 and {MAX_ORACLE_N}")
        # Checked before values() builds the list; also rejects an infinite count.
        if not (self.stop - self.start) / self.step + 1e-9 < MAX_POINTS:
            raise ConfigError(f"sweep has more than {MAX_POINTS} points")
        values = self.values()  # never decreasing, so a repeat is two equal neighbours
        if any(a == b for a, b in zip(values, values[1:])):
            raise ConfigError("sweep points repeat: step is below the float spacing of the range")
        if "p_los_grid" in self.outputs and len(values) * self.oracle_n > MAX_GRID_COLUMNS:
            raise ConfigError(f"grid oracle over more than {MAX_GRID_COLUMNS} columns")

    def values(self) -> list[float]:
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + i * self.step for i in range(n)]


@dataclass
class RunRecord:
    spec: SweepSpec
    rows: list[tuple[float, ...]]


def _parse_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"invalid number for '{key}': {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"invalid number for '{key}': {value!r}")
    return out


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value, 10)
    except ValueError:
        raise ConfigError(f"'{key}' must be an integer, got {value!r}") from None


def _scene_from(v: dict[str, float]) -> SceneGeometry:
    theta = math.radians(v["theta_deg"])
    return SceneGeometry(v["room_m"], v["window_m"], v["bs_distance_m"], theta)


def _fading_from(v: dict[str, float]) -> FadingModel:
    return FadingModel(v["m_los"], v["m_nlos"], v["n_los"], v["n_nlos"])


def _budget_from(v: dict[str, float]) -> LinkBudget:
    return LinkBudget(v["frequency_hz"], v["tx_power_dbm"], v["noise_dbm"], v["snr_threshold_db"])


def _path_loss_db(column, spec) -> list[float]:
    # total_path_loss_db at each point; the knife-edge loss is taken once per distinct v in
    # this sweep, as v = sqrt(2) delta / r_d does not read the frequency.
    memo = {}

    def loss(values):
        lam = wavelength(values["frequency_hz"])
        d1, d2 = values["d1_m"], values["d2_m"]
        v = diffraction_parameter(values["delta_over_rd"] * fresnel_radius(d1, d2, lam), d1, d2, lam)
        free_space = free_space_path_loss_db(d1 + d2, lam)
        if v not in memo:
            memo[v] = ked_excess_loss_db(v)
        return free_space + memo[v]
    return column(loss)


def _p_cov(v: dict[str, float], scene, fading, budget) -> float:
    return coverage_probability(scene.bs_distance, v["ms_distance_m"], scene.window_width, fading, budget).p_cov


# Inputs the outputs share, and the sweepable keys each is built from: one per point if
# the swept key is among them, else one per sweep.
_INPUTS = {_scene_from: _SCENE_KEYS, _fading_from: (), _budget_from: ("frequency_hz",)}


_LINK_KEYS = (
    "bs_distance_m", "ms_distance_m", "window_m", "frequency_hz", "tx_power_dbm",
    "noise_dbm", "snr_threshold_db", "m_los", "m_nlos", "n_los", "n_nlos",
)
# Each output: its evaluator of (run_sweep's column, spec) to one value per point,
# and the keys it reads.  The grid oracle takes all points in one batch.
OUTPUTS = {
    "p_los_closed": (
        lambda column, spec: column(lambda v, s: p_los_closed(s, v["frequency_hz"]), _scene_from),
        (*_SCENE_KEYS, "frequency_hz"),
    ),
    "p_los_grid": (
        lambda column, spec: p_los_grids(
            column(lambda v, s: (s, wavelength(v["frequency_hz"])), _scene_from),
            GridSpec(spec.oracle_n),
        ),
        (*_SCENE_KEYS, "frequency_hz"),
    ),
    "p_los_optical": (lambda column, spec: column(lambda v, s: p_los_optical(s), _scene_from),
                      ("room_m", "window_m", "bs_distance_m")),
    "path_loss_db": (_path_loss_db, ("frequency_hz", "d1_m", "d2_m", "delta_over_rd")),
    "p_cov": (lambda column, spec: column(_p_cov, _scene_from, _fading_from, _budget_from), _LINK_KEYS),
    "critical_frequency_hz": (lambda column, spec: column(lambda v, s: critical_frequency(s), _scene_from),
                              ("window_m", "bs_distance_m", "room_m")),
}


def parse_config(text: str) -> SweepSpec:
    """Parse and fully resolve a sweep config document."""
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"duplicate key '{key}'")
        raw[key] = value

    swept = raw.get("sweep")
    if swept is not None and swept not in SWEEPABLE:
        raise ConfigError(f"cannot sweep '{swept}'")

    numeric = dict(_NUMERIC_DEFAULTS)
    for key in _NUMERIC_DEFAULTS:
        if key in raw:
            if key == swept:
                raise ConfigError(f"swept parameter '{key}' must not also be fixed")
            numeric[key] = _parse_float(key, raw[key])

    # Surface fixed-value invariant violations before complaining about a
    # missing sweep range; values of the swept parameter are checked per
    # point at run time instead.  A swept key holds its default here, which
    # passes every check except window <= room, the one check that ties a
    # fixed key to a swept room_m or window_m.
    try:
        if swept not in ("room_m", "window_m"):
            _scene_from(numeric)
        _fading_from(numeric)
        _budget_from(numeric)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    # Lengths no type owns; none is sweepable, so this sees every value they take.
    for key in ("ms_distance_m", "d1_m", "d2_m"):
        if not numeric[key] > 0:
            raise ConfigError(f"{key} must be positive")

    if swept is None:
        raise ConfigError("missing key 'sweep'")
    for key in _RANGE_KEYS:
        if key not in raw:
            raise ConfigError(f"missing key '{key}'")

    # Settings the file leaves out take SweepSpec's field defaults.
    settings = {key: _parse_int(key, raw[key]) for key in _INT_KEYS if key in raw}
    if "outputs" in raw:
        settings["outputs"] = tuple(p.strip() for p in raw["outputs"].split(",") if p.strip())
    return SweepSpec(
        swept=swept,
        start=_parse_float("start", raw["start"]),
        stop=_parse_float("stop", raw["stop"]),
        step=_parse_float("step", raw["step"]),
        fixed={key: numeric[key] for key in _NUMERIC_DEFAULTS if key != swept},
        **settings,
    )


def run_sweep(spec: SweepSpec) -> RunRecord:
    """Evaluate every output at every point; a failing or non-finite one raises ValueError."""
    values = spec.values()
    points = [{**spec.fixed, spec.swept: value} for value in values]
    inputs = {}  # each input at every point, built on first read and shared by the outputs

    def column(evaluate, *builds):  # evaluate(v, *inputs) at each point; a failure names its value
        try:
            for build in builds:
                if build not in inputs:
                    each = spec.swept in _INPUTS[build]
                    inputs[build] = [build(v) for v in points] if each else [build(spec.fixed)] * len(points)
            return list(map(evaluate, points, *(inputs[b] for b in builds)))
        except (ValueError, ArithmeticError):
            for value, v in zip(values, points):  # the first point that fails, inputs in order
                try:
                    evaluate(v, *(build(v) for build in builds))
                except (ValueError, ArithmeticError) as err:
                    raise ValueError(f"at {spec.swept}={value!r}: {err}") from err
            raise

    columns = [OUTPUTS[name][0](column, spec) for name in spec.outputs]
    if not all(all(map(math.isfinite, col)) for col in columns):
        for row in zip(values, *columns):
            if not all(map(math.isfinite, row[1:])):
                named = dict(zip(spec.outputs, row[1:]))
                raise ValueError(f"at {spec.swept}={row[0]!r}: non-finite output {named}")
    return RunRecord(spec=spec, rows=list(zip(values, *columns)))


def config_echo(spec: SweepSpec) -> list[str]:
    """The resolved spec as config lines; parse_config of these reproduces it."""
    lines = [
        f"sweep={spec.swept}",
        f"start={spec.start!r}",
        f"stop={spec.stop!r}",
        f"step={spec.step!r}",
    ]
    lines.extend(f"{key}={spec.fixed[key]!r}" for key in _NUMERIC_DEFAULTS if key in spec.fixed)
    lines.append(f"outputs={','.join(spec.outputs)}")
    lines.append(f"oracle_n={spec.oracle_n}")
    lines.append(f"seed={spec.seed}")
    return lines


def emit_csv(record: RunRecord, stream: TextIO) -> None:
    """Write the echo header, column names, and one row per sweep point."""
    from . import __version__

    stream.write(f"# o2i-los {__version__}\n")
    for line in config_echo(record.spec):
        stream.write(f"# {line}\n")
    stream.write(",".join((record.spec.swept,) + record.spec.outputs) + "\n")
    for row in record.rows:
        stream.write(",".join(map(repr, row)) + "\n")
