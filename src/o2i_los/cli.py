"""Command-line front end: sweeps to CSV, critical frequency, LoS point queries.

Exit codes: 0 on success, 2 for config errors, 3 for runtime domain errors,
1 for I/O failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .diffraction import wavelength
from .geometry import SceneGeometry
from .los import LOS_CLEARANCE_RATIO, clearances, critical_frequency
from .sweep import (
    _NUMERIC_DEFAULTS, _SCENE_KEYS, ConfigError, _scene_from, emit_csv, parse_config, run_sweep,
)


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config: {err}") from err
    record = run_sweep(parse_config(text))
    try:
        if args.out is None:
            emit_csv(record, sys.stdout)
            sys.stdout.flush()
        else:
            with open(args.out, "w") as stream:
                emit_csv(record, stream)
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return 1
    return 0


def _scene(values: dict[str, float]) -> SceneGeometry:
    try:
        return _scene_from(values)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _cmd_critical_freq(args: argparse.Namespace) -> int:
    print(critical_frequency(_scene(dict(vars(args), theta_deg=0.0))))
    return 0


def _cmd_los_point(args: argparse.Namespace) -> int:
    scene = _scene(vars(args))
    # The wall plane x = 0 is outside: no path crosses the window to it.
    if not (0.0 < args.ms_x <= scene.room_side and abs(args.ms_y) <= scene.room_side / 2):
        raise ValueError("MS outside room")
    c = clearances(scene, args.ms_x, args.ms_y, wavelength(args.frequency_hz))
    print(f"los={'true' if c.los else 'false'}")
    print(f"d1={c.d1}")
    print(f"d2={c.d2}")
    print(f"crossing_y={c.crossing_y}")
    print(f"r_d={c.r_d}")
    print(f"clearance_threshold={LOS_CLEARANCE_RATIO * c.r_d}")
    print(f"clearance_lower={c.lower}")
    print(f"clearance_upper={c.upper}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="o2i-los",
        description="LoS and coverage probability through a window, closed form vs oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=_cmd_sweep)

    crit = sub.add_parser("critical-freq", help="print the critical frequency in Hz")
    crit.add_argument("--window-m", type=float, required=True)
    crit.add_argument("--bs-distance-m", type=float, required=True)
    crit.add_argument("--room-m", type=float, required=True)
    crit.set_defaults(func=_cmd_critical_freq)

    point = sub.add_parser("los-point", help="LoS verdict and clearances for one receiver")
    point.add_argument("--ms-x", type=float, required=True)
    point.add_argument("--ms-y", type=float, required=True)
    # Scene flags take the sweep config's keys and defaults; dest == key.
    for key in (*_SCENE_KEYS, "frequency_hz"):
        flag = "--" + key.replace("_", "-")
        point.add_argument(flag, type=float, default=_NUMERIC_DEFAULTS[key])
    point.set_defaults(func=_cmd_los_point)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
