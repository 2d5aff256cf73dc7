#!/usr/bin/env python3
"""Run every sweep config in configs/ and drop the CSVs into results/.

The CSVs are plot-ready: a ``#``-prefixed echo of the resolved config,
then a column header, then one row per sweep point.
"""

import sys
from pathlib import Path

from o2i_los import SceneGeometry, critical_frequency, emit_csv, parse_config, run_sweep

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    out_dir = ROOT / "results"
    out_dir.mkdir(exist_ok=True)
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    if not configs:
        print("no configs found", file=sys.stderr)
        return 1
    for config in configs:
        record = run_sweep(parse_config(config.read_text()))
        target = out_dir / (config.stem + ".csv")
        with open(target, "w") as stream:
            emit_csv(record, stream)
        print(f"{config.name}: {len(record.rows)} rows -> {target.relative_to(ROOT)}")

    print("\ncritical frequency, 20 m room, base station 5 m out:")
    for window in (1.0, 2.0, 3.0):
        fc = critical_frequency(SceneGeometry(20.0, window, 5.0))
        print(f"  {window:.0f} m window: {fc / 1e6:8.1f} MHz")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
