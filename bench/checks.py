"""Output checks, run after the timed rounds.

Each check recomputes a value independently of the package (scipy's
Fresnel integrals and incomplete gamma, a dense numpy LoS predicate written
here from the geometry) or tests a property the value must have.  None
compares against stored outputs.  Every check returns a list of problems;
an empty list means the outputs are correct.
"""

from __future__ import annotations

import math
import random

import numpy as np
from scipy.special import fresnel, gammaincc

SPEED_OF_LIGHT = 299792458.0
CLEARANCE = 0.6  # share of the first Fresnel radius each window edge must clear
PATH_LOSS_TOL_DB = 1e-6
P_COV_TOL = 1e-9
CLOSED_VS_GRID_TOL = 0.03  # for grids of n >= 2000
MC_SIGMAS = 4.0
SWEEP_RECOUNTS = 6  # grid values per sweep workload recounted with the own predicate


def path_loss_reference(frequency, d1, d2, delta_over_rd) -> float:
    """Free-space loss over d1 + d2 plus the knife-edge loss, from scipy's C and S.

    The knife-edge field is (1+j)/2 times the integral of exp(-j pi t^2 / 2)
    from nu to infinity, nu = -v being the obstruction parameter.
    """
    lam = SPEED_OF_LIGHT / frequency
    rd = math.sqrt(lam * d1 * d2 / (d1 + d2))
    v = delta_over_rd * rd * math.sqrt(2.0 / lam * (1.0 / d1 + 1.0 / d2))
    s, c = fresnel(-v)
    field = (1 + 1j) / 2 * ((0.5 - c) - 1j * (0.5 - s))
    return 20 * math.log10(4 * math.pi * (d1 + d2) / lam) - 20 * math.log10(abs(field))


def p_cov_reference(d_a, d_n, window, frequency, tx_dbm=30.0, noise_dbm=-100.0,
                    threshold_db=-5.0, m_los=10.0, m_nlos=1.0, n_los=1.2, n_nlos=2.9) -> float:
    """Nakagami-m coverage of the receiver ring at depth d_n, with scipy's Q(m, x)."""
    lam = SPEED_OF_LIGHT / frequency
    rd = math.sqrt(lam * d_a * d_n / (d_a + d_n))
    aperture = window - 2 * CLEARANCE * rd
    p_los = 0.0 if aperture <= 0 else min((d_a + d_n) * aperture / (d_a * d_n), 1.0)
    d = d_a + d_n
    power = 10 ** ((tx_dbm - noise_dbm) / 10)
    snr_los = lam**2 / (16 * math.pi**2 * d**n_los) * power
    snr_nlos = lam**2 / (16 * math.pi**2 * d**n_nlos) * power
    threshold = 10 ** (threshold_db / 10)
    return (gammaincc(m_los, m_los * threshold / snr_los) * p_los
            + gammaincc(m_nlos, m_nlos * threshold / snr_nlos) * (1 - p_los))


def grid_count_bounds(room, window, standoff, aspect, frequency, n, block=128):
    """Lowest and highest LoS cell count of an n x n grid, own dense predicate.

    A receiver at a cell centre is LoS when its straight path to the base
    station crosses the wall plane inside the window and both window edges
    lie at least CLEARANCE first-Fresnel radii from that path.  Distances
    here come from cross products along the full path, not the package's
    wall-plane offsets, so cells within 1e-9 * room of a boundary may fall
    either way; they widen the bounds instead of deciding the count.
    """
    lam = SPEED_OF_LIGHT / frequency
    h = room / n
    xs = (np.arange(n) + 0.5) * h
    ys = -room / 2 + (np.arange(n) + 0.5) * h
    bx, by = -standoff, -standoff * math.tan(aspect)
    half = window / 2
    tol = 1e-9 * room
    sure = maybe = 0
    for i in range(0, n, block):
        ux = xs[i:i + block, None] - bx
        uy = ys[None, :] - by
        length = np.hypot(ux, uy)
        y_cross = by + uy * (-bx / ux)
        d1 = np.hypot(-bx, y_cross - by)
        d2 = length - d1
        rd = np.sqrt(lam * d1 * d2 / length)
        upper = np.abs(ux * (half - by) - uy * (-bx)) / length
        lower = np.abs(ux * (-half - by) - uy * (-bx)) / length
        inside = half - np.abs(y_cross)
        clear = np.minimum(upper, lower) - CLEARANCE * rd
        sure += int(np.count_nonzero((inside > tol) & (clear > tol)))
        maybe += int(np.count_nonzero((inside > -tol) & (clear > -tol)))
    return sure, maybe


def check_grid_value(label, value, n, scene_args, recount: bool) -> list[str]:
    """A grid value is an integer count over n^2 cells; optionally recount it."""
    count = round(value * n * n)
    if count / (n * n) != value:
        return [f"{label}: p_los_grid {value!r} is not a count over {n}^2 cells"]
    if not recount:
        return []
    sure, maybe = grid_count_bounds(*scene_args, n)
    if not sure <= count <= maybe:
        return [f"{label}: grid count {count} outside own predicate's [{sure}, {maybe}]"]
    return []


def check_sweep(label, spec, record, csv_text, package, recount_rows) -> list[str]:
    """All checks of one sweep's record and CSV.  recount_rows: row indices
    whose grid values are recounted with the dense predicate."""
    problems = []
    lines = csv_text.splitlines()
    echo = [line[2:] for line in lines[1:] if line.startswith("# ")]
    if package.parse_config("\n".join(echo)) != spec:
        problems.append(f"{label}: CSV header echo does not re-parse to the spec")
    body = [line for line in lines if not line.startswith("#")]
    if body[0] != ",".join((spec.swept,) + spec.outputs):
        problems.append(f"{label}: unexpected column header {body[0]!r}")
    parsed = [tuple(float(cell) for cell in line.split(",")) for line in body[1:]]
    if parsed != [tuple(row) for row in record.rows]:
        problems.append(f"{label}: CSV rows differ from the record")

    column = {name: i + 1 for i, name in enumerate(spec.outputs)}
    for index, row in enumerate(record.rows):
        point = dict(spec.fixed)
        point[spec.swept] = row[0]
        at = f"{label} {spec.swept}={row[0]!r}"
        for name in ("p_los_closed", "p_los_optical", "p_los_grid", "p_cov"):
            if name in column and not 0.0 <= row[column[name]] <= 1.0:
                problems.append(f"{at}: {name} {row[column[name]]!r} outside [0, 1]")
        if "path_loss_db" in column:
            value = row[column["path_loss_db"]]
            expected = path_loss_reference(
                point["frequency_hz"], point["d1_m"], point["d2_m"], point["delta_over_rd"])
            if not math.isfinite(expected):
                problems.append(f"{at}: reference path loss is not finite")
            elif math.isfinite(value) and abs(value - expected) > PATH_LOSS_TOL_DB:
                problems.append(f"{at}: path_loss_db {value!r}, scipy gives {expected!r}")
        if "p_cov" in column:
            expected = p_cov_reference(
                point["bs_distance_m"], point["ms_distance_m"], point["window_m"],
                point["frequency_hz"], point["tx_power_dbm"], point["noise_dbm"],
                point["snr_threshold_db"], point["m_los"], point["m_nlos"],
                point["n_los"], point["n_nlos"])
            if abs(row[column["p_cov"]] - expected) > P_COV_TOL:
                problems.append(f"{at}: p_cov {row[column['p_cov']]!r}, scipy gives {expected!r}")
        if "critical_frequency_hz" in column:
            fc = row[column["critical_frequency_hz"]]
            scene = package.SceneGeometry(point["room_m"], point["window_m"], point["bs_distance_m"], 0.0)
            if not (package.p_los_closed(scene, fc * (1 - 1e-6)) == 0.0
                    and package.p_los_closed(scene, fc * (1 + 1e-6)) > 0.0):
                problems.append(f"{at}: p_los_closed does not switch on at {fc!r} Hz")
        if ("p_los_closed" in column and "p_los_optical" in column
                and point["theta_deg"] == 0.0
                and row[column["p_los_closed"]] > row[column["p_los_optical"]]):
            problems.append(f"{at}: p_los_closed above p_los_optical at zero aspect")
        if "p_los_grid" in column:
            scene_args = (point["room_m"], point["window_m"], point["bs_distance_m"],
                          math.radians(point["theta_deg"]), point["frequency_hz"])
            problems += check_grid_value(
                at, row[column["p_los_grid"]], spec.oracle_n, scene_args, index in recount_rows)
    return problems


def check_sweeps(ops, results, texts, package, seed) -> list[str]:
    """Checks of every sweep; the grid values of SWEEP_RECOUNTS seeded rows are recounted."""
    rng = random.Random(f"recount:{seed}")
    grid_rows = [(i, r) for i, op in enumerate(ops) if "p_los_grid" in op.spec.outputs
                 for r in range(len(results[i].rows))]
    chosen = set(rng.sample(grid_rows, min(SWEEP_RECOUNTS, len(grid_rows))))
    problems = []
    for i, op in enumerate(ops):
        rows = {r for j, r in chosen if j == i}
        problems += check_sweep(op.label, op.spec, results[i], texts[i], package, rows)
    return problems


def check_validation(ops, results, package, seed) -> list[str]:
    """Closed form against the grid, grid counts, and Monte Carlo against analytic."""
    rng = random.Random(f"recount:{seed}")
    evaluations = [i for i, op in enumerate(ops) if "n" in op.args]
    recount = {evaluations[0]} | set(rng.sample(evaluations[1:], 1))
    problems = []
    for i, op in enumerate(ops):
        a, result = op.args, results[i]
        if "n" in a:
            if not all(0.0 <= p <= 1.0 for p in (result.p_closed, result.p_optical, result.p_grid)):
                problems.append(f"{op.label}: probability outside [0, 1]")
            if abs(result.p_closed - result.p_grid) > CLOSED_VS_GRID_TOL:
                problems.append(f"{op.label}: closed form {result.p_closed!r} and grid "
                                f"{result.p_grid!r} differ by more than {CLOSED_VS_GRID_TOL}")
            fc = SPEED_OF_LIGHT / ((a["window_width"] / (2 * CLEARANCE)) ** 2
                                   * (1 / a["bs_distance"] + 1 / a["room_side"]))
            if result.below_critical != (a["frequency"] <= fc):
                problems.append(f"{op.label}: below_critical is {result.below_critical}")
            scene_args = (a["room_side"], a["window_width"], a["bs_distance"],
                          a["bs_angle"], a["frequency"])
            problems += check_grid_value(op.label, result.p_grid, a["n"], scene_args, i in recount)
        else:
            budget = package.LinkBudget(frequency=a["frequency"], snr_threshold_db=a["snr_threshold_db"])
            analytic = package.coverage_probability(
                a["d_a"], a["d_n"], a["window_width"], package.FadingModel(), budget).p_cov
            expected = p_cov_reference(a["d_a"], a["d_n"], a["window_width"], a["frequency"],
                                       threshold_db=a["snr_threshold_db"])
            if abs(analytic - expected) > P_COV_TOL:
                problems.append(f"{op.label}: coverage_probability {analytic!r}, scipy gives {expected!r}")
            sigma = max(math.sqrt(analytic * (1 - analytic) / a["trials"]), 1 / a["trials"])
            if abs(result - analytic) > MC_SIGMAS * sigma:
                problems.append(f"{op.label}: Monte Carlo {result!r} is more than "
                                f"{MC_SIGMAS} sigma from {analytic!r}")
    return problems
