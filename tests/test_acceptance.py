"""Acceptance suite: every shipped claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
as they complete).
"""

import io
import math
import random
import time

import numpy as np

from o2i_los.cli import main
from o2i_los.coverage import (
    FadingModel,
    LinkBudget,
    coverage_mc_oracle,
    coverage_probability,
    nakagami_ccdf,
    reg_lower_gamma,
)
from o2i_los.diffraction import (
    SPEED_OF_LIGHT,
    free_space_path_loss_db,
    fresnel_integrals,
    fresnel_radius,
    ked_excess_loss_db,
)
from o2i_los.geometry import SceneGeometry
from o2i_los.los import GridSpec, critical_frequency, p_los_closed, p_los_grid, p_los_optical
from o2i_los.sweep import OUTPUTS, config_echo, emit_csv, parse_config, run_sweep

from oracles import fresnel_grid_by_quadrature, reg_lower_gamma_mp

MC_SEED = 12345


def report(num: int, label: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} {label} failed{suffix}"


def scene(room=20.0, window=2.0, dist=5.0, angle=0.0):
    return SceneGeometry(room_side=room, window_width=window,
                         bs_distance=dist, bs_angle=angle)


def test_criterion_1_ked_transition():
    started = time.perf_counter()
    checks = []
    for freq in (2e9, 28e9):
        text = (
            "sweep=delta_over_rd\nstart=-3\nstop=3\nstep=0.01\n"
            f"frequency_hz={freq}\nd1_m=8\nd2_m=20\noutputs=path_loss_db"
        )
        record = run_sweep(parse_config(text))
        fspl = free_space_path_loss_db(28.0, SPEED_OF_LIGHT / freq)
        grazing = ked_excess_loss_db(0.0)
        checks.append(abs(grazing - 6.02) <= 0.05)
        for ratio, loss in record.rows:
            excess = loss - fspl
            if ratio >= 0.6:
                checks.append(abs(excess) <= 1.5)
            if ratio <= -1.0:
                checks.append(excess >= 10.0)
    elapsed = time.perf_counter() - started
    checks.append(elapsed < 1.0)
    report(1, "KED transition", all(checks), f"{elapsed:.2f}s, grazing {ked_excess_loss_db(0.0):.4f} dB")


def test_criterion_2_closed_form_vs_grid_oracle():
    started = time.perf_counter()
    worst = 0.0
    for degrees in (0, 10, -10, 20, -20, 40, -40, 60, -60):
        sc = scene(angle=math.radians(degrees))
        closed = p_los_closed(sc, 28e9)
        grid = p_los_grid(sc, 28e9, GridSpec(2000))
        worst = max(worst, abs(closed - grid))
    elapsed = time.perf_counter() - started
    ok = worst <= 0.03 and elapsed < 30.0
    report(2, "closed form vs grid oracle", ok, f"worst gap {worst:.4f}, {elapsed:.1f}s")


def test_criterion_3_optical_convergence():
    optical = p_los_optical(scene())
    values = [p_los_closed(scene(), f * 1e9) for f in (1, 6, 28, 60, 100)]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    toward = all(v <= optical + 1e-12 for v in values)
    gap = optical - values[-1]
    ok = abs(optical - 0.300) < 1e-12 and monotone and toward and gap < 0.02
    report(3, "optical convergence", ok, f"optical {optical:.3f}, gap at 100 GHz {gap:.4f}")


def test_criterion_4_critical_frequency_boundary():
    fc = critical_frequency(scene())
    near_reference = abs(fc - 431.7e6) / 431.7e6 < 1e-3
    below = p_los_closed(scene(), 0.99 * fc) == 0.0
    above = p_los_closed(scene(), 1.01 * fc) > 0.0
    scaled = [critical_frequency(scene(window=w)) * w**2 for w in (1.0, 2.0, 3.0)]
    scaling = max(scaled) / min(scaled) - 1.0 < 1e-9
    ok = near_reference and below and above and scaling
    report(4, "critical frequency boundary", ok, f"fc {fc/1e6:.1f} MHz")


def test_criterion_5_window_proportionality():
    sc = [scene(window=w) for w in (1.0, 2.0, 3.0)]
    lam = SPEED_OF_LIGHT / 28e9
    rd = fresnel_radius(5.0, 20.0, lam)
    slope = (2 * 20 * 5 + 20**2) / (2 * 5 * 20**2)  # probability per meter of window
    corrected = [p_los_closed(s, 28e9) + 1.2 * rd * slope for s in sc]
    per_meter = [c / w for c, w in zip(corrected, (1.0, 2.0, 3.0))]
    ratio_spread = max(per_meter) / min(per_meter)
    optical = [p_los_optical(s) for s in sc]
    optical_exact = (
        abs(optical[1] - 2 * optical[0]) < 1e-12 and abs(optical[2] - 3 * optical[0]) < 1e-12
    )
    ok = ratio_spread <= 1.10 and optical_exact
    report(5, "window proportionality", ok, f"corrected ratio spread {ratio_spread:.4f}")


def test_criterion_6_coverage_analytic_vs_monte_carlo():
    started = time.perf_counter()
    fading = FadingModel()

    def budget():
        return LinkBudget(frequency=28e9, snr_threshold_db=5.0)

    worst = 0.0
    for d_a in (2.0, 14.0, 26.0, 38.0, 50.0):
        for l_w in (1.0, 2.0, 3.0, 4.0, 5.0):
            analytic = coverage_probability(d_a, 20.0, l_w, fading, budget()).p_cov
            estimate = coverage_mc_oracle(d_a, 20.0, l_w, fading, budget(), 100_000, MC_SEED)
            worst = max(worst, abs(analytic - estimate))
    ordering = True
    for d_a in np.arange(2.0, 100.1, 2.0):
        p1, p2, p3 = (
            coverage_probability(float(d_a), 20.0, w, fading, budget()).p_cov
            for w in (1.0, 2.0, 3.0)
        )
        ordering = ordering and p3 >= p2 >= p1
    elapsed = time.perf_counter() - started
    ok = worst <= 0.01 and ordering and elapsed < 60.0
    report(6, "coverage analytic vs Monte Carlo", ok, f"worst gap {worst:.4f}, {elapsed:.1f}s")


def test_criterion_7_numerical_kernels():
    vs = np.arange(0.01, 10.001, 0.01)
    c_ref, s_ref = fresnel_grid_by_quadrature(vs)
    fresnel_worst = 0.0
    for v, cr, sr in zip(vs, c_ref, s_ref):
        c, s = fresnel_integrals(float(v))
        mc, ms = fresnel_integrals(float(-v))
        fresnel_worst = max(fresnel_worst, abs(c - cr), abs(s - sr),
                            abs(mc + cr), abs(ms + sr))

    gamma_worst = 0.0
    for m in (0.5, 1.0, 2.0, 3.3, 5.0, 7.5, 10.0, 14.0, 20.0):
        for x in np.linspace(0.0, 100.0, 41):
            gamma_worst = max(
                gamma_worst,
                abs(reg_lower_gamma(m, float(x)) - reg_lower_gamma_mp(m, float(x))),
            )

    rayleigh_worst = 0.0
    for ratio in (1e-9, 1e-3, 0.1, 0.5, 1.0, 2.0, 7.0, 40.0):
        rayleigh_worst = max(
            rayleigh_worst, abs(nakagami_ccdf(1.0, 1.0, ratio) - math.exp(-ratio))
        )

    ok = fresnel_worst <= 1e-6 and gamma_worst <= 1e-8 and rayleigh_worst <= 1e-12
    report(
        7, "numerical kernels", ok,
        f"fresnel {fresnel_worst:.1e}, gamma {gamma_worst:.1e}, rayleigh {rayleigh_worst:.1e}",
    )


def _random_valid_config(rng: random.Random) -> str:
    swept = rng.choice(
        ["theta_deg", "frequency_hz", "window_m", "room_m", "bs_distance_m", "delta_over_rd"]
    )
    start = rng.uniform(-50.0, 0.0)
    stop = rng.uniform(0.5, 50.0)
    step = rng.uniform(0.05, 5.0)
    lines = [f"sweep={swept}", f"start={start!r}", f"stop={stop!r}", f"step={step!r}"]
    room = rng.uniform(10.0, 40.0)
    fixed_pool = {
        "room_m": room,
        "window_m": rng.uniform(0.5, min(5.0, room)),
        "bs_distance_m": rng.uniform(2.0, 100.0),
        "theta_deg": rng.uniform(-85.0, 85.0),
        "frequency_hz": rng.uniform(1e9, 100e9),
        "ms_distance_m": rng.uniform(5.0, 40.0),
        "tx_power_dbm": rng.uniform(10.0, 40.0),
        "noise_dbm": rng.uniform(-110.0, -80.0),
        "snr_threshold_db": rng.uniform(-10.0, 10.0),
        "m_los": rng.uniform(0.5, 20.0),
        "m_nlos": rng.uniform(0.5, 4.0),
        "n_los": rng.uniform(1.0, 2.5),
        "n_nlos": rng.uniform(2.0, 4.0),
        "d1_m": rng.uniform(1.0, 50.0),
        "d2_m": rng.uniform(1.0, 50.0),
        "delta_over_rd": rng.uniform(-3.0, 3.0),
    }
    for key in sorted(rng.sample(sorted(fixed_pool), rng.randint(0, 8))):
        if key != swept:
            lines.append(f"{key}={fixed_pool[key]!r}")
    outputs = rng.sample(
        ["p_los_closed", "p_los_grid", "p_los_optical", "path_loss_db",
         "p_cov", "critical_frequency_hz"],
        rng.randint(0, 3),
    )
    if outputs and not any(swept in OUTPUTS[name][1] for name in outputs):
        # A sweep no output reads is rejected; add the first output that
        # reads it, without a draw, so the other configs stay as they were.
        outputs.append(next(name for name, (_, reads) in OUTPUTS.items() if swept in reads))
    lines.append(f"outputs={','.join(outputs)}")
    lines.append(f"oracle_n={rng.randint(10, 2000)}")
    lines.append(f"seed={rng.randint(0, 2**31)}")
    rng.shuffle(lines)
    return "\n".join(lines)


def test_criterion_8_determinism_and_cli_contract(tmp_path, capsys):
    text = (
        "sweep=theta_deg\nstart=-60\nstop=60\nstep=10\n"
        "outputs=p_los_closed,p_los_grid\noracle_n=150\nseed=5\n"
    )
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    byte_identical = outputs[0] == outputs[1]

    rng = random.Random(20260809)
    round_trips = 0
    for _ in range(100):
        spec = parse_config(_random_valid_config(rng))
        round_trips += parse_config("\n".join(config_echo(spec))) == spec
    all_round_trip = round_trips == 100

    failures = {
        "windoww_m=2": "windoww_m",
        "window_m=25\nroom_m=20": "window exceeds room",
        "sweep=theta_deg\nstart=0\nstop=9\nstep=0": "step must be positive",
    }
    exit_codes_ok = True
    diagnostics_ok = True
    for body, needle in failures.items():
        bad = tmp_path / "bad.cfg"
        bad.write_text(body)
        code = main(["sweep", "--config", str(bad)])
        err = capsys.readouterr().err
        exit_codes_ok = exit_codes_ok and code == 2
        diagnostics_ok = diagnostics_ok and needle in err

    ok = byte_identical and all_round_trip and exit_codes_ok and diagnostics_ok
    report(
        8, "determinism and CLI contract", ok,
        f"round trips {round_trips}/100, byte identical {byte_identical}",
    )
