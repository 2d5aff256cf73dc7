import importlib.util
import io
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from o2i_los import cli, diffraction, los, sweep
from o2i_los.cli import main
from o2i_los.coverage import LinkBudget, mean_snr
from o2i_los.diffraction import SPEED_OF_LIGHT, free_space_path_loss_db, wavelength
from o2i_los.geometry import SceneGeometry
from o2i_los.los import clearances
from o2i_los.sweep import (
    MAX_GRID_COLUMNS,
    MAX_ORACLE_N,
    MAX_POINTS,
    OUTPUTS,
    ConfigError,
    SweepSpec,
    config_echo,
    emit_csv,
    parse_config,
    run_sweep,
)


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))


def render(record) -> str:
    buffer = io.StringIO()
    emit_csv(record, buffer)
    return buffer.getvalue()


class TestParseConfig:
    def test_defaults_filled(self):
        spec = parse_config("sweep=theta_deg\nstart=-80\nstop=80\nstep=1\nfrequency_hz=28e9")
        assert spec.swept == "theta_deg"
        assert spec.fixed["room_m"] == 20.0
        assert spec.fixed["window_m"] == 2.0
        assert spec.fixed["bs_distance_m"] == 5.0
        assert spec.fixed["frequency_hz"] == 28e9
        assert spec.fixed["snr_threshold_db"] == -5.0
        assert "theta_deg" not in spec.fixed
        assert spec.outputs == ("p_los_closed",)
        assert spec.oracle_n == 500 and spec.seed == 0

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nsweep=window_m\nstart=1\nstop=3\nstep=1\n # another\n"
        assert parse_config(text).swept == "window_m"

    def test_zero_step_rejected(self):
        with pytest.raises(ConfigError, match="step must be positive"):
            parse_config("sweep=theta_deg\nstart=0\nstop=10\nstep=0")

    @pytest.mark.parametrize("start", ["10", "11"])
    def test_empty_range_rejected(self, start):
        with pytest.raises(ConfigError, match="start must be less than stop"):
            parse_config(f"sweep=theta_deg\nstart={start}\nstop=10\nstep=1")

    def test_window_exceeding_room_rejected(self):
        with pytest.raises(ConfigError, match="window exceeds room"):
            parse_config("window_m=25\nroom_m=20")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'windoww_m'"):
            parse_config("windoww_m=2")

    def test_duplicate_key_named(self):
        with pytest.raises(ConfigError, match="duplicate key 'start'"):
            parse_config("sweep=theta_deg\nstart=0\nstart=1\nstop=10\nstep=1")

    def test_missing_sweep(self):
        with pytest.raises(ConfigError, match="missing key 'sweep'"):
            parse_config("window_m=2")

    def test_missing_range_key(self):
        with pytest.raises(ConfigError, match="missing key 'step'"):
            parse_config("sweep=theta_deg\nstart=0\nstop=10")

    def test_unsweepable_parameter(self):
        with pytest.raises(ConfigError, match="cannot sweep 'tx_power_dbm'"):
            parse_config("sweep=tx_power_dbm\nstart=0\nstop=10\nstep=1")
        with pytest.raises(ConfigError, match="cannot sweep 'tx_power_dbm'"):
            SweepSpec("tx_power_dbm", 0.0, 10.0, 1.0, {})

    def test_swept_also_fixed(self):
        with pytest.raises(ConfigError, match="must not also be fixed"):
            parse_config("sweep=theta_deg\ntheta_deg=5\nstart=0\nstop=10\nstep=1")
        with pytest.raises(ConfigError, match="must not also be fixed"):
            SweepSpec("theta_deg", 0.0, 10.0, 1.0, {"theta_deg": 5.0})

    def test_bad_number(self):
        base = "sweep=theta_deg\nstop=10\nstep=1\n"
        for line, match in [
            ("start=abc", "invalid number for 'start'"),
            ("start=inf", "invalid number for 'start'"),
            ("start=0\noracle_n=5.5", "'oracle_n' must be an integer"),
            ("start=0\nseed=1e3", "'seed' must be an integer"),
        ]:
            with pytest.raises(ConfigError, match=match):
                parse_config(base + line)

    def test_unknown_output(self):
        # a repeated p_los_grid would run the grid twice while the column cap counts it once
        for outputs, match in [("p_marginal", "unknown output 'p_marginal'"),
                               ("p_los_grid,p_los_closed,p_los_grid", "duplicate output 'p_los_grid'")]:
            with pytest.raises(ConfigError, match=match):
                parse_config(f"sweep=theta_deg\nstart=0\nstop=1\nstep=1\noutputs={outputs}")

    def test_sweep_no_output_reads_rejected(self):
        with pytest.raises(ConfigError, match="swept key 'theta_deg'"):
            parse_config("sweep=theta_deg\nstart=0\nstop=10\nstep=5\noutputs=p_los_optical")

    def test_sweep_read_by_one_output_accepted(self):
        # p_los_optical ignores the frequency; p_los_closed reads it
        spec = parse_config(
            "sweep=frequency_hz\nstart=1e9\nstop=2e9\nstep=1e9\n"
            "outputs=p_los_closed,p_los_optical"
        )
        assert spec.outputs == ("p_los_closed", "p_los_optical")

    @pytest.mark.parametrize("sweep_range", [
        "start=0\nstop=100000\nstep=1",  # 100001 points
        "start=0\nstop=1\nstep=1e-300",  # about 1e300 points
        "start=-1e308\nstop=1e308\nstep=1",  # the span overflows to inf
    ])
    def test_point_cap(self, sweep_range):
        with pytest.raises(ConfigError, match=f"more than {MAX_POINTS} points"):
            parse_config(f"sweep=theta_deg\n{sweep_range}\noutputs=")

    def test_point_cap_is_inclusive(self):
        assert parse_config("sweep=theta_deg\nstart=0\nstop=99999\nstep=1\noutputs=")

    def test_oracle_n_cap(self):
        base = "sweep=theta_deg\nstart=0\nstop=1\nstep=1\noracle_n="
        assert parse_config(base + str(MAX_ORACLE_N)).oracle_n == MAX_ORACLE_N
        with pytest.raises(ConfigError, match=f"between 10 and {MAX_ORACLE_N}"):
            parse_config(base + str(MAX_ORACLE_N + 1))

    def test_grid_work_cap(self):
        # points x oracle_n is checked at parse time, before any grid is evaluated
        base = f"sweep=theta_deg\nstart=0\nstep=1\noracle_n={MAX_ORACLE_N}\n"
        points = MAX_GRID_COLUMNS // MAX_ORACLE_N
        assert parse_config(base + f"stop={points - 1}\noutputs=p_los_grid")
        with pytest.raises(ConfigError, match=f"more than {MAX_GRID_COLUMNS} columns"):
            parse_config(base + f"stop={points}\noutputs=p_los_closed,p_los_grid")
        assert parse_config(base + f"stop={points}\noutputs=p_los_closed")

    def test_bad_assignment_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("sweep=theta_deg\njust words\nstart=0\nstop=1\nstep=1")


class TestRunSweep:
    def test_row_count(self):
        spec = parse_config("sweep=theta_deg\nstart=-80\nstop=80\nstep=1\noutputs=")
        record = run_sweep(spec)
        assert len(record.rows) == math.floor((80 - -80) / 1) + 1
        spec = parse_config("sweep=delta_over_rd\nstart=-3\nstop=3\nstep=0.01\noutputs=")
        assert len(run_sweep(spec).rows) == 601

    def test_domain_error_reports_offending_value(self):
        for sweep_range, match in [
            ("sweep=theta_deg\nstart=85\nstop=95\nstep=5", "theta_deg=90.0"),
            ("sweep=frequency_hz\nstart=-1e9\nstop=1e9\nstep=1e9", "frequency_hz=-1000000000.0"),
        ]:
            for outputs in ("p_los_closed", "p_los_grid"):
                spec = parse_config(f"{sweep_range}\noutputs={outputs}")
                with pytest.raises(ValueError, match=match):
                    run_sweep(spec)

    @pytest.mark.filterwarnings("error")
    def test_extreme_standoff_grid_warns_nothing(self):
        # The seed slope's square overflows here; s_max = inf is the no-clamp limit.
        text = "sweep=bs_distance_m\nstart=1e306\nstop=1e308\nstep=3e307\noutputs=p_los_grid\noracle_n=10"
        record = run_sweep(parse_config(text))
        assert [row[1] for row in record.rows] == [0.0] * 4

    def test_knife_edge_transition(self):
        text = (
            "sweep=delta_over_rd\nstart=-3\nstop=3\nstep=0.05\n"
            "frequency_hz=2e9\nd1_m=8\nd2_m=20\noutputs=path_loss_db"
        )
        record = run_sweep(parse_config(text))
        fspl = free_space_path_loss_db(28.0, SPEED_OF_LIGHT / 2e9)
        for ratio, loss in record.rows:
            excess = loss - fspl
            if ratio >= 0.6:
                assert abs(excess) <= 1.5
            if ratio <= -1.0:
                assert excess >= 10.0

    def test_los_probability_increases_with_frequency(self):
        base = "sweep=theta_deg\nstart=-80\nstop=80\nstep=8\noutputs=p_los_closed,p_los_grid\noracle_n=200\nfrequency_hz="
        low = run_sweep(parse_config(base + "1e9"))
        high = run_sweep(parse_config(base + "28e9"))
        for (_, closed_lo, grid_lo), (_, closed_hi, grid_hi) in zip(low.rows, high.rows):
            assert closed_hi >= closed_lo
            assert grid_hi >= grid_lo

    def test_coverage_window_ordering(self):
        base = (
            "sweep=bs_distance_m\nstart=2\nstop=100\nstep=7\n"
            "snr_threshold_db=5\noutputs=p_cov\nwindow_m="
        )
        curves = [run_sweep(parse_config(base + str(w))).rows for w in (1, 2, 3)]
        for row1, row2, row3 in zip(*curves):
            assert row3[1] >= row2[1] >= row1[1]

    # A second valid value of each numeric key, and a range of each sweepable one.
    OTHER_VALUE = {
        "room_m": 30.0, "window_m": 3.0, "bs_distance_m": 8.0, "theta_deg": 10.0,
        "frequency_hz": 60e9, "ms_distance_m": 10.0, "tx_power_dbm": 20.0, "noise_dbm": -90.0,
        "snr_threshold_db": 0.0, "m_los": 2.0, "m_nlos": 2.0, "n_los": 1.5, "n_nlos": 3.2,
        "d1_m": 10.0, "d2_m": 15.0, "delta_over_rd": 0.5,
    }
    SWEEP_RANGE = {
        "theta_deg": (-20, 20, 20), "frequency_hz": (1e10, 3e10, 1e10), "window_m": (1, 3, 1),
        "room_m": (10, 30, 10), "bs_distance_m": (2, 8, 3), "delta_over_rd": (-2, 2, 2),
    }

    @pytest.mark.parametrize("output", list(OUTPUTS))
    def test_output_reads_exactly_its_declared_keys(self, output):
        # A key outside the declared reads leaves the column's bits alone, and
        # each declared key, the swept one too, moves it.  At the default
        # threshold LoS coverage is 1.0, so m_los and n_los show only at 60 dB.
        assert set(self.OTHER_VALUE) == set(sweep._NUMERIC_DEFAULTS)
        reads = OUTPUTS[output][1]
        swept = next(key for key in sweep.SWEEPABLE if key in reads)
        start, stop, step = self.SWEEP_RANGE[swept]

        def column(fixed):
            lines = [f"sweep={swept}", f"start={start}", f"stop={stop}", f"step={step}",
                     f"outputs={output}", "oracle_n=50", *(f"{k}={v!r}" for k, v in fixed.items())]
            return [row[1].hex() for row in run_sweep(parse_config("\n".join(lines))).rows]

        bases = [{}, {"snr_threshold_db": 60.0}]
        assert len(set(column({}))) > 1, swept
        for key, other in self.OTHER_VALUE.items():
            if key != swept:
                changed = [column({**base, key: other}) != column(base) for base in bases]
                assert any(changed) == (key in reads), key


class TestEmitCsv:
    def test_empty_outputs_single_column(self):
        record = run_sweep(parse_config("sweep=theta_deg\nstart=0\nstop=4\nstep=1\noutputs="))
        lines = [l for l in render(record).splitlines() if not l.startswith("#")]
        assert lines[0] == "theta_deg"
        assert len(lines) == 6

    def test_two_outputs_five_points(self):
        text = "sweep=theta_deg\nstart=0\nstop=4\nstep=1\noutputs=p_los_closed,p_los_optical"
        record = run_sweep(parse_config(text))
        lines = [l for l in render(record).splitlines() if not l.startswith("#")]
        assert len(lines) == 6  # column header plus five rows
        assert lines[0] == "theta_deg,p_los_closed,p_los_optical"

    def test_byte_identical_reruns(self):
        text = (
            "sweep=frequency_hz\nstart=1e9\nstop=30e9\nstep=5e9\n"
            "outputs=p_los_closed,p_los_grid\noracle_n=100\nseed=11"
        )
        first = render(run_sweep(parse_config(text)))
        second = render(run_sweep(parse_config(text)))
        assert first.encode() == second.encode()

    def test_header_echo_reparses_to_same_spec(self):
        spec = parse_config(
            "sweep=window_m\nstart=0.5\nstop=4.5\nstep=0.25\noutputs=p_los_optical\nseed=3"
        )
        emitted = render(run_sweep(spec))
        echoed = [l[2:] for l in emitted.splitlines() if l.startswith("# ") and "=" in l]
        assert parse_config("\n".join(echoed)) == spec


class TestGoldenResults:
    def test_one_result_per_config(self):
        assert CONFIGS
        results = sorted(p.stem for p in (ROOT / "results").glob("*.csv"))
        assert results == [p.stem for p in CONFIGS]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_regenerates_committed_csv(self, config, tmp_path):
        target = tmp_path / (config.stem + ".csv")
        with open(target, "w") as stream:
            emit_csv(run_sweep(parse_config(config.read_text())), stream)
        assert target.read_bytes() == (ROOT / "results" / target.name).read_bytes()

    def test_reproduce_figures_script(self, tmp_path, monkeypatch, capsys):
        path = ROOT / "scripts" / "reproduce_figures.py"
        module_spec = importlib.util.spec_from_file_location("reproduce_figures", path)
        script = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(script)
        shutil.copytree(ROOT / "configs", tmp_path / "configs")
        monkeypatch.setattr(script, "ROOT", tmp_path)
        assert script.main() == 0
        written = sorted((tmp_path / "results").glob("*.csv"))
        assert [p.stem for p in written] == [p.stem for p in CONFIGS]
        for target in written:
            assert target.read_bytes() == (ROOT / "results" / target.name).read_bytes()
        out = capsys.readouterr().out
        for line in ("1 m window:   1726.8 MHz", "2 m window:    431.7 MHz",
                     "3 m window:    191.9 MHz"):
            assert line in out


def _read_by_outputs(fields) -> bool:
    return not fields["outputs"] or any(fields["swept"] in OUTPUTS[o][1] for o in fields["outputs"])


valid_specs = st.fixed_dictionaries(dict(
    swept=st.sampled_from(["theta_deg", "frequency_hz", "window_m", "room_m",
                           "bs_distance_m", "delta_over_rd"]),
    start=st.floats(-50.0, 0.0),
    stop=st.floats(0.5, 50.0),
    step=st.floats(0.1, 5.0),
    fixed=st.just({}),
    outputs=st.lists(
        st.sampled_from(["p_los_closed", "p_los_grid", "p_los_optical",
                         "path_loss_db", "p_cov", "critical_frequency_hz"]),
        max_size=4, unique=True,
    ).map(tuple),
    oracle_n=st.integers(10, 2000),
    seed=st.integers(-(2**31), 2**31),
)).filter(_read_by_outputs).map(lambda fields: SweepSpec(**fields))


class TestRoundTrip:
    @given(valid_specs)
    @settings(max_examples=100, deadline=None)
    def test_echo_reparses_exactly(self, spec):
        parsed = parse_config("\n".join(config_echo(spec)))
        # the echo resolves every fixed default explicitly
        assert parsed.swept == spec.swept
        assert (parsed.start, parsed.stop, parsed.step) == (spec.start, spec.stop, spec.step)
        assert parsed.outputs == spec.outputs
        assert (parsed.oracle_n, parsed.seed) == (spec.oracle_n, spec.seed)
        assert parse_config("\n".join(config_echo(parsed))) == parsed


class TestCli:
    def write(self, tmp_path, text):
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        return str(path)

    def test_sweep_to_file(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "sweep=theta_deg\nstart=-20\nstop=20\nstep=10\n")
        out = tmp_path / "result.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        content = out.read_text()
        assert content.startswith("# o2i-los")
        assert "theta_deg,p_los_closed" in content
        unwritable = tmp_path / "absent" / "result.csv"
        assert main(["sweep", "--config", cfg, "--out", str(unwritable)]) == 1
        assert "cannot write output" in capsys.readouterr().err

    def test_config_seed_and_oracle_n_echoed(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "sweep=theta_deg\nstart=0\nstop=10\nstep=5\n"
                                   "seed=42\noracle_n=123\n")
        assert main(["sweep", "--config", cfg]) == 0
        captured = capsys.readouterr().out
        assert "# seed=42" in captured and "# oracle_n=123" in captured

    def test_config_error_exit_2(self, tmp_path, capsys):
        for text, message in [
            ("windoww_m=2\n", "unknown key 'windoww_m'"),
            ("sweep=theta_deg\nstart=0\nstop=10\nstep=5\noutputs=p_los_grid,p_los_grid\n",
             "duplicate output 'p_los_grid'"),
        ]:
            assert main(["sweep", "--config", self.write(tmp_path, text)]) == 2
            assert message in capsys.readouterr().err

    def test_invariant_violation_exit_2(self, tmp_path, capsys):
        # The fixed scene is checked at parse time, whatever the outputs,
        # unless room_m or window_m is swept.
        for text, message in [
            ("window_m=25\nroom_m=20\n", "window exceeds room"),
            ("sweep=bs_distance_m\nstart=2\nstop=4\nstep=1\nwindow_m=30\noutputs=p_cov\n",
             "window exceeds room"),
            ("sweep=bs_distance_m\nstart=2\nstop=4\nstep=1\nwindow_m=-1\noutputs=p_cov\n",
             "window_width must be positive and finite"),
            ("sweep=theta_deg\nstart=0\nstop=10\nstep=5\nwindow_m=-1\noutputs=p_los_closed\n",
             "window_width must be positive and finite"),
        ]:
            assert main(["sweep", "--config", self.write(tmp_path, text)]) == 2
            assert message in capsys.readouterr().err

    def test_sweep_no_output_reads_exit_2(self, tmp_path, capsys):
        # p_cov is evaluated at zero aspect angle and ignores theta_deg
        cfg = self.write(tmp_path, "sweep=theta_deg\nstart=-60\nstop=60\nstep=30\noutputs=p_cov\n")
        assert main(["sweep", "--config", cfg]) == 2
        assert "theta_deg" in capsys.readouterr().err

    def test_config_oracle_n_capped_exit_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "sweep=theta_deg\nstart=0\nstop=10\nstep=5\n"
                                   f"oracle_n={MAX_ORACLE_N + 1}\n")
        assert main(["sweep", "--config", cfg]) == 2
        assert f"between 10 and {MAX_ORACLE_N}" in capsys.readouterr().err

    def test_config_grid_work_capped_exit_2(self, tmp_path, capsys):
        # 32001 points x oracle_n 500
        cfg = self.write(tmp_path, "sweep=theta_deg\nstart=-80\nstop=80\nstep=0.005\n"
                                   "outputs=p_los_grid\n")
        assert main(["sweep", "--config", cfg]) == 2
        assert f"more than {MAX_GRID_COLUMNS} columns" in capsys.readouterr().err

    def test_nonpositive_length_exit_2(self, tmp_path, capsys):
        # Checked at parse time whether or not a requested output reads the key.
        base = "sweep=theta_deg\nstart=0\nstop=10\nstep=5\noutputs=p_los_closed\n"
        cases = [(base + f"{key}={value}\n", key) for key in ("ms_distance_m", "d1_m", "d2_m")
                 for value in ("0", "-8")]
        cases.append(("sweep=bs_distance_m\nstart=5\nstop=6\nstep=1\noutputs=p_cov\n"
                      "ms_distance_m=-5\n", "ms_distance_m"))
        for text, key in cases:
            assert main(["sweep", "--config", self.write(tmp_path, text)]) == 2
            assert f"{key} must be positive" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        undecodable = tmp_path / "latin1.cfg"
        undecodable.write_bytes("# caf\u00e9\nsweep=theta_deg\nstart=0\nstop=10\nstep=5\n".encode("latin-1"))
        for path in (tmp_path / "absent.cfg", undecodable):
            assert main(["sweep", "--config", str(path)]) == 2
            assert "error: cannot read config: " in capsys.readouterr().err

    def test_domain_error_exit_3(self, tmp_path, capsys):
        for text, message in [
            ("sweep=theta_deg\nstart=85\nstop=95\nstep=5\n", "theta_deg=90.0"),
            # windows beyond the 20 m room, rejected like every other scene output
            ("sweep=window_m\nstart=18\nstop=24\nstep=2\noutputs=critical_frequency_hz\n",
             "window_m=22.0: window exceeds room"),
            # p_cov reads no room_m, yet its window must fit the room too
            ("sweep=window_m\nstart=18\nstop=24\nstep=2\noutputs=p_cov\n",
             "window_m=22.0: window exceeds room"),
            # d**exponent overflows in mean_snr
            ("sweep=bs_distance_m\nstart=1e306\nstop=1e308\nstep=3e307\noutputs=p_cov\n",
             "bs_distance_m=1e+306"),
            # the critical wavelength underflows to zero
            ("sweep=window_m\nstart=1e-300\nstop=2e-300\nstep=1e-300\n"
             "outputs=critical_frequency_hz\n", "window_m=1e-300: float division by zero"),
            # d1 * d2 overflows in fresnel_radius; the row would read 0.0
            ("sweep=bs_distance_m\nstart=1e306\nstop=1e308\nstep=3e307\n"
             "outputs=p_los_closed\n",
             "bs_distance_m=3.0999999999999997e+307: Fresnel radius is not finite"),
        ]:
            assert main(["sweep", "--config", self.write(tmp_path, text)]) == 3
            assert message in capsys.readouterr().err

    def test_overflowing_room_area_exit_0(self, tmp_path, capsys):
        # the room area L^2 overflows in p_los_closed; its share of the room does not
        cfg = self.write(tmp_path, "sweep=room_m\nstart=1e160\nstop=2e160\nstep=1e160\n"
                                   "outputs=p_los_closed,p_los_optical\n")
        assert main(["sweep", "--config", cfg]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[-2:]]
        assert [row[0] for row in rows] == ["1e+160", "2e+160"]
        assert all(0.0 < float(value) < 1.0 for row in rows for value in row[1:])

    def test_non_finite_output_exit_3(self, tmp_path, capsys, monkeypatch):
        # No output is known to return inf for a valid point since the deep
        # shadow became finite; a stubbed loss stands in to reach the row check.
        monkeypatch.setattr(sweep, "total_path_loss_db", lambda d1, d2, delta, lam: math.inf)
        text = "sweep=delta_over_rd\nstart=-2e16\nstop=-1e16\nstep=1e16\noutputs=path_loss_db\n"
        assert main(["sweep", "--config", self.write(tmp_path, text)]) == 3
        assert ("delta_over_rd=-2e+16: non-finite output {'path_loss_db': inf}"
                in capsys.readouterr().err)

    def test_deep_shadow_sweep_finite(self):
        text = "sweep=delta_over_rd\nstart=-2e16\nstop=-1e16\nstep=1e16\noutputs=path_loss_db"
        record = run_sweep(parse_config(text))
        assert [round(loss - free_space_path_loss_db(28.0, SPEED_OF_LIGHT / 28e9), 3)
                for _, loss in record.rows] == [341.984, 335.964]

    def test_overflowing_fresnel_argument_exit_0(self, tmp_path, capsys):
        # pi v^2 overflows at v = 1.4e160; the loss takes its finite asymptote
        cfg = self.write(tmp_path, "sweep=delta_over_rd\nstart=-1e160\nstop=1e160\nstep=1e160\n"
                                   "outputs=path_loss_db\n")
        assert main(["sweep", "--config", cfg]) == 0
        rows = capsys.readouterr().out.splitlines()[-3:]
        assert [row.split(",")[0] for row in rows] == ["-1e+160", "0.0", "1e+160"]
        assert all(math.isfinite(float(row.split(",")[1])) for row in rows)

    def test_gamma_non_convergence_exit_3(self, tmp_path, capsys):
        # threshold at the mean LoS SNR of the 25 m ring: Q(1e5, 1e5) does not converge
        snr = mean_snr(25.0, 1.2, LinkBudget(frequency=28e9))
        cfg = self.write(tmp_path, (
            "sweep=bs_distance_m\nstart=5\nstop=6\nstep=1\noutputs=p_cov\n"
            f"m_los=1e5\nsnr_threshold_db={10 * math.log10(snr)!r}\n"
        ))
        assert main(["sweep", "--config", cfg]) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_fresnel_non_convergence_exit_3(self, tmp_path, capsys, monkeypatch):
        # |v| = 2.8 takes the continued fraction, which needs more than 5 iterations
        monkeypatch.setattr(diffraction, "_MAX_ITER", 5)
        cfg = self.write(tmp_path, "sweep=delta_over_rd\nstart=-2\nstop=2\nstep=4\n"
                                   "outputs=path_loss_db\n")
        assert main(["sweep", "--config", cfg]) == 3
        assert "Fresnel continued fraction did not converge" in capsys.readouterr().err

    def test_critical_freq(self, capsys):
        assert main(["critical-freq", "--window-m", "2", "--bs-distance-m", "5",
                     "--room-m", "20"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(431.7e6, rel=1e-3)

    def test_critical_freq_invalid(self, capsys):
        for window, distance, room in [("-2", "5", "20"), ("2", "inf", "20"), ("30", "5", "20")]:
            assert main(["critical-freq", "--window-m", window, "--bs-distance-m", distance,
                         "--room-m", room]) == 2

    def test_critical_freq_underflow_exit_3(self, capsys):
        assert main(["critical-freq", "--window-m", "1e-300", "--bs-distance-m", "5",
                     "--room-m", "20"]) == 3
        assert "float division by zero" in capsys.readouterr().err

    def test_los_point_diagnostics(self, capsys):
        assert main(["los-point", "--ms-x", "20", "--ms-y", "0"]) == 0
        out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert out["los"] == "true"
        assert float(out["d1"]) == pytest.approx(5.0)
        assert float(out["d2"]) == pytest.approx(20.0)
        assert float(out["clearance_upper"]) == pytest.approx(1.0, abs=1e-9)
        assert float(out["clearance_threshold"]) == pytest.approx(0.1242, abs=1e-3)

    @pytest.mark.parametrize("flag, value, scene, frequency, ms", [
        # 25 m deep lies outside the default 20 m room and inside a 30 m one
        ("--room-m", "30", SceneGeometry(30.0, 2.0, 5.0), 28e9, (25.0, 0.5)),
        ("--window-m", "4", SceneGeometry(20.0, 4.0, 5.0), 28e9, (15.0, 3.0)),
        ("--bs-distance-m", "8", SceneGeometry(20.0, 2.0, 8.0), 28e9, (15.0, 3.0)),
        ("--theta-deg", "30", SceneGeometry(20.0, 2.0, 5.0, math.radians(30.0)), 28e9,
         (15.0, 3.0)),
        ("--frequency-hz", "2e9", SceneGeometry(20.0, 2.0, 5.0), 2e9, (15.0, 3.0)),
    ], ids=["room_m", "window_m", "bs_distance_m", "theta_deg", "frequency_hz"])
    def test_los_point_scene_flag_reaches_scene(self, flag, value, scene, frequency, ms, capsys):
        point = ["los-point", "--ms-x", repr(ms[0]), "--ms-y", repr(ms[1])]
        assert main(point + [flag, value]) == 0
        printed = capsys.readouterr().out
        out = dict(line.split("=", 1) for line in printed.splitlines())
        c = clearances(scene, ms[0], ms[1], wavelength(frequency))
        assert out["los"] == ("true" if c.los else "false")
        expected = {"d1": c.d1, "d2": c.d2, "crossing_y": c.crossing_y, "r_d": c.r_d,
                    "clearance_lower": c.lower, "clearance_upper": c.upper}
        assert {key: float(out[key]) for key in expected} == expected
        # the same receiver with every scene flag at its default reads differently
        assert (main(point), capsys.readouterr().out) != (0, printed)

    def test_los_point_outside_room_exit_3(self, capsys):
        for x, y in [("30", "0"), ("25", "0"), ("5", "11"), ("0", "0"),  # 0: the wall plane
                     ("nan", "0"), ("inf", "0"), ("5", "inf"), ("5", "nan")]:
            assert main(["los-point", "--ms-x", x, "--ms-y", y]) == 3
            assert "MS outside room" in capsys.readouterr().err

    def test_los_point_infinite_bs_position_exit_2(self, capsys):
        assert main(["los-point", "--ms-x", "20", "--ms-y", "0", "--bs-distance-m", "1e308",
                     "--theta-deg", "89"]) == 2
        assert "base-station position must be finite" in capsys.readouterr().err

    def test_los_point_one_predicate_call(self, monkeypatch, capsys):
        calls = []

        def spy(*args):
            calls.append(args)
            return clearances(*args)

        monkeypatch.setattr(los, "clearances", spy)
        monkeypatch.setattr(cli, "clearances", spy)
        assert main(["los-point", "--ms-x", "20", "--ms-y", "0"]) == 0
        assert len(calls) == 1

    def test_los_point_infinite_frequency_exit_3(self, capsys):
        # 1e-300 Hz: the frequency is finite but its wavelength overflows
        for frequency, message in [("inf", "frequency must be positive and finite"),
                                   ("1e-300", "wavelength is not finite")]:
            assert main(["los-point", "--ms-x", "20", "--ms-y", "0",
                         "--frequency-hz", frequency]) == 3
            assert message in capsys.readouterr().err

    def test_analytic_routes_do_not_load_numpy(self, tmp_path):
        # numpy is imported only by the grid and Monte Carlo oracles
        cfg = self.write(tmp_path, "sweep=bs_distance_m\nstart=1\nstop=5\nstep=1\n"
                                   "outputs=p_los_closed,p_cov\n")
        code = (
            "import sys\n"
            "import o2i_los\n"
            "from o2i_los.cli import main\n"
            "assert 'numpy' not in sys.modules\n"
            f"assert main(['sweep', '--config', {cfg!r}]) == 0\n"
            "assert main(['critical-freq', '--window-m', '2', '--bs-distance-m', '5',"
            " '--room-m', '20']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was loaded'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert "bs_distance_m,p_los_closed,p_cov" in lines
        assert float(lines[-1]) == pytest.approx(431.7e6, rel=1e-3)

    def test_module_entry_point(self, tmp_path):
        cfg = self.write(tmp_path, "sweep=theta_deg\nstart=0\nstop=10\nstep=5\noutputs=\n")
        result = subprocess.run(
            [sys.executable, "-m", "o2i_los", "sweep", "--config", cfg],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert result.returncode == 0
        assert result.stdout.startswith("# o2i-los")

    def test_closed_stdout_exit_1(self, tmp_path):
        # 94,000 rows outgrow the pipe's buffer, so writing fails once the reader has gone.
        cfg = self.write(tmp_path, "sweep=theta_deg\nstart=-47\nstop=47\nstep=0.001\n"
                                   "outputs=p_los_closed\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "o2i_los", "sweep", "--config", cfg],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert proc.stdout.readline().startswith("# o2i-los")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 1
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("error: cannot write output: ")

    def test_readme_cli_examples_run(self, tmp_path, monkeypatch, capsys):
        block = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
        block = block.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("o2i-los ")]
        assert len(commands) == 3
        monkeypatch.chdir(ROOT)  # the examples name configs/ relative to the checkout
        for argv in commands:
            if "--out" in argv:
                i = argv.index("--out") + 1
                argv[i] = str(tmp_path / argv[i])
            assert main(argv) == 0, (argv, capsys.readouterr().err)

    def test_readme_library_example_runs(self):
        library = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
        code = library.split("```python\n", 1)[1].split("```", 1)[0]
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.splitlines()) == 2
