"""Command-line runner: catalog, validation, determinism, manifests, guards."""

import os
import tracemalloc

import numpy as np
import pytest

from wickbell.cli import (
    _PEAK_BYTES,
    MEMORY_BUDGET_BYTES,
    _path_solve_bytes,
    build_config,
    entry,
    run,
)
from wickbell.csvio import read_csv

ALL_EXPERIMENTS = (
    "wigner",
    "kernel-check",
    "commutator",
    "epr",
    "negativity-decay",
    "spin-phase",
    "chsh",
    "chsh-decay",
)


class TestCatalog:
    def test_plain_listing(self, capsys):
        assert entry(["list-experiments"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(ALL_EXPERIMENTS)
        names = [line.split(" - ")[0] for line in lines]
        assert tuple(names) == ALL_EXPERIMENTS
        assert all(" - " in line for line in lines)

    def test_csv_listing(self, capsys):
        assert entry(["list-experiments", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "experiment,summary"
        assert len(lines) == len(ALL_EXPERIMENTS) + 1
        chsh_row = next(line for line in lines if line.startswith("chsh,"))
        assert "CNOT" in chsh_row


def traced_peak(fn) -> tuple:
    """fn's result and the peak bytes allocated while it runs."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    def test_epr_estimate_bounds_traced_peak(self, tmp_path):
        # 256 points clear both guards with s = 0.3 resolved by dx = 0.09 and
        # a real-time alias shift 2 pi hbar T/(m dx) = 28 past the 23-wide box
        config = build_config("epr", {"n_points": "256", "s": "0.3", "time": "0.4"})
        estimate = _PEAK_BYTES["epr"](256)
        peak = traced_peak(lambda: run(config, str(tmp_path)))[1]
        assert 0.9 * estimate <= peak <= estimate

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            ("wigner", {"n_points": "256"}),
            # 8 and 16 slices keep hbar eps / (m dx^2) >= 1 on 256 points
            ("kernel-check", {"n_points": "256", "slice_counts": "8,16"}),
            ("negativity-decay", {"n_points": "256"}),
            # only the grid coordinates scale with n, so n is large here
            ("commutator", {"n_points": "100000"}),
        ],
    )
    def test_grid_estimate_bounds_traced_peak(self, tmp_path, experiment, overrides):
        config = build_config(experiment, overrides)
        estimate = _PEAK_BYTES[experiment](int(overrides["n_points"]))
        peak = traced_peak(lambda: run(config, str(tmp_path)))[1]
        assert 0.9 * estimate <= peak <= estimate

    def test_path_solve_estimate_bounds_traced_peak(self, tmp_path):
        # the commutator's quadratic form grows with n_slices, not n_points
        config = build_config("commutator", {"n_points": "64", "n_slices": "400"})
        estimate = _path_solve_bytes(400)
        peak = traced_peak(lambda: run(config, str(tmp_path)))[1]
        assert 0.9 * estimate <= peak <= estimate

    def test_path_solve_over_budget_rejected_before_allocation(self, capsys, tmp_path):
        # 10^5 slices would need 320 GB: the schema rejects them unbuilt
        argv = ["run", "commutator", "--out", str(tmp_path), "--set", "n_slices=100000"]
        code, peak = traced_peak(lambda: entry(argv))
        assert code == 2
        assert peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("config error: parameter n_slices: 100000 slices would hold")
        assert "budget" in err

    def test_shear_regime_within_negativity_estimate(self, tmp_path):
        # four samples keep the last shear of the populated rows inside the box
        overrides = {"n_points": "256", "regime": "minkowski-shear", "n_samples": "4"}
        overrides.update(x_min="-16", x_max="16")
        config = build_config("negativity-decay", overrides)
        peak = traced_peak(lambda: run(config, str(tmp_path)))[1]
        assert peak <= _PEAK_BYTES["negativity-decay"](256)

    def test_readme_example_fits(self):
        build_config("epr", {"n_points": "2048", "time": "0.12"})
        assert _PEAK_BYTES["epr"](2048) <= MEMORY_BUDGET_BYTES

    def test_epr_over_budget_rejected_before_allocation(self, capsys, tmp_path):
        # 10^5 points would need 640 GB: the schema rejects the grid unbuilt
        tracemalloc.start()
        try:
            code = entry(["run", "epr", "--out", str(tmp_path), "--set", "n_points=100000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        err = capsys.readouterr().err
        assert "config error: parameter n_points: 100000 points" in err
        assert "budget" in err

    @pytest.mark.parametrize(
        "experiment, n_points",
        [
            ("wigner", "200000"),
            ("kernel-check", "200000"),
            ("negativity-decay", "200000"),
            ("commutator", "2000000000"),
            # an estimate past Python's 4300-digit int-to-str limit
            ("epr", "9" * 3000),
        ],
    )
    def test_grid_over_budget_rejected_before_allocation(
        self, capsys, tmp_path, experiment, n_points
    ):
        argv = ["run", experiment, "--out", str(tmp_path), "--set", f"n_points={n_points}"]
        code, peak = traced_peak(lambda: entry(argv))
        assert code == 2
        assert peak < 2**20
        err = capsys.readouterr().err
        assert "config error: parameter n_points:" in err
        assert "budget" in err

    @pytest.mark.parametrize(
        "override, named",
        [
            # the conditioning window lies past the momentum grid's edge
            ("condition_momentum=1000", "condition_momentum 1000"),
            ("condition_momentum=nan", "condition_momentum nan"),
            # a 0.1 half-width keeps one momentum sample of spacing 0.27
            ("p_window=0.1", "p_window 0.1 keeps 1 momentum samples"),
        ],
    )
    def test_epr_momentum_window_rejected_before_pair(self, capsys, tmp_path, override, named):
        argv = ["run", "epr", "--out", str(tmp_path), "--set", override]
        code, peak = traced_peak(lambda: entry(argv))
        assert code == 2
        assert peak < 2**20
        assert f"config error: {named}" in capsys.readouterr().err


class TestValidation:
    def test_unknown_experiment(self, capsys):
        assert entry(["run", "teleportation"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "unknown experiment" in err and "choices:" in err

    def test_rejected_parameter_value(self, capsys, tmp_path):
        code = entry(["run", "wigner", "--out", str(tmp_path), "--set", "n_points=4"])
        assert code == 2
        assert "n_points must be >= 8" in capsys.readouterr().err

    def test_unknown_parameter_lists_valid_keys(self, capsys, tmp_path):
        code = entry(["run", "chsh", "--out", str(tmp_path), "--set", "bogus=1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown parameter(s) bogus" in err
        assert "valid keys:" in err and "restarts" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_positive_value(self, capsys, tmp_path, value):
        code = entry(["run", "epr", "--out", str(tmp_path), "--set", f"time={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: parameter time:" in err
        assert "positive and finite" in err

    @pytest.mark.parametrize(
        "key, value", [("x_min", "-inf"), ("x_max", "nan"), ("center", "nan"), ("momentum", "inf")]
    )
    def test_non_finite_grid_or_state_value(self, capsys, tmp_path, key, value):
        code = entry(["run", "wigner", "--out", str(tmp_path), "--set", f"{key}={value}"])
        assert code == 2
        assert f"config error: parameter {key}: {key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["chsh", "chsh-decay"])
    def test_negative_seed(self, capsys, tmp_path, experiment):
        code = entry(["run", experiment, "--out", str(tmp_path), "--set", "seed=-1"])
        assert code == 2
        assert "config error: parameter seed: seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["center=100", "width=0.001"])
    def test_state_vanishing_on_grid(self, capsys, tmp_path, override):
        code = entry(
            ["run", "wigner", "--out", str(tmp_path)]
            + ["--set", "state=gaussian", "--set", override]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: state gaussian (center=" in err
        assert override in err and "Grid1D(x_min=-16.0, x_max=16.0, n_points=256)" in err

    @pytest.mark.parametrize(
        "experiment, overrides, named",
        [
            ("wigner", ["separation=1e308"], "separation=1e+308"),
            ("wigner", ["state=gaussian", "center=1e308"], "center=1e+308"),
            ("wigner", ["state=gaussian", "momentum=1e308"], "momentum=1e+308"),
            ("wigner", ["width=1e-200"], "width=9.9999999999999998e-201"),
            ("epr", ["s=1e-200"], "s=9.9999999999999998e-201, envelope=1"),
            ("epr", ["envelope=1e308"], "s=0.050000000000000003, envelope=1e+308"),
            ("negativity-decay", ["omega=1e200"], "omega=9.9999999999999997e+199"),
            ("negativity-decay", ["omega=1e153"], "omega=1e+153"),
        ],
    )
    def test_float_error_in_build(self, capsys, tmp_path, experiment, overrides, named):
        # overflow, division and invalid results while building the state or
        # the trap are raised, not printed, and reported as configuration
        # errors naming the parameters
        args = ["run", experiment, "--out", str(tmp_path)]
        for item in overrides:
            args += ["--set", item]
        assert entry(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (["energies=1e308,0,0,0"], "energies (1e+308,0,0,0) and tau_max (8)"),
            (["tau_max=1e308", "n_samples=3"], "energies (0,1,2,3) and tau_max (1e+308)"),
        ],
        ids=["energies", "tau_max"],
    )
    def test_chsh_decay_exponent_overflow(self, capsys, tmp_path, overrides, named):
        # the kernel exponents E tau would overflow: rejected up front, with
        # no numpy warning, naming both parameters
        args = ["run", "chsh-decay", "--out", str(tmp_path)]
        for item in overrides:
            args += ["--set", item]
        assert entry(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert "non-finite kernel exponent" in err

    @pytest.mark.parametrize(
        "experiment, overrides, named",
        [
            ("kernel-check", ["slice_counts=16,1"], "parameter slice_counts: slice_counts must"),
            ("spin-phase", ["latitude_theta=4"], "parameter latitude_theta: latitude_theta must"),
            ("commutator", ["boundary_width=20"], "boundary_width 20.0: boundary packet does"),
            # 5e-324 / 8 rounds to a zero slice; 1e-200 squared rounds to zero
            ("commutator", ["total_time=5e-324"], "total_time / n_slices = 0 is too short"),
            ("commutator", ["boundary_width=1e-200"], "boundary_width 1e-200 is too small"),
            # the kernel prefactor sqrt(m / 2 pi hbar t) overflows
            ("epr", ["time=5e-324"], "minkowski kernel (time=4.9406564584124654e-324)"),
            ("wigner", ["x_min=-1e308", "x_max=1e308"], "grid: x_max - x_min overflows"),
            ("wigner", ["x_min=3", "x_max=-3"], "grid: x_max must exceed x_min"),
            # counts whose lists or schedules would outgrow the memory budget
            ("spin-phase", ["equator_segments=100000000000000"], "parameter equator_segments:"),
            ("spin-phase", ["latitude_segments=100000000000000"], "parameter latitude_segments:"),
            ("chsh-decay", ["n_samples=100000000000000"], "parameter n_samples:"),
            ("negativity-decay", ["n_samples=100000000000000"], "parameter n_samples:"),
            ("spin-phase", ["equator_segments=10000000"], "parameter equator_segments: 10000000 segments would hold"),
        ],
        ids=[
            "slice_counts",
            "latitude_theta",
            "boundary_width",
            "slice-underflow",
            "width-underflow",
            "time-underflow",
            "span-overflow",
            "edges-reversed",
            "equator-segments",
            "latitude-segments",
            "chsh-decay-samples",
            "damping-samples",
            "segments-estimate",
        ],
    )
    def test_bad_value_rejected_as_config_error(
        self, capsys, tmp_path, experiment, overrides, named
    ):
        # each value is out of range for a check inside the run, which
        # reports it as a configuration error naming the parameter
        argv = ["run", experiment, "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert entry(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {named}")

    def test_unparsable_value(self, capsys, tmp_path):
        code = entry(["run", "chsh", "--out", str(tmp_path), "--set", "seed=many"])
        assert code == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_malformed_override(self, capsys, tmp_path):
        code = entry(["run", "chsh", "--out", str(tmp_path), "--set", "seed"])
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err


class TestConfigFile:
    def test_comments_and_blanks_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "spin.cfg"
        cfg.write_text(
            "# loop resolutions\n\nequator_segments = 64\nlatitude_segments=32\n"
        )
        out = tmp_path / "out"
        code = entry(["run", "spin-phase", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        manifest = (out / "spin-phase_manifest.txt").read_text()
        assert "param.equator_segments=64" in manifest
        assert "param.latitude_segments=32" in manifest

    def test_duplicate_key_reports_location(self, capsys, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("seed=1\nseed=2\n")
        assert entry(["run", "chsh", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and "duplicate" in err

    def test_malformed_line_reports_location(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# fine\njust some words\n")
        assert entry(["run", "chsh", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and "key=value" in err

    def test_empty_name_reports_location(self, capsys, tmp_path):
        cfg = tmp_path / "anon.cfg"
        cfg.write_text("=3\n")
        assert entry(["run", "chsh", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "empty parameter name" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.cfg"
        assert entry(["run", "chsh", "--config", str(missing), "--out", str(tmp_path)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_override_beats_config_file(self, tmp_path):
        cfg = tmp_path / "spin.cfg"
        cfg.write_text("equator_segments=64\n")
        out = tmp_path / "out"
        code = entry(
            [
                "run",
                "spin-phase",
                "--config",
                str(cfg),
                "--set",
                "equator_segments=128",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        manifest = (out / "spin-phase_manifest.txt").read_text()
        assert "param.equator_segments=128" in manifest


class TestRunOutputs:
    def test_written_paths_are_printed_and_exist(self, capsys, tmp_path):
        assert entry(["run", "spin-phase", "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert sorted(os.path.basename(p) for p in printed) == [
            "spin-phase_manifest.txt",
            "spin_phases.csv",
        ]
        for path in printed:
            assert os.path.exists(path)

    def test_manifest_layout(self, tmp_path):
        assert entry(["run", "chsh", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "chsh_manifest.txt").read_text().strip().splitlines()
        assert lines[0] == "experiment=chsh"
        assert lines[-1].startswith("version=")
        params = [line for line in lines if line.startswith("param.")]
        assert params == sorted(params)
        assert "param.restarts=16" in params and "param.seed=0" in params

    def test_outdir_env_honored(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("WICKBELL_OUTDIR", str(env_dir))
        assert entry(["run", "spin-phase"]) == 0
        assert (env_dir / "spin_phases.csv").exists()
        printed = capsys.readouterr().out.strip().splitlines()
        assert all(str(env_dir) in p for p in printed)

    def test_default_outdir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("WICKBELL_OUTDIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert entry(["run", "spin-phase"]) == 0
        assert (tmp_path / "wickbell-out" / "spin_phases.csv").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["wickbell-out"]
        printed = capsys.readouterr().out.strip().splitlines()
        assert all(p.startswith("wickbell-out") for p in printed)

    def test_explicit_out_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WICKBELL_OUTDIR", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        assert entry(["run", "spin-phase", "--out", str(chosen)]) == 0
        assert (chosen / "spin_phases.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_determinism(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert entry(["run", "chsh", "--out", str(d)]) == 0
            assert entry(["run", "spin-phase", "--out", str(d)]) == 0
        capsys.readouterr()
        for name in ("chsh.csv", "chsh_manifest.txt", "spin_phases.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_chsh_scores(self, capsys, tmp_path):
        assert entry(["run", "chsh", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "singlet: a=(theta=" in out and "cnot-bell:" in out
        rows = read_csv(tmp_path / "chsh.csv", ("quantity", "value"))
        values = {q: float(v) for q, v in rows}
        assert values["singlet_chsh_max"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-6)
        assert values["cnot_bell_chsh_max"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-6)

    def test_negativity_decay_reduced_schedule(self, capsys, tmp_path):
        code = entry(
            [
                "run",
                "negativity-decay",
                "--out",
                str(tmp_path),
                "--set",
                "n_samples=6",
                "--set",
                "tau_max=3.0",
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "negativity_decay.csv", ("tau", "f", "purity", "trace_raw"))
        f = np.array([float(r[1]) for r in rows])
        assert len(f) == 6
        assert np.all(np.diff(f) <= 1e-9)
        assert f[0] > 1.5 and f[-1] < 1.1

    def test_negativity_decay_late_tau(self, capsys, tmp_path):
        # the reported raw trace underflows to 0 long before the renormalized
        # state stops being exact; the run must finish at the ground state
        code = entry(
            [
                "run",
                "negativity-decay",
                "--out",
                str(tmp_path),
                "--set",
                "tau_max=2000",
                "--set",
                "n_samples=4",
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "negativity_decay.csv", ("tau", "f", "purity", "trace_raw"))
        f = np.array([float(r[1]) for r in rows])
        raw = np.array([float(r[3]) for r in rows])
        assert np.all(np.diff(raw) <= 0.0)
        assert raw[-1] == 0.0
        assert abs(f[-1] - 1.0) < 1e-4

    @pytest.mark.parametrize(
        "overrides", [["tau_max=1e308"], ["tau_max=1e308", "omega=4"]], ids=["gaps", "ground"]
    )
    def test_negativity_decay_tau_past_float_range(self, capsys, tmp_path, overrides):
        # level gaps times tau, and with omega=4 the ground energy times tau,
        # pass the float range: the run still ends at the ground state with a
        # raw trace of 0 and no numpy warning
        argv = ["run", "negativity-decay", "--out", str(tmp_path), "--set", "n_samples=3"]
        for item in overrides:
            argv += ["--set", item]
        assert entry(argv) == 0
        assert capsys.readouterr().err == ""
        rows = read_csv(tmp_path / "negativity_decay.csv", ("tau", "f", "purity", "trace_raw"))
        assert float(rows[-1][0]) == 1e308
        assert abs(float(rows[-1][1]) - 1.0) < 1e-9
        assert float(rows[-1][3]) == 0.0

    def test_chsh_decay_late_tau(self, capsys, tmp_path):
        # the singlet's damping runs past exp(745) relative to the empty level
        # below its floor; that level stays 0, the decay ends at a product
        # state and the unitary control keeps the Tsirelson value
        argv = ["run", "chsh-decay", "--out", str(tmp_path)]
        assert entry(argv + ["--set", "tau_max=800", "--set", "n_samples=3"]) == 0
        assert capsys.readouterr().err == ""
        header = ("tau", "chsh_max", "fidelity_to_initial")
        decay = read_csv(tmp_path / "chsh_decay.csv", header)
        control = read_csv(tmp_path / "chsh_control.csv", header)
        assert float(decay[-1][1]) == pytest.approx(2.0, abs=1e-6)
        assert float(decay[-1][2]) == pytest.approx(0.5, abs=1e-12)
        assert float(control[-1][1]) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-6)

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            ("wigner", ["n_points=255"]),
            ("negativity-decay", ["n_points=65", "x_min=-12", "x_max=12"]),
            (
                "negativity-decay",
                ["n_points=65", "x_min=-12", "x_max=12"]
                + ["regime=minkowski-shear", "n_samples=3"],
            ),
        ],
    )
    def test_odd_grid(self, capsys, tmp_path, experiment, overrides):
        argv = ["run", experiment, "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert entry(argv) == 0
        assert capsys.readouterr().err == ""

    def test_out_naming_a_file(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        assert entry(["run", "chsh", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "output directory" in err and str(target) in err
        assert target.read_text() == "not a directory\n"

    def test_value_error_inside_run_is_a_run_error(self, capsys, tmp_path, monkeypatch):
        # a ValueError that no configuration check raised is a numerical
        # failure of the run: exit 3, naming the experiment
        import wickbell.cli as cli

        def vanishing(w):
            raise ValueError("negativity ratio undefined: total integral vanishes")

        monkeypatch.setattr(cli, "negativity_ratio", vanishing)
        assert entry(["run", "wigner", "--out", str(tmp_path), "--set", "n_points=64"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("run error in wigner: negativity ratio undefined")

    def test_guard_exit_code(self, capsys, tmp_path):
        code = entry(
            [
                "run",
                "epr",
                "--out",
                str(tmp_path),
                "--set",
                "n_points=128",
                "--set",
                "x_min=-6",
                "--set",
                "x_max=6",
                "--set",
                "s=0.5",
                "--set",
                "envelope=1.5",
                "--set",
                "time=5.0",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical guard GridEscapeError" in err

    def test_coarse_grid_trips_slice_guard(self, capsys, tmp_path):
        # dx^2 past the float range reads as an infinitely coarse grid
        argv = ["run", "kernel-check", "--out", str(tmp_path)]
        for item in ("n_points=64", "x_max=1e300"):
            argv += ["--set", item]
        assert entry(argv) == 3
        assert "slice duration too short for this grid" in capsys.readouterr().err
