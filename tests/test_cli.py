"""Command-line runner: catalog, validation, determinism, manifests, guards."""

import os

import numpy as np
import pytest

from wickbell.cli import entry
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
