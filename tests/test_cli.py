"""Command-line runner: catalog, validation, determinism, manifests, guards."""

import ast
import gc
import os
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import read_csv, traced_peak, weight_ratio_error_full_grid
from wickbell import csvio
from wickbell.cli import (
    _PEAK_BYTES,
    _angles_line,
    _weight_ratio_error,
    EXPERIMENTS,
    MEMORY_BUDGET_BYTES,
    build_config,
    entry,
    run,
)
from wickbell.errors import ConfigError
from wickbell.epr import CorrelationWidth, epr_initial_pair, evolve_pair, joint_momentum_distribution
from wickbell.grids import EUCLIDEAN, MINKOWSKI, Grid1D, PhysParams
from wickbell.spin_geometry import UnitVector

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

    def test_readme_table_matches_catalog(self):
        # the README's experiment table lists every name and summary, in order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([^`]+)` \| (.+) \|$", readme, re.MULTILINE)
        assert rows == [(name, exp.summary) for name, exp in EXPERIMENTS.items()]


class TestMemoryBudget:
    def test_epr_estimate_bounds_traced_peak(self, tmp_path):
        # 256 points clear both guards with s = 0.3 resolved by dx = 0.09 and
        # a real-time alias shift 2 pi hbar T/(m dx) = 28 past the 23-wide box.
        # The estimate is the general path's, which an asymmetric box takes;
        # the default symmetric box's centrosymmetric pair holds less
        overrides = {"n_points": "256", "s": "0.3", "time": "0.4"}
        estimate = _PEAK_BYTES["epr", "n_points"][1](256)
        config = build_config("epr", {**overrides, "x_min": "-11.5", "x_max": "11.75"})
        peak = traced_peak(lambda: run(config, str(tmp_path)))[1]
        assert 0.9 * estimate <= peak <= estimate
        config = build_config("epr", overrides)
        assert traced_peak(lambda: run(config, str(tmp_path)))[1] <= estimate

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            ("wigner", {"n_points": "256"}),
            # 8 and 16 slices keep hbar eps / (m dx^2) >= 1 on 256 points
            ("kernel-check", {"n_points": "256", "slice_counts": "8,16"}),
            ("negativity-decay", {"n_points": "256"}),
        ],
    )
    def test_grid_estimate_bounds_traced_peak(self, tmp_path, experiment, overrides):
        config = build_config(experiment, overrides)
        estimate = _PEAK_BYTES[experiment, "n_points"][1](int(overrides["n_points"]))
        peak = traced_peak(lambda: run(config, str(tmp_path)))[1]
        assert 0.9 * estimate <= peak <= estimate

    @pytest.mark.parametrize(
        "experiment, key, counts, runs, fixed",
        [
            ("commutator", "n_slices", (10**5, 10**6), 1, {}),
            ("spin-phase", "equator_segments", (2000, 10000), 1, {}),
            ("spin-phase", "latitude_segments", (2000, 10000), 1, {}),
            ("chsh-decay", "n_samples", (200, 2000), 1, {}),
            # a 16-point grid holds less than 500 samples do; the peak varies
            # by up to 20 kB from run to run, and now and then by a transient
            # megabyte inside a wigner_transform call: the least of three counts
            (
                "negativity-decay",
                "n_samples",
                (500, 3000),
                3,
                {"n_points": "16", "x_min": "-8", "x_max": "8"},
            ),
        ],
        ids=[
            "commutator-slices",
            "equator-segments",
            "latitude-segments",
            "chsh-decay-samples",
            "damping-samples",
        ],
    )
    def test_count_estimate_bounds_traced_slope(
        self, tmp_path, experiment, key, counts, runs, fixed
    ):
        # a count that only lengthens a list: the run's peak grows by at most
        # the table's bytes per count, and by at least 0.9 of them
        def peak(count):
            config = build_config(experiment, {**fixed, key: str(count)})
            peaks = []
            for _ in range(runs):
                # emptied free lists: no run reuses an earlier run's objects
                # untraced, so the peak does not depend on the test order
                gc.collect()
                peaks.append(traced_peak(lambda: run(config, str(tmp_path)))[1])
            return min(peaks)

        lo, hi = counts
        estimate = _PEAK_BYTES[experiment, key][1]
        bound = (estimate(hi) - estimate(lo)) / (hi - lo)
        # the smaller count runs first and warms the interpreter for the
        # larger one: what the first run holds beyond the second lowers the slope
        low = peak(lo)
        slope = (peak(hi) - low) / (hi - lo)
        assert 0.9 * bound <= slope <= bound

    def test_every_budget_names_an_int_parameter(self):
        # a mistyped key would drop its budget without a word
        for experiment, key in _PEAK_BYTES:
            assert experiment in EXPERIMENTS, experiment
            schema = EXPERIMENTS[experiment].schema
            assert key in schema and schema[key].kind == "int", (experiment, key)
        for name, exp in EXPERIMENTS.items():
            if "n_points" in exp.schema:
                assert (name, "n_points") in _PEAK_BYTES, name

    def test_path_solve_over_budget_rejected_before_allocation(self, capsys, tmp_path):
        # 10^14 slices would need 1.6 PB: the schema rejects them unbuilt
        argv = ["run", "commutator", "--out", str(tmp_path), "--set", "n_slices=100000000000000"]
        code, peak = traced_peak(lambda: entry(argv))
        assert code == 2
        assert peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("config error: parameter n_slices: ")
        assert "budget" in err and "Traceback" not in err

    def test_shear_regime_within_negativity_estimate(self, tmp_path):
        # four samples keep the last shear of the populated rows inside the box
        overrides = {"n_points": "256", "regime": "minkowski-shear", "n_samples": "4"}
        overrides.update(x_min="-16", x_max="16")
        config = build_config("negativity-decay", overrides)
        peak = traced_peak(lambda: run(config, str(tmp_path)))[1]
        assert peak <= _PEAK_BYTES["negativity-decay", "n_points"][1](256)

    def test_readme_example_fits(self):
        build_config("epr", {"n_points": "2048", "time": "0.12"})
        assert _PEAK_BYTES["epr", "n_points"][1](2048) <= MEMORY_BUDGET_BYTES

    def test_epr_over_budget_rejected_before_allocation(self, capsys, tmp_path):
        # 10^5 points would need 320 GB: the schema rejects the grid unbuilt
        argv = ["run", "epr", "--out", str(tmp_path), "--set", "n_points=100000"]
        code, peak = traced_peak(lambda: entry(argv))
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

    @pytest.mark.parametrize(
        "experiment, key, valid",
        [
            ("chsh", "bogus", "seed"),
            # the closed-form maximum takes no restarts
            ("chsh", "restarts", "seed"),
            ("chsh-decay", "restarts", "n_samples"),
            # the twist integrates its paths over the whole real line
            ("commutator", "n_points", "boundary_width"),
            ("commutator", "x_min", "boundary_width"),
            ("commutator", "x_max", "boundary_width"),
        ],
    )
    def test_unknown_parameter_lists_valid_keys(self, capsys, tmp_path, experiment, key, valid):
        code = entry(["run", experiment, "--out", str(tmp_path), "--set", f"{key}=1"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"unknown parameter(s) {key} for {experiment}" in err
        assert "valid keys:" in err and valid in err

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

    @pytest.mark.parametrize("energies", ["0,1,2", "0,1,2,3,4"])
    def test_energy_count_is_a_schema_check(self, capsys, tmp_path, energies):
        # the level count is rejected by the schema, before any run starts
        count = len(energies.split(","))
        with pytest.raises(ConfigError, match=f"parameter energies: .* got {count}$"):
            build_config("chsh-decay", {"energies": energies})
        out = tmp_path / "out"
        assert entry(["run", "chsh-decay", "--out", str(out), "--set", f"energies={energies}"]) == 2
        assert capsys.readouterr().err.startswith("config error: parameter energies:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, key, bound",
        [("chsh-decay", "n_samples", 2), ("spin-phase", "equator_segments", 3)],
    )
    def test_negative_count(self, capsys, tmp_path, experiment, key, bound):
        code = entry(["run", experiment, "--out", str(tmp_path), "--set", f"{key}=-1"])
        assert code == 2
        assert f"config error: parameter {key}: {key} must be >= {bound}" in capsys.readouterr().err

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
            ("commutator", ["slice_indices=0"], "parameter slice_indices: slice index j must"),
            # the kernel prefactor sqrt(m / 2 pi hbar t) overflows
            ("epr", ["time=5e-324"], "minkowski kernel (time=4.9406564584124654e-324)"),
            ("wigner", ["x_min=-1e308", "x_max=1e308"], "grid: x_max - x_min overflows"),
            ("wigner", ["x_min=3", "x_max=-3"], "grid: x_max must exceed x_min"),
            # counts whose lists or schedules would outgrow the memory budget
            ("spin-phase", ["equator_segments=100000000000000"], "parameter equator_segments:"),
            ("spin-phase", ["latitude_segments=100000000000000"], "parameter latitude_segments:"),
            ("chsh-decay", ["n_samples=100000000000000"], "parameter n_samples:"),
            ("negativity-decay", ["n_samples=100000000000000"], "parameter n_samples:"),
            ("spin-phase", ["equator_segments=20000000"], "parameter equator_segments: 20000000 segments would hold"),
            ("wigner", ["state=bogus"], "parameter state: state must be one of gaussian, cat-odd"),
            ("negativity-decay", ["regime=thermal"], "parameter regime: regime must be one of euclidean"),
            ("chsh", ["=1"], "--set needs a parameter name, got '=1'"),
            ("kernel-check", ["margin=1e308"], "margin 1e+308 leaves no interior grid points"),
        ],
        ids=[
            "slice_counts",
            "latitude_theta",
            "slice-index",
            "time-underflow",
            "span-overflow",
            "edges-reversed",
            "equator-segments",
            "latitude-segments",
            "chsh-decay-samples",
            "damping-samples",
            "segments-estimate",
            "state-choice",
            "regime-choice",
            "empty-name",
            "margin",
        ],
    )
    def test_bad_value_rejected_as_config_error(
        self, capsys, tmp_path, experiment, overrides, named
    ):
        # each value fails a check in the schema or inside the run, which
        # reports it as a configuration error naming the parameter
        argv = ["run", experiment, "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert entry(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {named}")

    def test_slice_index_error_names_the_key(self, capsys, tmp_path):
        argv = ["run", "commutator", "--out", str(tmp_path), "--set", "slice_indices=2,8"]
        assert entry(argv) == 2
        assert capsys.readouterr().err == (
            "config error: parameter slice_indices: "
            "slice index j must satisfy 1 <= j <= 7, got 8\n"
        )

    @pytest.mark.parametrize(
        "experiment, override",
        [
            ("commutator", "slice_indices=0"),
            ("kernel-check", "margin=1e308"),
            ("spin-phase", "latitude_theta=3.1415925"),
        ],
    )
    def test_config_error_inside_run_leaves_no_directory(
        self, capsys, tmp_path, experiment, override
    ):
        # each value passes the schema and fails the runner's own check after
        # --out exists: the directory and the parent this run made go again
        out = tmp_path / "made" / "out"
        assert entry(["run", experiment, "--out", str(out), "--set", override]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert list(tmp_path.iterdir()) == []
        # a directory that was there before the run stays, empty or not
        (tmp_path / "kept").mkdir()
        (tmp_path / "kept" / "note.txt").write_text("kept\n")
        out = tmp_path / "kept" / "out"
        out.mkdir()
        assert entry(["run", experiment, "--out", str(out), "--set", override]) == 2
        assert out.is_dir() and list(out.iterdir()) == []
        assert (tmp_path / "kept" / "note.txt").read_text() == "kept\n"

    def test_failed_grid_writer_leaves_no_directory(self, capsys, tmp_path, monkeypatch):
        # the forked child writing the second half of wigner.csv fails: a
        # config error naming the file, not a traceback, and the directories
        # the run made go again
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        parent, write_rows = os.getpid(), csvio._write_rows

        def fails_in_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("the child's rows fail")
            write_rows(*args)

        monkeypatch.setattr(csvio, "_write_rows", fails_in_child)
        out = tmp_path / "made" / "out"
        assert entry(["run", "wigner", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output {out / 'wigner.csv'}: the forked ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_is_a_config_error(self, capsys, tmp_path):
        (tmp_path / "kernel_check.csv").mkdir()
        assert entry(["run", "kernel-check", "--out", str(tmp_path)]) == 2
        target = tmp_path / "kernel_check.csv"
        assert capsys.readouterr().err == f"config error: cannot write output {target}: Is a directory\n"

    def test_latitude_next_to_south_pole(self, capsys, tmp_path):
        # the schema admits every angle below pi, but within about 1.4e-6 of
        # it the loop's +z fan meets an antipodal vertex pair: a configuration
        # error naming the angle, not a numerical failure
        argv = ["run", "spin-phase", "--out", str(tmp_path), "--set"]
        assert entry(argv + ["latitude_theta=3.1415925"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: latitude_theta=3.1415924999999998 ")
        assert "antipodal" in err and "Traceback" not in err
        assert entry(argv + [f"latitude_theta={np.pi - 1.5e-6!r}"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "override",
        [
            "total_time=1",  # the default
            "total_time=1e-12",
            "total_time=1e-100",
            "total_time=1e-300",
            # 5e-324 / 8 rounds to a zero slice; 1e-200 squared rounds to zero
            "total_time=5e-324",
            "boundary_width=1e-200",
            # wide packets: the paths run over the whole real line
            "boundary_width=20",
            "boundary_width=1e300",
            "n_slices=1000000",  # 16 MB of path solve, inside the budget
        ],
    )
    def test_commutator_rows_are_exact(self, capsys, tmp_path, override):
        # a slice or a width at the float limits is a free or a pinned end:
        # the twist is still exactly i hbar and +hbar, with no -0
        argv = ["run", "commutator", "--out", str(tmp_path), "--set", override]
        assert entry(argv) == 0
        assert capsys.readouterr().err == ""
        lines = (tmp_path / "commutator.csv").read_text().splitlines()
        assert lines == [
            "regime,j,re,im",
            "minkowski,2,0,1",
            "minkowski,5,0,1",
            "euclidean,2,1,0",
            "euclidean,5,1,0",
        ]

    def test_unparsable_value(self, capsys, tmp_path):
        # the kind in the message is the type of the parameter's default
        for experiment, item, kind in [
            ("spin-phase", "equator_segments=many", "int"),
            ("spin-phase", "latitude_theta=north", "float"),
            ("commutator", "slice_indices=2,x", "ints"),
            ("chsh-decay", "energies=0,1,2,e", "floats"),
        ]:
            code = entry(["run", experiment, "--out", str(tmp_path), "--set", item])
            assert code == 2
            key, _, text = item.partition("=")
            expected = f"config error: parameter {key}: cannot parse {text!r} as {kind}\n"
            assert capsys.readouterr().err == expected

    def test_every_default_fixes_its_parse_type(self):
        # the parser converts text with the default's type, so every default
        # must be an int, float or str, or a non-empty tuple of one of int and
        # float; the text of each default parses back to it
        for name, exp in EXPERIMENTS.items():
            raw = {}
            for key, spec in exp.schema.items():
                default = spec.default
                items = default if isinstance(default, tuple) else (default,)
                assert items and len({type(v) for v in items}) == 1, (name, key)
                allowed = (int, float) if isinstance(default, tuple) else (int, float, str)
                assert type(items[0]) in allowed, (name, key)
                assert spec.kind in ("int", "float", "str", "ints", "floats"), (name, key)
                raw[key] = ",".join(repr(v) if isinstance(v, float) else str(v) for v in items)
            assert build_config(name, raw).parameters == build_config(name, {}).parameters, name

    def test_malformed_override(self, capsys, tmp_path):
        code = entry(["run", "spin-phase", "--out", str(tmp_path), "--set", "equator_segments"])
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
        cfg.write_text("equator_segments=64\nequator_segments=32\n")
        assert entry(["run", "spin-phase", "--config", str(cfg), "--out", str(tmp_path)]) == 2
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
    def test_weight_ratio_error_matches_full_grid_formula(self):
        # the kept-cells evaluation is the full-grid formula, bit for bit,
        # on an evolved pair and on random densities with many kept cells
        phys, t = PhysParams(), 0.4
        pair = epr_initial_pair(Grid1D(-11.5, 11.5, 256), CorrelationWidth(0.3), 1.0, phys)
        pgrid, prob_m = joint_momentum_distribution(evolve_pair(pair, t, MINKOWSKI))
        prob_e = joint_momentum_distribution(evolve_pair(pair, t, EUCLIDEAN))[1]
        rng = np.random.default_rng(5)
        noisy_m, noisy_e = rng.random((2, 256, 256)) ** 40
        for dens_m, dens_e in ((prob_m, prob_e), (noisy_m, noisy_e)):
            expected = weight_ratio_error_full_grid(pgrid.x, dens_m, dens_e, t)
            assert _weight_ratio_error(pgrid, dens_m, dens_e, t, phys) == expected

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
        assert entry(["run", "chsh-decay", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "chsh-decay_manifest.txt").read_text().strip().splitlines()
        assert lines[0] == "experiment=chsh-decay"
        assert lines[-1].startswith("version=")
        params = [line for line in lines if line.startswith("param.")]
        assert params == sorted(params)
        assert "param.energies=0,1,2,3" in params and "param.n_samples=33" in params

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

    @pytest.mark.parametrize(
        "experiment, names",
        [("chsh", ["chsh.csv"]), ("chsh-decay", ["chsh_decay.csv", "chsh_control.csv"])],
    )
    def test_seed_is_ignored(self, capsys, tmp_path, experiment, names):
        # the CHSH maximum draws nothing: the seed is checked and otherwise unused
        for seed in ("0", "3"):
            assert entry(["run", experiment, "--out", str(tmp_path / seed), "--set", f"seed={seed}"]) == 0
        for name in names:
            assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()
        assert entry(["run", experiment, "--out", str(tmp_path), "--set", "seed=-1"]) == 2
        assert "config error: parameter seed: seed must be >= 0" in capsys.readouterr().err

    def test_chsh_scores(self, capsys, tmp_path):
        assert entry(["run", "chsh", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "singlet: a=(theta=" in out and "cnot-bell:" in out
        rows = read_csv(tmp_path / "chsh.csv", ("quantity", "value"))
        values = {q: float(v) for q, v in rows}
        assert values["singlet_chsh_max"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-14)
        assert values["cnot_bell_chsh_max"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-14)

    def test_angles_line(self):
        # theta = arccos(n_z), clipped to [-1, 1]; phi = arctan2(n_y, n_x)
        settings = (
            UnitVector(1.0, 0.0, 0.0),
            UnitVector(0.0, 0.0, 1.0 + 2.0**-52),
            UnitVector(0.0, -1.0, 0.0),
            UnitVector(-0.6, 0.0, -0.8),
        )
        assert _angles_line("singlet", settings) == (
            "singlet: a=(theta=1.570796, phi=0.000000)  a'=(theta=0.000000, phi=0.000000)  "
            "b=(theta=1.570796, phi=-1.570796)  b'=(theta=2.498092, phi=3.141593)"
        )

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
        assert float(decay[-1][1]) == pytest.approx(2.0, abs=1e-14)
        assert float(decay[-1][2]) == pytest.approx(0.5, abs=1e-12)
        assert float(control[-1][1]) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-14)

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


def test_cli_imports_no_private_name():
    # the runner is a client of the public API: no _-prefixed name of
    # another wickbell module (dunders such as __version__ are public)
    path = Path(__file__).resolve().parents[1] / "src" / "wickbell" / "cli.py"
    private = [
        alias.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "wickbell")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
