import copy
import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import MALFORMED_BEAM_EDITS, MALFORMED_BEAM_TEXTS, write_malformed_beams
from irsmimo import cli, irs_opt, metrics, scenario
from irsmimo.numerics import NumericalError


SMOKE = {
    "room": {"x": 12.0, "y": 12.0},
    "wavelength": 0.06,
    "bs": {"position": [6.0, 11.5, 2.0], "n_y": 2, "n_z": 2},
    "ue": {
        "count": 1,
        "n_antennas": 2,
        "height": 1.0,
        "placement": "UD-0m",
        "nominal_positions": [[2.0, 4.0]],
    },
    "irs": {
        "panels": [
            {"wall": "west", "center_along": 6.0, "center_height": 1.5, "n_h": 2, "n_v": 2}
        ],
        "tiles_per_panel": 1,
    },
    "channel": {"n_clusters": 1, "n_paths": 2},
    "solver": {"n_samples": 2, "max_offline_iters": 8},
    "eval": {"n_realizations": 2},
    "seed": 4,
}


@pytest.fixture
def smoke_config(tmp_path):
    path = tmp_path / "smoke.yaml"
    path.write_text(yaml.safe_dump(copy.deepcopy(SMOKE)))
    return path


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_ROOT_ENV, raising=False)
    return tmp_path


class TestOptimizeCommand:
    def test_smoke_run_is_fast_with_settling_deltas(self, smoke_config, tmp_path):
        out = tmp_path / "opt"
        t0 = time.monotonic()
        rc = cli.main(["optimize", "-c", str(smoke_config), "-o", str(out)])
        elapsed = time.monotonic() - t0
        assert rc == cli.EXIT_OK
        assert elapsed < 5.0
        report = json.loads((out / "report.json").read_text())
        deltas = report["delta_history"]
        tail = deltas[2:]
        assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))
        assert (out / "beams.json").exists()
        assert (out / "manifest.json").exists()

    def test_rerun_byte_identical(self, smoke_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["optimize", "-c", str(smoke_config), "-o", str(out1)]) == 0
        assert cli.main(["optimize", "-c", str(smoke_config), "-o", str(out2)]) == 0
        assert (out1 / "beams.json").read_bytes() == (out2 / "beams.json").read_bytes()

    def test_invalid_constraint_mode_names_key(self, smoke_config, capsys):
        rc = cli.main(
            ["optimize", "-c", str(smoke_config), "--override", "constraint.mode=XX"]
        )
        assert rc == cli.EXIT_VALIDATION
        assert "constraint.mode" in capsys.readouterr().err

    def test_non_integer_count_is_validation_error(self, smoke_config, capsys):
        rc = cli.main(
            ["optimize", "-c", str(smoke_config), "--override", "solver.n_samples=2.0"]
        )
        assert rc == cli.EXIT_VALIDATION
        assert "solver.n_samples" in capsys.readouterr().err

    def test_non_number_float_is_validation_error(self, smoke_config, capsys):
        rc = cli.main(
            ["optimize", "-c", str(smoke_config), "--override", "solver.tol_online=abc"]
        )
        assert rc == cli.EXIT_VALIDATION
        assert "solver.tol_online" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        ["solver.tol_online=.nan", "power.noise_dbm=.inf", "solver.tol_online=-1",
         "solver.eps_offline=-1"],
    )
    def test_non_finite_or_negative_tolerance_is_validation_error(
        self, smoke_config, tmp_path, capsys, override
    ):
        out = tmp_path / "ev"
        rc = cli.main(
            ["evaluate", "-c", str(smoke_config), "-b", "random", "-n", "2",
             "--override", override, "-o", str(out)]
        )
        assert rc == cli.EXIT_VALIDATION
        assert override.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["- 1\n- 2\n", "3\n"], ids=["list", "scalar"])
    @pytest.mark.parametrize("extra", [[], ["--override", "seed=3"]], ids=["plain", "override"])
    def test_config_not_a_mapping_is_validation_error(self, tmp_path, capsys, text, extra):
        path = tmp_path / "top.yaml"
        path.write_text(text)
        out = tmp_path / "opt"
        rc = cli.main(["optimize", "-c", str(path), *extra, "-o", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert "expected a mapping" in capsys.readouterr().err
        assert not out.exists()

    def test_exponent_float_override_validates(self, smoke_config, tmp_path):
        out = tmp_path / "opt"
        rc = cli.main(
            ["optimize", "-c", str(smoke_config), "--override", "solver.tol_online=1e-6",
             "-o", str(out)]
        )
        assert rc == cli.EXIT_OK
        cfg = scenario.load_config(smoke_config, overrides={"solver.tol_online": 1e-6})
        assert cfg.solver.tol_online == 1e-6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == scenario.config_hash(cfg)

    @pytest.mark.parametrize(
        "override, key", [("bs.position=5", "bs.position"), ("weights=[1, [2]]", "weights[1]")]
    )
    def test_malformed_list_names_key(self, smoke_config, tmp_path, capsys, override, key):
        out = tmp_path / "opt"
        rc = cli.main(["optimize", "-c", str(smoke_config), "--override", override, "-o", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_names_path(self, tmp_path, capsys):
        data = copy.deepcopy(SMOKE)
        data["solver"]["typo_key"] = 1
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(data))
        rc = cli.main(["optimize", "-c", str(path)])
        assert rc == cli.EXIT_VALIDATION
        assert "solver.typo_key" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        rc = cli.main(["optimize", "-c", str(tmp_path / "nope.yaml")])
        assert rc == cli.EXIT_IO

    def test_malformed_override(self, smoke_config):
        rc = cli.main(["optimize", "-c", str(smoke_config), "--override", "justakey"])
        assert rc == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("case", ["config", "override", "sweep spec"])
    def test_yaml_syntax_error_is_validation_error(self, smoke_config, tmp_path, capsys, case):
        out = tmp_path / "out"
        bad = tmp_path / "bad.yaml"
        if case == "config":
            bad.write_text("room: {x: 12\nbad: [\n")
            argv, source = ["optimize", "-c", str(bad)], str(bad)
        elif case == "override":
            argv = ["optimize", "-c", str(smoke_config), "--override", "seed=[1,"]
            source = "seed=[1,"
        else:
            bad.write_text("axes: [\n")
            argv, source = ["sweep", "-s", str(bad)], str(bad)
        assert cli.main([*argv, "-o", str(out)]) == cli.EXIT_VALIDATION
        assert source in capsys.readouterr().err
        assert not out.exists()

    def test_report_embeds_hashes(self, smoke_config, tmp_path):
        out = tmp_path / "opt"
        cli.main(["optimize", "-c", str(smoke_config), "-o", str(out)])
        report = json.loads((out / "report.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        beams = json.loads((out / "beams.json").read_text())
        assert report["config_hash"] == manifest["config_hash"]
        assert beams["config_hash"] == manifest["config_hash"]
        assert report["seed"] == SMOKE["seed"]
        assert report["beams_hash"] == manifest["beams_hash"]

    def test_manifest_records_platform(self, smoke_config, tmp_path):
        out = tmp_path / "opt"
        assert cli.main(["optimize", "-c", str(smoke_config), "-o", str(out)]) == 0
        facts = json.loads((out / "manifest.json").read_text())["platform"]
        assert facts["python"] == platform.python_version()
        assert facts["numpy"] == np.__version__
        assert facts["cpu_count"] == os.cpu_count()
        assert facts["blas_name"] and facts["blas_version"]


class TestEvaluateCommand:
    def test_random_baseline(self, smoke_config, tmp_path):
        out = tmp_path / "ev"
        rc = cli.main(
            ["evaluate", "-c", str(smoke_config), "-b", "random", "-o", str(out)]
        )
        assert rc == cli.EXIT_OK
        assert (out / "eval.csv").exists()
        assert (out / "beams_random.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_realizations"] == 2
        assert summary["mean_sum_rate"] > 0

    def test_random_beams_and_their_file_record_one_beams_hash(self, smoke_config, tmp_path):
        rand, again = tmp_path / "rand", tmp_path / "again"
        assert cli.main(["evaluate", "-c", str(smoke_config), "-b", "random", "-o", str(rand)]) == 0
        saved = rand / "beams_random.json"
        rc = cli.main(["evaluate", "-c", str(smoke_config), "-b", str(saved), "-o", str(again)])
        assert rc == cli.EXIT_OK
        hashes = {
            json.loads((out / name).read_text())["beams_hash"]
            for out in (rand, again)
            for name in ("manifest.json", "summary.json")
        }
        assert hashes == {hashlib.sha256(saved.read_bytes()).hexdigest()}

    def test_random_beams_encoded_once_and_file_is_the_hashed_bytes(
        self, smoke_config, tmp_path, monkeypatch
    ):
        calls = []
        original = irs_opt.encode_beams

        def counted(beam_set):
            calls.append(1)
            return original(beam_set)

        monkeypatch.setattr(irs_opt, "encode_beams", counted)
        out = tmp_path / "ev"
        assert cli.main(["evaluate", "-c", str(smoke_config), "-b", "random", "-o", str(out)]) == 0
        assert len(calls) == 1
        digest = hashlib.sha256((out / "beams_random.json").read_bytes()).hexdigest()
        assert json.loads((out / "manifest.json").read_text())["beams_hash"] == digest

    def test_evaluate_optimized_beams(self, smoke_config, tmp_path):
        opt = tmp_path / "opt"
        cli.main(["optimize", "-c", str(smoke_config), "-o", str(opt)])
        out = tmp_path / "ev"
        rc = cli.main(
            ["evaluate", "-c", str(smoke_config), "-b", str(opt / "beams.json"),
             "-o", str(out), "-n", "3"]
        )
        assert rc == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_realizations"] == 3
        assert summary["n_excluded"] == 0

    def test_hash_mismatch_fails_without_force(self, smoke_config, tmp_path, capsys):
        opt = tmp_path / "opt"
        cli.main(["optimize", "-c", str(smoke_config), "-o", str(opt)])
        rc = cli.main(
            ["evaluate", "-c", str(smoke_config), "-b", str(opt / "beams.json"),
             "--override", "seed=9", "-o", str(tmp_path / "ev")]
        )
        assert rc == cli.EXIT_VALIDATION
        assert "--force" in capsys.readouterr().err

    def test_force_overrides_hash_check(self, smoke_config, tmp_path):
        opt = tmp_path / "opt"
        cli.main(["optimize", "-c", str(smoke_config), "-o", str(opt)])
        rc = cli.main(
            ["evaluate", "-c", str(smoke_config), "-b", str(opt / "beams.json"),
             "--override", "seed=9", "--force", "-o", str(tmp_path / "ev")]
        )
        assert rc == cli.EXIT_OK

    def test_missing_beams_file_is_io_error(self, smoke_config, tmp_path):
        rc = cli.main(
            ["evaluate", "-c", str(smoke_config), "-b", str(tmp_path / "nope.json")]
        )
        assert rc == cli.EXIT_IO

    @pytest.mark.parametrize("key, value", MALFORMED_BEAM_EDITS)
    def test_malformed_beams_file_is_io_error(self, smoke_config, tmp_path, capsys, key, value):
        path = write_malformed_beams(tmp_path / "beams.json", key, value)
        rc = cli.main(
            ["evaluate", "-c", str(smoke_config), "-b", str(path), "-n", "1", "--force"]
        )
        assert rc == cli.EXIT_IO
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("text", MALFORMED_BEAM_TEXTS)
    def test_unparsable_beams_file_is_io_error(self, smoke_config, tmp_path, capsys, text):
        path = tmp_path / "beams.json"
        path.write_text(text)
        rc = cli.main(
            ["evaluate", "-c", str(smoke_config), "-b", str(path), "-n", "1", "--force"]
        )
        assert rc == cli.EXIT_IO
        assert "beam-set" in capsys.readouterr().err

    def test_gc_tiles_outside_their_ball_are_io_error(self, tmp_path, capsys):
        tiny = str(Path(__file__).resolve().parents[1] / "bench" / "tiny.yaml")
        opt, lc, rand = tmp_path / "opt", tmp_path / "lc", tmp_path / "rand"
        lc_args = ["--override", "constraint.mode=LC", "--override", "constraint.n_bits=2"]
        assert cli.main(["optimize", "-c", tiny, "-o", str(opt)]) == cli.EXIT_OK
        assert cli.main(["optimize", "-c", tiny, "-o", str(lc), *lc_args]) == cli.EXIT_OK
        rc = cli.main(["evaluate", "-c", tiny, "-b", "random", "-n", "1", "-o", str(rand)])
        assert rc == cli.EXIT_OK
        for path in (opt / "beams.json", lc / "beams.json", rand / "beams_random.json"):
            irs_opt.load_beams(path)
        # Every tile times 10: ||b_k||^2 = 800 against rho_sq = 8, same config hash.
        doc = json.loads((opt / "beams.json").read_text())
        doc["tiles"] = [[[10 * re, 10 * im] for re, im in tile] for tile in doc["tiles"]]
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = cli.main(
            ["evaluate", "-c", tiny, "-b", str(scaled), "-n", "1", "-o", str(tmp_path / "ev")]
        )
        assert rc == cli.EXIT_IO
        assert "tiles" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, smoke_config, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("synthetic blow-up")

        monkeypatch.setattr(cli.metrics, "evaluate_average_sum_rate", boom)
        rc = cli.main(["evaluate", "-c", str(smoke_config), "-b", "random"])
        assert rc == cli.EXIT_NUMERICAL

    def test_default_output_root_env(self, smoke_config, tmp_path, monkeypatch):
        root = tmp_path / "artifacts"
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(root))
        rc = cli.main(["evaluate", "-c", str(smoke_config), "-b", "random"])
        assert rc == cli.EXIT_OK
        dirs = list(root.glob("evaluate-*"))
        assert len(dirs) == 1
        assert (dirs[0] / "summary.json").exists()

    def test_output_root_flag_beats_env(self, smoke_config, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "envroot"))
        flag_root = tmp_path / "flagroot"
        rc = cli.main(
            ["--output-root", str(flag_root), "evaluate", "-c", str(smoke_config),
             "-b", "random"]
        )
        assert rc == cli.EXIT_OK
        assert list(flag_root.glob("evaluate-*"))
        assert not (tmp_path / "envroot").exists()

    def test_paired_realizations_shared_across_beam_sets(self, smoke_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["evaluate", "-c", str(smoke_config), "-b", "random", "-o", str(out_a)])
        opt = tmp_path / "opt"
        cli.main(["optimize", "-c", str(smoke_config), "-o", str(opt)])
        cli.main(
            ["evaluate", "-c", str(smoke_config), "-b", str(opt / "beams.json"),
             "-o", str(out_b)]
        )
        ids_a = [r.split(",")[0] for r in (out_a / "eval.csv").read_text().splitlines()[7:]]
        ids_b = [r.split(",")[0] for r in (out_b / "eval.csv").read_text().splitlines()[7:]]
        assert ids_a == ids_b


class TestArrayFactorCommand:
    def test_profile_files_written(self, smoke_config, tmp_path):
        out = tmp_path / "af"
        rc = cli.main(
            ["array-factor", "-c", str(smoke_config), "-b", "random", "-o", str(out)]
        )
        assert rc == cli.EXIT_OK
        # 1 UE x 2 streams x (1 BS + 1 tile) profiles
        assert len(list(out.glob("af_bs_ue*.csv"))) == 2
        assert len(list(out.glob("af_tile*.csv"))) == 2
        lines = (out / "af_tile0_ue0_s0.csv").read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# config_hash=") for l in comments)
        header_idx = len(comments)
        assert lines[header_idx] == "angle_deg,gain_db"
        assert len(lines) == header_idx + 1 + 720

    def test_gain_column_normalized(self, smoke_config, tmp_path):
        out = tmp_path / "af"
        cli.main(["array-factor", "-c", str(smoke_config), "-b", "random", "-o", str(out)])
        lines = (out / "af_tile0_ue0_s0.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        gains = np.array([float(r[1]) for r in rows])
        assert gains.max() == pytest.approx(0.0, abs=1e-9)
        assert gains.min() >= metrics.DB_FLOOR - 1e-9

    def test_identically_zero_profiles_are_skipped(self, smoke_config, tmp_path):
        # A BS on the panel's wall lights no tile (S_k = 0), so each tile
        # profile is identically zero; the BS profiles are not.
        out = tmp_path / "af"
        rc = cli.main(
            ["array-factor", "-c", str(smoke_config), "-b", "random",
             "--override", "bs.position=[0.0, 3.0, 2.0]", "-o", str(out)]
        )
        assert rc == cli.EXIT_OK
        assert len(list(out.glob("af_bs_ue*.csv"))) == 2
        assert not list(out.glob("af_tile*.csv"))
        assert json.loads((out / "manifest.json").read_text())["skipped_profiles"] == 2


class TestManifestRecord:
    # The array-factor case passes --force, so its record must hold force: true.
    @pytest.mark.parametrize(
        "command",
        [["optimize"], ["evaluate", "-b", "random", "-n", "1"],
         ["array-factor", "-b", "random", "--force"], ["sweep"]],
        ids=lambda command: command[0],
    )
    def test_args_are_the_parsed_namespace(self, smoke_config, tmp_path, command):
        if command == ["sweep"]:
            spec = tmp_path / "sweep.yaml"
            spec.write_text(yaml.safe_dump({
                "base_config": str(smoke_config), "realizations": 1,
                "axes": [{"name": "case", "points": [{"label": "base"}]}],
            }))
            source = ["-s", str(spec)]
        else:
            source = ["-c", str(smoke_config), "--override", "seed=5"]
        out = tmp_path / "out"
        argv = ["--output-root", str(tmp_path / "root"), *command, *source, "-o", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        parsed = vars(cli.build_parser().parse_args(argv))
        assert manifest["command"] == parsed.pop("command")
        del parsed["func"]
        assert manifest["args"] == parsed


class TestNegativeIndexRejected:
    """A negative seed or realization index fails validation before the
    command creates its output directory."""

    @pytest.mark.parametrize(
        "command", [["optimize"], ["evaluate", "-b", "random"], ["array-factor", "-b", "random"]],
        ids=lambda command: command[0],
    )
    def test_negative_seed(self, smoke_config, tmp_path, capsys, command):
        rc = cli.main([*command, "-c", str(smoke_config), "--override", "seed=-1"])
        assert rc == cli.EXIT_VALIDATION
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_negative_array_factor_realization(self, smoke_config, tmp_path, capsys):
        rc = cli.main(
            ["array-factor", "-c", str(smoke_config), "-b", "random", "--realization", "-1"]
        )
        assert rc == cli.EXIT_VALIDATION
        assert "--realization" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


class TestSweepCommand:
    def _write_sweep(self, tmp_path, smoke_config, spec):
        spec = dict(spec, base_config=str(smoke_config))
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(spec))
        return path

    def test_single_point_matches_individual_commands(self, smoke_config, tmp_path):
        spec = self._write_sweep(
            tmp_path, smoke_config,
            {"axes": [{"name": "case", "points": [{"label": "base"}]}], "realizations": 2},
        )
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "-s", str(spec), "-o", str(out)])
        assert rc == cli.EXIT_OK
        opt = tmp_path / "opt"
        cli.main(["optimize", "-c", str(smoke_config), "-o", str(opt)])
        point = out / "point-base"
        assert (point / "beams.json").read_bytes() == (opt / "beams.json").read_bytes()
        ev = tmp_path / "ev"
        cli.main(
            ["evaluate", "-c", str(smoke_config), "-b", str(opt / "beams.json"),
             "-o", str(ev), "-n", "2"]
        )
        assert (point / "eval.csv").read_bytes() == (ev / "eval.csv").read_bytes()

    def test_random_baseline_matches_evaluate_random(self, smoke_config, tmp_path):
        spec = self._write_sweep(
            tmp_path, smoke_config,
            {"axes": [{"name": "case", "points": [{"label": "base"}]}], "realizations": 2,
             "include_random_baseline": True},
        )
        out, ev = tmp_path / "sweep", tmp_path / "ev"
        assert cli.main(["sweep", "-s", str(spec), "-o", str(out)]) == cli.EXIT_OK
        argv = ["evaluate", "-c", str(smoke_config), "-b", "random", "-n", "2", "-o", str(ev)]
        assert cli.main(argv) == cli.EXIT_OK
        point = out / "point-base"
        assert (point / "eval_random.csv").read_bytes() == (ev / "eval.csv").read_bytes()
        assert (point / "summary_random.json").read_bytes() == (ev / "summary.json").read_bytes()
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        (row,) = csv.DictReader(lines[1:])
        mean = json.loads((ev / "summary.json").read_text())["mean_sum_rate"]
        assert row["baseline_mean_sum_rate"] == f"{mean:.12g}"

    def test_point_report_names_beams_hash(self, smoke_config, tmp_path):
        spec = self._write_sweep(
            tmp_path, smoke_config,
            {"axes": [{"name": "case", "points": [{"label": "base"}]}], "realizations": 2},
        )
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "-s", str(spec), "-o", str(out)]) == cli.EXIT_OK
        point = out / "point-base"
        report = json.loads((point / "report.json").read_text())
        digest = hashlib.sha256((point / "beams.json").read_bytes()).hexdigest()
        assert report["beams_hash"] == digest

    def test_constant_area_bookkeeping(self, smoke_config, tmp_path):
        # one 2x2 panel vs two 1x2 panels keeps 4 elements total
        split = [
            {"wall": "west", "center_along": 4.0, "center_height": 1.5, "n_h": 1, "n_v": 2},
            {"wall": "west", "center_along": 8.0, "center_height": 1.5, "n_h": 1, "n_v": 2},
        ]
        spec = self._write_sweep(
            tmp_path, smoke_config,
            {
                "axes": [{"name": "n_irs", "points": [
                    {"label": "one"},
                    {"label": "two", "overrides": {"irs.panels": split}},
                ]}],
                "constant_total_area": True,
                "realizations": 2,
            },
        )
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "-s", str(spec), "-o", str(out)]) == cli.EXIT_OK
        rows = (out / "sweep_summary.csv").read_text().splitlines()
        assert rows[0].startswith("# sweep_hash=")
        assert len(rows) == 4  # hash comment, header, two points

    def test_constant_area_violation_rejected(self, smoke_config, tmp_path, capsys):
        bigger = [
            {"wall": "west", "center_along": 6.0, "center_height": 1.5, "n_h": 4, "n_v": 2}
        ]
        spec = self._write_sweep(
            tmp_path, smoke_config,
            {
                "axes": [{"name": "n_irs", "points": [
                    {"label": "one"},
                    {"label": "big", "overrides": {"irs.panels": bigger}},
                ]}],
                "constant_total_area": True,
            },
        )
        rc = cli.main(["sweep", "-s", str(spec)])
        assert rc == cli.EXIT_VALIDATION
        assert "constant_total_area" in capsys.readouterr().err

    def test_unknown_spec_key_rejected(self, smoke_config, tmp_path):
        spec = self._write_sweep(
            tmp_path, smoke_config,
            {"axes": [{"name": "a", "points": [{"label": "x"}]}], "parallel": True},
        )
        assert cli.main(["sweep", "-s", str(spec)]) == cli.EXIT_VALIDATION

    def test_broken_point_recorded_sweep_continues(self, smoke_config, tmp_path):
        spec = self._write_sweep(
            tmp_path, smoke_config,
            {
                "axes": [{"name": "case", "points": [
                    {"label": "good"},
                    {"label": "bad", "overrides": {"solver.n_samples": 0}},
                ]}],
                "realizations": 2,
            },
        )
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "-s", str(spec), "-o", str(out)])
        assert rc == cli.EXIT_OK
        rows = (out / "sweep_summary.csv").read_text().splitlines()
        body = rows[2:]
        statuses = {r.split(",")[1]: r.split(",")[3] for r in body}
        assert statuses == {"good": "ok", "bad": "failed"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["points"], manifest["failures"]) == (2, 1)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("realizations", 2.5),
            ("realizations", True),
            ("realizations", 0),
            ("realizations", "2"),
            ("include_random_baseline", "false"),
            ("include_random_baseline", 0),
            ("include_random_baseline", None),
            ("constant_total_area", "yes"),
            ("constant_total_area", 1),
        ],
    )
    def test_mistyped_spec_value_names_key(self, smoke_config, tmp_path, capsys, key, value):
        spec = self._write_sweep(
            tmp_path, smoke_config,
            {"axes": [{"name": "a", "points": [{"label": "x"}]}], key: value},
        )
        assert cli.main(["sweep", "-s", str(spec), "-o", str(tmp_path / "sweep")]) == (
            cli.EXIT_VALIDATION
        )
        assert key in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "axis, named",
        [
            ({"name": "a", "points": 3}, "axis 'a': points"),
            ({"name": "a", "points": [{"label": "x", "overrides": [1, 2]}]}, "'x': overrides"),
            ({"name": "a", "points": [{"label": "x", "overrides": "seed=1"}]}, "'x': overrides"),
            ({"name": "a", "points": [{"label": "x/../../escaped"}]}, "'x/../../escaped'"),
            ({"name": "a", "points": [{"label": "x\\y"}]}, "'x\\\\y'"),
            ({"name": "a", "points": [{"label": ".."}]}, "'..'"),
            ({"name": "a", "points": [{"label": "."}]}, "'.'"),
            ({"name": "a", "points": [{"label": ""}]}, "label '' is not"),
        ],
    )
    def test_malformed_axis_names_axis_or_point(self, smoke_config, tmp_path, capsys, axis, named):
        spec = self._write_sweep(tmp_path, smoke_config, {"axes": [axis]})
        assert cli.main(["sweep", "-s", str(spec), "-o", str(tmp_path / "sweep")]) == (
            cli.EXIT_VALIDATION
        )
        assert named in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "axes, named",
        [
            (
                [{"name": "a", "points": [{"label": "x", "overrides": {"seed": 1}},
                                          {"label": "x", "overrides": {"seed": 2}}]}],
                "'x'",
            ),
            (
                [{"name": "a", "points": [{"label": "a-b"}, {"label": "a"}]},
                 {"name": "b", "points": [{"label": "c"}, {"label": "b-c"}]}],
                "'a-b-c'",
            ),
        ],
        ids=["same-axis", "joined-across-axes"],
    )
    def test_repeated_point_label_names_label(self, smoke_config, tmp_path, capsys, axes, named):
        spec = self._write_sweep(tmp_path, smoke_config, {"axes": axes})
        assert cli.main(["sweep", "-s", str(spec), "-o", str(tmp_path / "sweep")]) == (
            cli.EXIT_VALIDATION
        )
        assert named in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            {"realizations": None},
            {"realizations": 1},
            {"include_random_baseline": False, "constant_total_area": True},
        ],
    )
    def test_well_typed_spec_values_load(self, smoke_config, tmp_path, extra):
        spec = self._write_sweep(
            tmp_path, smoke_config, {"axes": [{"name": "a", "points": [{"label": "x"}]}], **extra}
        )
        loaded = cli._load_sweep_spec(str(spec))
        assert {key: loaded[key] for key in extra} == extra

    @pytest.mark.parametrize("base_config", [5, None, ["a.yaml"]])
    def test_non_string_base_config_names_key(self, tmp_path, capsys, base_config):
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(
            {"base_config": base_config, "axes": [{"name": "a", "points": [{"label": "x"}]}]}
        ))
        assert cli.main(["sweep", "-s", str(path), "-o", str(tmp_path / "sweep")]) == (
            cli.EXIT_VALIDATION
        )
        assert "base_config" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_missing_spec_is_io_error(self, tmp_path):
        assert cli.main(["sweep", "-s", str(tmp_path / "nope.yaml")]) == cli.EXIT_IO


class TestBeamResolution:
    def test_random_baseline_matches_initializer(self, smoke_config, tmp_path):
        out = tmp_path / "ev"
        cli.main(["evaluate", "-c", str(smoke_config), "-b", "random", "-o", str(out)])
        saved = irs_opt.load_beams(out / "beams_random.json")
        import irsmimo.scenario as scenario_mod

        cfg = scenario_mod.load_config(smoke_config)
        expect = irs_opt.random_beam_set(cfg)
        assert np.allclose(saved.beams, expect.beams, atol=1e-15)


def test_import_does_not_load_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run(
        [sys.executable, "-c", "import irsmimo.cli, sys; assert 'scipy' not in sys.modules"],
        check=True,
        env=env,
    )
