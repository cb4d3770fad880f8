"""Command-line harness: optimize, evaluate, sweep, array-factor.

Every command materializes its artifacts under one output directory named
from the content hashes of its inputs, together with a manifest that records
every parsed argument, the config hash, seed and tool version. Reruns with identical inputs
rewrite identical numerical artifacts (beam sets, CSVs, summaries); only
timestamps and timing fields differ.

Exit codes: 0 success, 2 validation, 3 numerical failure, 4 I/O failure,
1 unexpected error.
"""

from __future__ import annotations

import argparse
import csv
import datetime as _dt
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import channel as channel_mod
from . import irs_opt, metrics
from . import scenario as scenario_mod
from .numerics import NumericalError
from .scenario import NAMESPACE_EVAL, ConfigError, ScenarioConfig

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

MANIFEST_VERSION = 1
OUTPUT_ROOT_ENV = "IRSMIMO_OUTPUT_ROOT"


def _utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def _parse_overrides(pairs: list[str] | None) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key.path=value")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"override {pair!r} has an empty key path")
        overrides[key] = scenario_mod.load_yaml(raw)
    return overrides


def _load_config(path: str, overrides: dict) -> ScenarioConfig:
    if not Path(path).exists():
        raise IOError(f"config file not found: {path}")
    return scenario_mod.load_config(path, overrides=overrides)


def _resolve_outdir(args, default_name: str) -> Path:
    """-o, else default_name under --output-root, $IRSMIMO_OUTPUT_ROOT or ./runs."""
    root = args.output_root or os.environ.get(OUTPUT_ROOT_ENV) or "runs"
    out = Path(args.outdir) if args.outdir else Path(root) / default_name
    out.mkdir(parents=True, exist_ok=True)
    return out


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _platform_facts() -> dict:
    """The interpreter, numpy and BLAS build and core count a run used."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "cpu_count": os.cpu_count(),
    }


def _write_manifest(outdir: Path, args, cfg_hash: str, seed: int, started: str,
                    beams_hash: str = "", **results) -> None:
    """manifest.json: every parsed argument, the run's identity and platform,
    and the command's results as top-level keys."""
    _write_json(
        outdir / "manifest.json",
        {
            "format_version": MANIFEST_VERSION,
            "command": args.command,
            "config_hash": cfg_hash,
            "seed": seed,
            "output_dir": str(outdir),
            "tool_version": __version__,
            "started_utc": started,
            "finished_utc": _utc_now(),
            "beams_hash": beams_hash,
            "args": {k: v for k, v in vars(args).items() if k not in ("command", "func")},
            "platform": _platform_facts(),
            **results,
        },
    )


def _resolve_beam_set(
    beams_arg: str, cfg: ScenarioConfig, cfg_hash: str, force: bool
) -> tuple[irs_opt.IrsBeamSet, str, bytes | None]:
    """The beam set of -b, its beams_hash, and for -b random the encoded
    file (which evaluate saves as beams_random.json), else None."""
    if beams_arg == "random":
        beam_set = irs_opt.random_beam_set(cfg)
        data, digest = irs_opt.encode_beams(beam_set)
        return beam_set, digest, data
    if not Path(beams_arg).exists():
        raise IOError(f"beam-set file not found: {beams_arg}")
    beam_set = irs_opt.load_beams(beams_arg)
    if beam_set.config_hash and beam_set.config_hash != cfg_hash and not force:
        raise ConfigError(
            "beam set was produced for a different config "
            f"(beam hash {beam_set.config_hash[:12]}, config hash {cfg_hash[:12]}); "
            "pass --force to evaluate anyway"
        )
    if beam_set.beams.shape != (cfg.k_total, cfg.p_per_tile):
        raise ConfigError(
            f"beam-set shape {beam_set.beams.shape} does not match config tiling "
            f"{(cfg.k_total, cfg.p_per_tile)}"
        )
    return beam_set, _file_digest(beams_arg), None


def _write_optimize_artifacts(
    outdir: Path,
    cfg: ScenarioConfig,
    cfg_hash: str,
    beam_set: irs_opt.IrsBeamSet,
    report: irs_opt.OptReport,
) -> str:
    """Write beams.json and report.json for one optimize run; returns the
    SHA-256 of beams.json, which report.json also records."""
    beams_hash = irs_opt.save_beams(outdir / "beams.json", beam_set)
    payload = report.to_dict()
    payload.update({"config_hash": cfg_hash, "seed": cfg.seed, "beams_hash": beams_hash})
    _write_json(outdir / "report.json", payload)
    return beams_hash


# ---------------------------------------------------------------------------
# Commands


def cmd_optimize(args) -> int:
    started = _utc_now()
    cfg = _load_config(args.config, _parse_overrides(args.override))
    cfg_hash = scenario_mod.config_hash(cfg)
    outdir = _resolve_outdir(args, f"optimize-{cfg_hash[:12]}")

    beam_set, report = irs_opt.offline_optimize(cfg)
    beams_hash = _write_optimize_artifacts(outdir, cfg, cfg_hash, beam_set, report)
    _write_manifest(outdir, args, cfg_hash, cfg.seed, started, beams_hash)
    print(f"optimize: {report.iterations} iterations, converged={report.converged}")
    print(f"optimize: wrote {outdir / 'beams.json'}")
    return EXIT_OK


def _evaluate_and_write(
    outdir: Path, cfg: ScenarioConfig, beams: np.ndarray, n_realizations: int | None,
    beams_hash: str, suffix: str = "",
) -> metrics.EvalResult:
    """Evaluate one beam set and write eval{suffix}.csv and summary{suffix}.json."""
    result = metrics.evaluate_average_sum_rate(
        cfg, beams, n_realizations=n_realizations, beams_hash=beams_hash
    )
    metrics.write_eval_csv(outdir / f"eval{suffix}.csv", result)
    metrics.write_summary_json(outdir / f"summary{suffix}.json", result)
    return result


def cmd_evaluate(args) -> int:
    started = _utc_now()
    cfg = _load_config(args.config, _parse_overrides(args.override))
    cfg_hash = scenario_mod.config_hash(cfg)
    beam_set, beams_hash, random_file = _resolve_beam_set(args.beams, cfg, cfg_hash, args.force)
    outdir = _resolve_outdir(args, f"evaluate-{cfg_hash[:12]}-{beams_hash[:12]}")
    if random_file is not None:
        (outdir / "beams_random.json").write_bytes(random_file)

    result = _evaluate_and_write(outdir, cfg, beam_set.beams, args.realizations, beams_hash)
    _write_manifest(outdir, args, cfg_hash, cfg.seed, started, beams_hash)
    print(
        f"evaluate: mean sum-rate {result.mean_sum_rate:.6g} "
        f"± {result.stderr_sum_rate:.3g} bits/s/Hz over "
        f"{len(result.realization_ids)} realizations ({result.n_excluded} excluded)"
    )
    print(f"evaluate: wrote {outdir / 'summary.json'}")
    return EXIT_OK


def cmd_array_factor(args) -> int:
    started = _utc_now()
    cfg = _load_config(args.config, _parse_overrides(args.override))
    cfg_hash = scenario_mod.config_hash(cfg)
    beam_set, beams_hash, _ = _resolve_beam_set(args.beams, cfg, cfg_hash, args.force)
    if args.realization < 0:
        raise ConfigError(f"--realization must be a non-negative integer, got {args.realization}")
    outdir = _resolve_outdir(args, f"array-factor-{cfg_hash[:12]}-{beams_hash[:12]}")

    geometry = scenario_mod.build_antenna_positions(cfg)
    cset = channel_mod.sample_channels(cfg, NAMESPACE_EVAL, [args.realization])
    h = channel_mod.composite_channel(cset.hbar, cset.s, cset.t, beam_set.beams)
    link = metrics.online_solve(cfg, h[0])

    angles = metrics.default_direction_grid()
    meta_base = {
        "config_hash": cfg_hash,
        "beams_hash": beams_hash,
        "seed": cfg.seed,
        "realization": args.realization,
    }
    n_written = n_skipped = 0
    for i, c in itertools.product(range(cfg.ue.count), range(cfg.ue.n_antennas)):
        v_col = link.v[i][:, c]
        patterns = {"bs": metrics.array_factor(geometry.bs, v_col, cfg.wavelength, angles)}
        for k in range(cfg.k_total):
            patterns[f"tile{k}"] = metrics.tile_pattern(
                geometry, cfg, beam_set.beams, v_col, k, cset.s, angles
            )
        for emitter, pattern in patterns.items():
            gain_db = metrics.pattern_db(pattern)
            if gain_db is None:  # no direction to normalize to: no profile
                n_skipped += 1
                continue
            metrics.write_array_factor_csv(
                outdir / f"af_{emitter}_ue{i}_s{c}.csv",
                angles,
                gain_db,
                {**meta_base, "emitter": emitter, "ue": i, "stream": c},
            )
            n_written += 1
    _write_manifest(
        outdir, args, cfg_hash, cfg.seed, started, beams_hash, skipped_profiles=n_skipped
    )
    print(f"array-factor: wrote {n_written} profiles to {outdir} ({n_skipped} identically zero)")
    return EXIT_OK


def _load_sweep_spec(path: str) -> dict:
    if not Path(path).exists():
        raise IOError(f"sweep spec not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        spec = scenario_mod.load_yaml(fh)
    if not isinstance(spec, dict):
        raise ConfigError("sweep spec must be a mapping")
    unknown = set(spec) - {
        "base_config",
        "axes",
        "constant_total_area",
        "include_random_baseline",
        "realizations",
    }
    if unknown:
        raise ConfigError(f"unknown sweep spec keys: {sorted(unknown)}")
    if "base_config" not in spec or "axes" not in spec:
        raise ConfigError("sweep spec needs base_config and axes")
    n_real = scenario_mod._coerce(int | None, spec.get("realizations"), "realizations")
    if n_real is not None and n_real < 1:
        raise ConfigError(f"realizations: expected an integer >= 1 or null, got {n_real!r}")
    for key in ("constant_total_area", "include_random_baseline"):
        if not isinstance(spec.get(key, False), bool):
            raise ConfigError(f"{key}: expected true or false, got {spec[key]!r}")
    axes = spec["axes"]
    if not isinstance(axes, list) or not axes:
        raise ConfigError("sweep axes must be a non-empty list")
    for axis in axes:
        if not isinstance(axis, dict) or "name" not in axis or "points" not in axis:
            raise ConfigError("each sweep axis needs name and points")
        name, points = axis["name"], axis["points"]
        if not isinstance(points, list):
            raise ConfigError(f"axis {name!r}: points must be a list, got {points!r}")
        for point in points:
            if not isinstance(point, dict) or "label" not in point:
                raise ConfigError(f"axis {name!r}: each point needs a label")
            if not isinstance(point.get("overrides") or {}, dict):
                label = point["label"]
                raise ConfigError(f"axis {name!r} point {label!r}: overrides must be a mapping")
    return spec


def _total_elements(cfg: ScenarioConfig) -> int:
    return sum(p.n_h * p.n_v for p in cfg.irs.panels)


def cmd_sweep(args) -> int:
    started = _utc_now()
    spec = _load_sweep_spec(args.spec)
    spec_dir = Path(args.spec).parent
    base_path = spec_dir / spec["base_config"]
    if not base_path.exists():
        base_path = Path(spec["base_config"])
    if not base_path.exists():
        raise IOError(f"sweep base config not found: {spec['base_config']}")
    sweep_hash = _file_digest(args.spec)
    outdir = _resolve_outdir(args, f"sweep-{sweep_hash[:12]}")

    axes = spec["axes"]
    grid = list(itertools.product(*[axis["points"] for axis in axes]))

    # Point configs build leniently: a broken point is recorded and skipped,
    # the rest of the sweep still runs.
    configs = []
    for combo in grid:
        overrides = {}
        for point in combo:
            overrides.update(point.get("overrides") or {})
        label = "-".join(str(point["label"]) for point in combo)
        try:
            configs.append((label, combo, _load_config(str(base_path), overrides), None))
        except ValueError as exc:
            configs.append((label, combo, None, exc))

    # Constant-total-area bookkeeping: every buildable grid point must keep
    # the same total IRS element count (element area is fixed by the cell
    # geometry). A violation invalidates the sweep design itself, not just
    # one point.
    if spec.get("constant_total_area", False):
        totals = {label: _total_elements(cfg) for label, _, cfg, err in configs if err is None}
        if len(set(totals.values())) > 1:
            raise ConfigError(f"constant_total_area violated: element counts {totals}")

    include_baseline = spec.get("include_random_baseline", False)
    n_real = spec.get("realizations")
    rows = []
    for label, combo, cfg, error in configs:
        row = {
            "label": label,
            **{axes[i]["name"]: combo[i]["label"] for i in range(len(axes))},
            "config_hash": "",
            "status": "ok",
            "error": "",
        }
        if cfg is not None:
            point_dir = outdir / f"point-{label}"
            point_dir.mkdir(parents=True, exist_ok=True)
            cfg_hash = scenario_mod.config_hash(cfg)
            row["config_hash"] = cfg_hash[:12]
            try:
                beam_set, report = irs_opt.offline_optimize(cfg)
                beams_hash = _write_optimize_artifacts(point_dir, cfg, cfg_hash, beam_set, report)
                result = _evaluate_and_write(point_dir, cfg, beam_set.beams, n_real, beams_hash)
                row.update(
                    {
                        "mean_sum_rate": f"{result.mean_sum_rate:.12g}",
                        "stderr_sum_rate": f"{result.stderr_sum_rate:.12g}",
                        "mean_eff_rank": f"{result.mean_eff_rank:.12g}",
                        "stderr_eff_rank": f"{result.stderr_eff_rank:.12g}",
                        "n_excluded": result.n_excluded,
                        "opt_iterations": report.iterations,
                    }
                )
                if include_baseline:
                    base_set = irs_opt.random_beam_set(cfg)
                    base_hash = irs_opt.beam_set_digest(base_set)
                    base_result = _evaluate_and_write(
                        point_dir, cfg, base_set.beams, n_real, base_hash, suffix="_random"
                    )
                    row["baseline_mean_sum_rate"] = f"{base_result.mean_sum_rate:.12g}"
                    row["baseline_stderr_sum_rate"] = f"{base_result.stderr_sum_rate:.12g}"
            except (NumericalError, IOError, ValueError) as exc:
                error = exc
        if error is not None:
            row["status"] = "failed"
            row["error"] = str(error).replace("\n", " ")
        rows.append(row)
        print(f"sweep point {label}: {row['status']}")

    columns = ["label"] + [axis["name"] for axis in axes] + [
        "config_hash",
        "status",
        "mean_sum_rate",
        "stderr_sum_rate",
        "mean_eff_rank",
        "stderr_eff_rank",
        "n_excluded",
        "opt_iterations",
    ]
    if include_baseline:
        columns += ["baseline_mean_sum_rate", "baseline_stderr_sum_rate"]
    columns.append("error")
    with open(outdir / "sweep_summary.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# sweep_hash={sweep_hash}\n")
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({col: row.get(col, "") for col in columns})
    failures = sum(row["status"] == "failed" for row in rows)
    _write_manifest(outdir, args, sweep_hash, -1, started, points=len(rows), failures=failures)
    print(f"sweep: {len(rows) - failures}/{len(rows)} points succeeded; wrote {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsmimo",
        description="IRS-assisted MU-MIMO downlink simulation and beam optimization",
    )
    parser.add_argument("--output-root", help=f"artifact root (default ${OUTPUT_ROOT_ENV} or ./runs)")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", required=True, help="scenario config YAML")
    common.add_argument(
        "--override",
        action="append",
        metavar="KEY.PATH=VALUE",
        help="override a config key (repeatable); value parsed as YAML",
    )
    common.add_argument("-o", "--outdir", help="explicit output directory")

    p_opt = sub.add_parser("optimize", parents=[common], help="run the offline beam optimization")
    p_opt.set_defaults(func=cmd_optimize)

    p_eval = sub.add_parser("evaluate", parents=[common], help="evaluate a beam set")
    p_eval.add_argument(
        "-b", "--beams", required=True, help="beam-set JSON file, or 'random' for the NON-OPT baseline"
    )
    p_eval.add_argument("-n", "--realizations", type=int, default=None)
    p_eval.add_argument("--force", action="store_true", help="skip the config-hash check")
    p_eval.set_defaults(func=cmd_evaluate)

    p_af = sub.add_parser("array-factor", parents=[common], help="emit array-factor profiles")
    p_af.add_argument("-b", "--beams", required=True)
    p_af.add_argument("--realization", type=int, default=0)
    p_af.add_argument("--force", action="store_true")
    p_af.set_defaults(func=cmd_array_factor)

    p_sweep = sub.add_parser("sweep", help="run a grid of optimize+evaluate points")
    p_sweep.add_argument("-s", "--spec", required=True, help="sweep spec YAML")
    p_sweep.add_argument("-o", "--outdir", help="explicit output directory")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (IOError, OSError) as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # ConfigError included
        print(f"error (validation): {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - safety net
        print(f"error (unexpected): {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
