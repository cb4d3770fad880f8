"""One benchmark workload, run in a process of its own by `bench/run.py`.

    python3 bench/workload.py --workload offline-gc --seed 7 --seconds 10 --trace 0 --out DIR
    python3 bench/workload.py --workload offline-gc --seed 7 --setup-only

The process first times the set-up: importing irsmimo, loading and
validating the config, building the geometry and the BS-IRS channels. It
then runs whole rounds of the workload's irsmimo commands in-process through
`irsmimo.cli.main` until --seconds have passed, checks the artifacts of the
first round and requires every later round to rewrite them byte for byte.
Host-speed samples (`bench/hostspeed.py`) are taken between commands and
between offline iterations. With --trace 1 it runs one untraced round
without samples and one traced round instead, and compares their artifacts.
The result goes to DIR/result.json.

Only the standard library is imported at module level, so the set-up time
includes the import of numpy and scipy through irsmimo.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import hostspeed

CONFIG = "configs/desk.yaml"

# A round runs the command once per program seed; the program seeds of
# --seed n are n * seeds_per_round + j, j = 0 .. seeds_per_round - 1. A run
# makes at least min_rounds rounds and goes on until --seconds have passed.
WORKLOADS = {
    "offline-gc": {"command": "optimize", "overrides": {}, "seeds_per_round": 1,
                   "min_rounds": 1},
    "offline-lc": {"command": "optimize",
                   "overrides": {"constraint.mode": "LC", "constraint.n_bits": 2},
                   "seeds_per_round": 1, "min_rounds": 1},
    "online-eval": {"command": "evaluate", "overrides": {}, "seeds_per_round": 20,
                    "realizations": 1, "min_rounds": 3},
}

# Artifacts a rerun must reproduce; report.json may differ in these fields only.
NUMERIC_ARTIFACTS = ("beams.json", "report.json", "beams_random.json", "eval.csv", "summary.json")
TIMING_FIELDS = ("seconds_per_iteration",)


class WorkloadError(RuntimeError):
    """A command failed or the program under test is not the checkout's."""


def program_seeds(spec: dict, seed: int) -> list[int]:
    k = spec["seeds_per_round"]
    return [seed * k + j for j in range(k)]


def overrides_for(spec: dict, seed: int) -> dict:
    return {"seed": seed, **spec["overrides"]}


def command_argv(spec: dict, seed: int, output_root: Path) -> list[str]:
    argv = ["--output-root", str(output_root), spec["command"], "-c", CONFIG]
    for key, value in overrides_for(spec, seed).items():
        argv += ["--override", f"{key}={value}"]
    if spec["command"] == "evaluate":
        argv += ["-b", "random", "-n", str(spec["realizations"])]
    return argv


def timed_setup(spec: dict, seed: int) -> float:
    t0 = time.perf_counter()
    import irsmimo.cli  # noqa: F401  (imports every layer)
    from irsmimo import channel, scenario

    cfg = scenario.load_config(CONFIG, overrides=overrides_for(spec, seed))
    geometry = scenario.build_antenna_positions(cfg)
    channel.bs_irs_channels(geometry, cfg)
    elapsed = time.perf_counter() - t0

    import irsmimo

    src = (Path.cwd() / "src").resolve()
    if src not in Path(irsmimo.__file__).resolve().parents:
        raise WorkloadError(f"irsmimo was imported from {irsmimo.__file__}, not from {src}")
    return elapsed


def run_round(spec: dict, seeds: list[int], root: Path, main,
              calibrations: list | None = None) -> tuple[list[float], list[Path]]:
    """Run the workload's command once per program seed; returns the wall
    time of each command and its output directory. With `calibrations`,
    a host-speed sample is appended before each command and after the last."""
    from checks import command_dir

    seconds, outdirs = [], []
    for seed in seeds:
        output_root = root / f"seed-{seed}"
        shutil.rmtree(output_root, ignore_errors=True)
        argv = command_argv(spec, seed, output_root)
        if calibrations is not None:
            calibrations.append(hostspeed.sample_s())
        with contextlib.redirect_stdout(sys.stderr):
            t0 = time.perf_counter()
            code = main(argv)
            seconds.append(time.perf_counter() - t0)
        if code != 0:
            raise WorkloadError(f"irsmimo {' '.join(argv)} exited with code {code}")
        outdirs.append(command_dir(output_root))
    if calibrations is not None:
        calibrations.append(hostspeed.sample_s())
    return seconds, outdirs


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def compare_artifacts(first: list[Path], second: list[Path]) -> list[str]:
    """Numeric artifacts must match byte for byte, report.json apart from its
    timing fields."""
    errors = []
    for a, b in zip(first, second):
        for name in NUMERIC_ARTIFACTS:
            fa, fb = a / name, b / name
            if not fa.exists() and not fb.exists():
                continue
            if not (fa.exists() and fb.exists()):
                errors.append(f"rerun: {name} exists in only one of {a} and {b}")
            elif name == "report.json":
                da, db = _load_json(fa), _load_json(fb)
                for key in TIMING_FIELDS:
                    da.pop(key, None)
                    db.pop(key, None)
                if da != db:
                    errors.append(f"rerun: {name} differs between {a} and {b}")
            elif fa.read_bytes() != fb.read_bytes():
                errors.append(f"rerun: {name} differs between {a} and {b}")
    return errors


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(np),
    }


def _blas_threads(np) -> str:
    """Thread count the bundled OpenBLAS reports, or the environment setting."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.argtypes, fn.restype = [], ctypes.c_int
            return str(fn())
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return json.dumps(env) if env else "unknown"


def solver_iters_per_s(rounds: list[dict]) -> tuple[float, float]:
    """Solver iterations per second: (as measured, at the reference host speed).

    Each piece of work is timed between two host-speed samples and restated
    with the faster of them (`hostspeed.scaled`). Offline, a piece is one
    BCD iteration, and the figure is 1 / (5th percentile of the per-iteration
    seconds). Online, a piece is one evaluate command; every round repeats
    the same commands, each keeps its fastest round, and the figure is the
    round's WMMSE iterations over the sum of those times.
    """
    from tracing import percentile

    if "iteration_marks" in rounds[0]:
        work, restated = [], []
        for r in rounds:
            marks = r["iteration_marks"]
            for (_, end, c0), (start, _, c1) in zip(marks, marks[1:]):
                work.append(start - end)
                restated.append(hostspeed.scaled(start - end, min(c0, c1)))
        return 1.0 / percentile(work, 5), 1.0 / percentile(restated, 5)

    def fastest(times):
        return sum(min(per_round) for per_round in zip(*times))

    measured = [r["command_seconds"] for r in rounds]
    restated = [[hostspeed.scaled(t, min(r["calibration_s"][j:j + 2]))
                 for j, t in enumerate(r["command_seconds"])] for r in rounds]
    iterations = sum(rounds[0]["command_iterations"])
    return iterations / fastest(measured), iterations / fastest(restated)


def run(args) -> dict:
    spec = WORKLOADS[args.workload]
    seeds = program_seeds(spec, args.seed)
    setup = [timed_setup(spec, seeds[0]), hostspeed.sample_s()]

    import checks
    import tracing
    import irsmimo.cli
    from irsmimo import scenario

    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    evaluate = spec["command"] == "evaluate"

    def round_record(seconds: list[float], outdirs: list[Path], iterations: list[int],
                     calibrations: list[float], marks: list) -> dict:
        rec = {"seconds": sum(seconds), "command_seconds": seconds}
        if evaluate:
            per = spec["realizations"]
            summaries = [_load_json(d / "summary.json") for d in outdirs]
            rec.update(calibration_s=calibrations, attempted=len(seeds) * per,
                       failed=sum(int(s["n_excluded"]) for s in summaries),
                       command_iterations=[sum(iterations[j:j + per])
                                           for j in range(0, len(iterations), per)])
        else:
            reports = [_load_json(d / "report.json") for d in outdirs]
            rec.update(iteration_marks=marks, attempted=len(seeds), failed=0,
                       command_iterations=[r["iterations"] for r in reports])
        return rec

    # Host-speed samples go between evaluate commands and between offline
    # iterations; the traced run leaves them out so that its untraced round
    # is the plain program.
    calibrate = not args.trace
    rounds, errors = [], []
    t_start = time.perf_counter()
    while True:
        iterations: list[int] = []
        calibrations: list[float] = []
        marks: list = []
        hook = (hostspeed.iteration_calibration(marks) if calibrate and not evaluate
                else contextlib.nullcontext())
        with tracing.wmmse_iteration_counter(iterations), hook:
            seconds, outdirs = run_round(spec, seeds, out / f"round-{len(rounds)}",
                                         irsmimo.cli.main,
                                         calibrations if calibrate and evaluate else None)
        rounds.append(round_record(seconds, outdirs, iterations, calibrations, marks))
        if len(rounds) == 1:
            first = outdirs
            for seed, outdir in zip(seeds, outdirs):
                cfg = scenario.load_config(CONFIG, overrides=overrides_for(spec, seed))
                if evaluate:
                    errors += checks.check_evaluate(outdir, cfg, spec["realizations"])[0]
                else:
                    errors += checks.check_optimize(outdir, cfg)
        else:
            errors += compare_artifacts(first, outdirs)
            shutil.rmtree(out / f"round-{len(rounds) - 1}", ignore_errors=True)
        if args.trace or (len(rounds) >= spec["min_rounds"]
                          and time.perf_counter() - t_start >= args.seconds):
            break

    result = {"setup": setup, "facts": machine_facts()}
    if calibrate:
        result["solver_iters_per_s_raw"], result["solver_iters_per_s"] = solver_iters_per_s(rounds)
    if evaluate:
        result["sum_rate_bps_hz"] = tracing.mean_sum_rate(
            [_load_json(d / "summary.json") for d in first])
    else:
        result["sum_rate_bps_hz"] = _load_json(first[0] / "report.json")["sum_rate_history"][-1]

    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            seconds, traced = run_round(spec, seeds, out / "traced",
                                        tracer.wrap(irsmimo.cli.main, tracing.ROOT_SPAN))
        rounds.append(round_record(seconds, traced, [], [], []))
        errors += compare_artifacts(first, traced)
        reports = [_load_json(d / "report.json") for d in traced if (d / "report.json").exists()]
        untraced_reports = [_load_json(d / "report.json") for d in first
                            if (d / "report.json").exists()]
        summaries = [_load_json(d / "summary.json") for d in traced if (d / "summary.json").exists()]
        result["layers"] = tracing.layer_metrics(tracer, reports, untraced_reports, summaries,
                                                 rounds[0]["seconds"], rounds[-1]["seconds"])
        tracer.write(out / "trace.jsonl")

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["rounds"] = rounds
    result["errors"] = errors
    result["correct"] = not errors
    result["attempted"] = sum(r["attempted"] for r in rounds)
    result["failed"] = sum(r["failed"] for r in rounds)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="run directory (required unless --setup-only)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up, print the seconds and exit")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.setup_only:
        print(json.dumps([timed_setup(spec, program_seeds(spec, args.seed)[0]),
                          hostspeed.sample_s()]))
        return 0
    if not args.out:
        parser.error("--out is required")
    result = run(args)
    Path(args.out, "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
