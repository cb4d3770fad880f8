"""Benchmark of the irsmimo simulator: offline beam optimization and online evaluation.

    python3 bench/run.py --workload offline-gc --seed 7 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 7

Run from the root of a checkout. Each workload runs in its own Python
process (`bench/workload.py`) that imports irsmimo from the checkout's `src/`
and calls `irsmimo.cli.main` in-process; artifacts go under `.bench_out/`.
Before the workload process, two set-up probes time the import and config
set-up in fresh processes; `setup_s` is the median of those and the
workload's own set-up. Both timing metrics are restated at the reference
host speed of `bench/hostspeed.py`; the figures as measured are printed
beside them.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced round. Earlier lines name the machine and list every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workload import CONFIG, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC_FILE = HERE.parent / "BENCHMARK.json"
OUTPUT_ROOT = Path(".bench_out")
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0  # a single-workload run ends within this, or fails


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, so a run names the code it measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def _python(args: list[str], env: dict, timeout: float, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "workload.py"), *args], env=env,
                          timeout=max(timeout, 1.0), check=True, **kwargs)


def run_workload(name: str, args, env: dict, deadline: float) -> dict:
    """Set-up probes, then the workload process; returns its result document."""
    common = ["--workload", name, "--seed", str(args.seed)]
    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            done = _python([*common, "--setup-only"], env, deadline - time.monotonic(),
                           capture_output=True, text=True)
            probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    out = OUTPUT_ROOT / f"{name}-seed{args.seed}-trace{args.trace}"
    _python([*common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)],
            env, deadline - time.monotonic(), stdout=sys.stderr)
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    result["setup_probes_s"] = probes
    return result


def labelled(values: dict, listed: list[dict]) -> dict:
    """Attach the units BENCHMARK.json gives; the names must match exactly."""
    if set(values) != {m["name"] for m in listed}:
        raise ValueError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def end_to_end(result: dict, spec: dict) -> dict:
    setups = [hostspeed.scaled(s, c) for s, c in result["setup_probes_s"] + [result["setup"]]]
    return labelled({
        "setup_s": statistics.median(setups),
        "solver_iters_per_s": result["solver_iters_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }, spec["end_to_end"])


def per_layer(result: dict, spec: dict) -> dict:
    return labelled(result["layers"], spec["per_layer"])


def describe(name: str, seed: int, result: dict, metrics: dict) -> None:
    rounds = result["rounds"]
    print(f"workload {name} seed {seed}: {len(rounds)} round(s), "
          f"command wall time {sum(r['seconds'] for r in rounds):.3f} s, "
          f"{sum(sum(r['command_iterations']) for r in rounds)} solver iterations, "
          f"sum-rate {result['sum_rate_bps_hz']:.6g} bits/s/Hz, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for err in result["errors"]:
        print(f"  CHECK FAILED: {err}")
    if "setup_probes_s" in result and result["setup_probes_s"]:
        setups = [s for s, _ in result["setup_probes_s"] + [result["setup"]]]
        print(f"  as measured: set-up {statistics.median(setups):.4f} s, "
              f"{result['solver_iters_per_s_raw']:.4g} solver iterations/s "
              f"(host kernel reference {hostspeed.REFERENCE_S * 1e3:g} ms)")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    missing = [p for p in ("src/irsmimo/__init__.py", CONFIG) if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of an irsmimo checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    results = {}
    try:
        for name in names:
            deadline = (start + RUN_LIMIT_S) if len(names) == 1 else (time.monotonic() + RUN_LIMIT_S)
            results[name] = run_workload(name, args, env, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: workload run failed: {exc}", file=sys.stderr)
        return 1

    facts = next(iter(results.values()))["facts"]
    facts.update(commit=git_commit(root), src_sha256=source_digest(root))
    print("machine: " + json.dumps(facts, sort_keys=True))
    combined = {}
    for name, result in results.items():
        metrics = per_layer(result, spec) if args.trace else end_to_end(result, spec)
        describe(name, args.seed, result, metrics)
        prefix = f"{name}." if len(results) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
