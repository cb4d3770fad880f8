"""Self-test of the benchmark on the tiny scenario (`bench/tiny.yaml`).

    python3 bench/selftest.py

Run from the root of a checkout; takes a few seconds. Every correctness
check must pass on real output of `irsmimo optimize` (GC and LC) and
`irsmimo evaluate -b random`, and must reject a copy corrupted so that
exactly its property breaks. The traced rerun must reproduce the untraced
artifacts, the artifact comparison must reject an edited copy, and the
metric names the benchmark prints must be the ones BENCHMARK.json lists.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from irsmimo import cli, scenario  # noqa: E402
from workload import compare_artifacts  # noqa: E402

TINY = "bench/tiny.yaml"
OUT = Path(".bench_out/selftest")
LC = {"constraint.mode": "LC", "constraint.n_bits": 2}
N_REAL = 4


def run_cli(root: Path, command: str, overrides: dict, *extra: str, main=cli.main) -> Path:
    argv = ["--output-root", str(root), command, "-c", TINY]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={value}"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, *extra])
    if code != 0:
        raise SystemExit(f"selftest: irsmimo {' '.join(argv)} exited with {code}")
    return checks.command_dir(root)


def corrupted(src: Path, name: str) -> Path:
    dst = src.parent.parent / f"{src.parent.name}-{name}" / src.name
    shutil.rmtree(dst.parent, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    fn(doc)
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def edit_csv_row(path: Path, fn) -> None:
    """Apply fn to the first data row of eval.csv, keeping the comment lines."""
    text = path.read_text(encoding="utf-8").splitlines(keepends=True)
    comments = [line for line in text if line.startswith("#")]
    rows = list(csv.DictReader([line for line in text if not line.startswith("#")]))
    fn(rows[0])
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    path.write_text("".join(comments) + buf.getvalue(), encoding="utf-8")


def set_rates(row: dict, rates) -> None:
    for i, r in enumerate(rates):
        row[f"rate_ue{i}"] = f"{r:.12g}"
    row["sum_rate"] = f"{sum(float(row[f'rate_ue{i}']) for i in range(len(rates))):.12g}"


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    failures: list[str] = []
    passed = 0

    def expect(label: str, errors: list[str], tag: str | None) -> None:
        nonlocal passed
        if tag is None and errors:
            failures.append(f"{label}: real output rejected: {errors}")
        elif tag is not None and not any(e.startswith(tag) for e in errors):
            failures.append(f"{label}: corruption not caught by '{tag}' (errors: {errors})")
        else:
            passed += 1

    gc_cfg = scenario.load_config(TINY)
    lc_cfg = scenario.load_config(TINY, overrides=LC)
    gc_dir = run_cli(OUT / "gc", "optimize", {})
    lc_dir = run_cli(OUT / "lc", "optimize", LC)
    ev_dir = run_cli(OUT / "eval", "evaluate", {}, "-b", "random", "-n", str(N_REAL))

    expect("optimize GC", checks.check_optimize(gc_dir, gc_cfg), None)
    expect("optimize LC", checks.check_optimize(lc_dir, lc_cfg), None)
    expect("evaluate", checks.check_evaluate(ev_dir, gc_cfg, N_REAL)[0], None)

    def outside_ball(doc):
        doc["tiles"][0] = [[re * 1.01, im * 1.01] for re, im in doc["tiles"][0]]

    bad = corrupted(gc_dir, "ball")
    edit_json(bad / "beams.json", outside_ball)
    expect("GC tile outside the ball", checks.check_optimize(bad, gc_cfg), "gc_ball")

    bad = corrupted(gc_dir, "ascent")
    edit_json(bad / "report.json",
              lambda d: d["objective_history"].__setitem__(-1, d["objective_history"][-2] + 1.0))
    expect("GC objective rises", checks.check_optimize(bad, gc_cfg), "descent")

    def rate_above_bound(doc):
        doc["sum_rate_history"][-1] = 1e3

    bad = corrupted(gc_dir, "rate")
    edit_json(bad / "report.json", rate_above_bound)
    expect("training rate above capacity", checks.check_optimize(bad, gc_cfg), "capacity")

    def off_grid(doc):
        z = complex(*doc["tiles"][1][2]) * np.exp(0.1j)
        doc["tiles"][1][2] = [z.real, z.imag]

    bad = corrupted(lc_dir, "grid")
    edit_json(bad / "beams.json", off_grid)
    expect("LC phase off the grid", checks.check_optimize(bad, lc_cfg), "lc_grid")

    bad = corrupted(lc_dir, "modulus")
    edit_json(bad / "beams.json",
              lambda d: d["tiles"][0].__setitem__(0, [x * 0.9 for x in d["tiles"][0][0]]))
    expect("LC entry off the unit circle", checks.check_optimize(bad, lc_cfg), "lc_modulus")

    bad = corrupted(lc_dir, "indices")
    edit_json(bad / "beams.json",
              lambda d: d["phase_indices"][0].__setitem__(0, (d["phase_indices"][0][0] + 1) % 4))
    expect("LC phase_indices disagree", checks.check_optimize(bad, lc_cfg), "lc_grid")

    bad = corrupted(lc_dir, "rate")
    edit_json(bad / "report.json", rate_above_bound)
    expect("LC training rate above capacity", checks.check_optimize(bad, lc_cfg), "capacity")

    bad = corrupted(ev_dir, "rowsum")
    edit_csv_row(bad / "eval.csv", lambda r: r.update(sum_rate=f"{float(r['sum_rate']) + 0.5:.12g}"))
    expect("sum_rate != row sum", checks.check_evaluate(bad, gc_cfg, N_REAL)[0], "row_sum")

    bad = corrupted(ev_dir, "rank")
    edit_csv_row(bad / "eval.csv", lambda r: r.update(eff_rank_ue0="2.5"))
    expect("effective rank above min(L, M)", checks.check_evaluate(bad, gc_cfg, N_REAL)[0], "rank")

    bad = corrupted(ev_dir, "mean")
    edit_json(bad / "summary.json", lambda d: d.update(mean_sum_rate=d["mean_sum_rate"] + 0.1))
    expect("summary mean != row mean", checks.check_evaluate(bad, gc_cfg, N_REAL)[0], "mean")

    bad = corrupted(ev_dir, "capacity")
    edit_csv_row(bad / "eval.csv", lambda r: set_rates(r, [1e3, 1e3]))
    expect("eval rate above capacity", checks.check_evaluate(bad, gc_cfg, N_REAL)[0], "capacity")

    bad = corrupted(ev_dir, "start")
    edit_csv_row(bad / "eval.csv", lambda r: set_rates(r, [1e-3, 1e-3]))
    expect("eval rate below the SVD start", checks.check_evaluate(bad, gc_cfg, N_REAL)[0],
           "wmmse_start")

    # Traced rerun: same artifacts, every per-layer metric, names as listed.
    def confirm(label: str, ok: bool, detail="") -> None:
        nonlocal passed
        if ok:
            passed += 1
        else:
            failures.append(f"{label} {detail}")

    originals = [getattr(sys.modules[m], a) for m, a, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_main = tracer.wrap(cli.main, tracing.ROOT_SPAN)
        traced = [run_cli(OUT / "gc-traced", "optimize", {}, main=traced_main),
                  run_cli(OUT / "eval-traced", "evaluate", {}, "-b", "random", "-n", str(N_REAL),
                          main=traced_main)]
    confirm("tracer restores every wrapped name",
            originals == [getattr(sys.modules[m], a) for m, a, _ in tracing.TARGETS])
    expect("traced rerun reproduces artifacts", compare_artifacts([gc_dir, ev_dir], traced), None)
    bad = corrupted(ev_dir, "rerun")
    edit_csv_row(bad / "eval.csv", lambda r: r.update(eff_rank_ue1="1.5"))
    expect("rerun comparison catches an edit", compare_artifacts([ev_dir], [bad]), "rerun")

    reports = [json.loads((traced[0] / "report.json").read_text(encoding="utf-8"))]
    summaries = [json.loads((traced[1] / "summary.json").read_text(encoding="utf-8"))]
    layers = tracing.layer_metrics(tracer, reports, reports, summaries, 1.0, 1.0)
    confirm("per-layer counts match the artifacts",
            layers["irs_opt.iterations"] == reports[0]["iterations"]
            and layers["wmmse.online_wmmse.calls"] == N_REAL
            and layers["scenario.draw_sample.calls"] == gc_cfg.solver.n_samples + N_REAL, layers)

    import run

    spec = json.loads(run.SPEC_FILE.read_text(encoding="utf-8"))
    for label, build in (("per-layer", lambda: run.per_layer({"layers": layers}, spec)),
                         ("end-to-end", lambda: run.end_to_end(
                             {"setup_probes_s": [[1.0, 0.004]], "setup": [1.0, 0.004],
                              "solver_iters_per_s": 1.0, "peak_rss_mb": 1.0}, spec))):
        try:
            build()
            passed += 1
        except ValueError as exc:
            failures.append(f"{label} metric names: {exc}")

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {passed} checks passed, {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
