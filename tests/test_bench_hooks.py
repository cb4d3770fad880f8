"""The program names that the benchmark harness wraps exist and are called
the way it counts them, and the benchmark's artifact checks accept real output.

`bench/tracing.py` and `bench/hostspeed.py` rebind module attributes of
irsmimo from outside the package. A renamed or bypassed name would not make
the benchmark fail: it would count zero work. These tests pin the hooks.
`bench/checks.py` reads config and channel names of irsmimo
(`cfg.solver.tile_order`, `cfg.rho_sq()`, `build_channel_set(..., s=)` and
`ChannelSet.hbar/.s/.t`); running it here keeps those names in Tier-1.
`bench/selftest.py`, the checks of those checks, runs here as a whole.
"""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from irsmimo import channel, cli, irs_opt, metrics, scenario

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "bench"
LC = {"constraint.mode": "LC", "constraint.n_bits": 2}


def _load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    """bench/tracing.py, loaded by path (it imports only the standard library)."""
    return _load_by_path("bench_tracing", BENCH_DIR / "tracing.py")


@pytest.fixture(scope="module")
def checks():
    """bench/checks.py, loaded by path (it imports numpy and irsmimo)."""
    return _load_by_path("bench_checks", BENCH_DIR / "checks.py")


@pytest.fixture
def tiny_yaml(tiny_config_dict, tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(tiny_config_dict))
    return path


def _cli_output(checks, root: Path, config: Path, command: str, overrides: dict, *extra):
    """Run one irsmimo command under root and return its output directory."""
    argv = ["--output-root", str(root), command, "-c", str(config)]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={value}"]
    assert cli.main([*argv, *extra]) == cli.EXIT_OK
    return checks.command_dir(root)


def test_every_traced_target_exists_and_is_callable(tracing):
    assert tracing.TARGETS
    for module_name, attr, _ in tracing.TARGETS:
        assert module_name.split(".")[0] == "irsmimo"
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_online_solver_called_once_per_realization(tiny_config, tracing, monkeypatch):
    beams = irs_opt.random_beam_set(tiny_config).beams
    # The benchmark's own counter, which appends int(link.iterations) per call.
    with tracing.wmmse_iteration_counter([]) as sink:
        result = metrics.evaluate_average_sum_rate(tiny_config, beams, n_realizations=3)
    assert result.n_excluded == 0
    assert sink == list(result.iterations)

    calls = []
    original = metrics.online_wmmse

    def counted(*args, **kwargs):
        link = original(*args, **kwargs)
        calls.append(int(link.iterations))
        return link

    monkeypatch.setattr(metrics, "online_wmmse", counted)
    metrics.evaluate_average_sum_rate(tiny_config, beams, n_realizations=3)
    assert calls == sink
    assert len(calls) == 3


def test_one_draw_and_synthesis_per_sample_and_realization(tiny_config, monkeypatch):
    # The traced benchmark counts `scenario.draw_sample` and
    # `channel.build_channel_set` calls through these module names.
    calls = []
    draw, build = scenario.draw_sample, channel.build_channel_set

    def counted_draw(cfg, index, namespace=scenario.NAMESPACE_TRAIN):
        calls.append(("draw", namespace, index))
        return draw(cfg, index, namespace=namespace)

    def counted_build(*args, **kwargs):
        calls.append(("build",))
        return build(*args, **kwargs)

    monkeypatch.setattr(scenario, "draw_sample", counted_draw)
    monkeypatch.setattr(channel, "build_channel_set", counted_build)
    irs_opt.offline_optimize(tiny_config)
    n_samples = tiny_config.solver.n_samples
    assert [c for c in calls if c[0] == "draw"] == [
        ("draw", scenario.NAMESPACE_TRAIN, n) for n in range(n_samples)
    ]
    assert len(calls) == 2 * n_samples

    calls.clear()
    beams = irs_opt.random_beam_set(tiny_config).beams
    metrics.evaluate_average_sum_rate(tiny_config, beams, n_realizations=3)
    assert [c for c in calls if c[0] == "draw"] == [
        ("draw", scenario.NAMESPACE_EVAL, n) for n in range(3)
    ]
    assert len(calls) == 6


@pytest.mark.parametrize("overrides", [{}, LC], ids=["GC", "LC2"])
def test_frozen_sum_rate_called_once_per_offline_iteration(tiny_config_dict, monkeypatch, overrides):
    # LC projects its final beams through `_mean_sum_rate`, not the hooked name,
    # so it adds no call.
    cfg = scenario.config_from_dict(scenario.apply_overrides(tiny_config_dict, overrides))
    calls = []
    original = irs_opt.frozen_sum_rate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(irs_opt, "frozen_sum_rate", counted)
    _, report = irs_opt.offline_optimize(cfg)
    assert report.iterations > 0
    assert len(calls) == report.iterations


@pytest.mark.parametrize("overrides", [{}, LC], ids=["GC", "LC2"])
def test_every_tile_update_reaches_the_counted_names(tiny_config_dict, monkeypatch, overrides):
    # The traced benchmark counts `irs_opt.update_b` and the mu searches
    # through `irs_opt.power_constrained_solve`: one beam update per tile and
    # iteration, and one search per beam update.
    cfg = scenario.config_from_dict(scenario.apply_overrides(tiny_config_dict, overrides))
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    for name in ("update_b", "power_constrained_solve"):
        monkeypatch.setattr(irs_opt, name, counting(name, getattr(irs_opt, name)))
    _, report = irs_opt.offline_optimize(cfg)
    assert report.iterations > 0
    assert calls.count("update_b") == cfg.k_total * report.iterations
    assert calls.count("power_constrained_solve") == calls.count("update_b")


@pytest.mark.parametrize("overrides", [{}, LC], ids=["GC", "LC2"])
def test_benchmark_checks_accept_optimize_output(checks, tiny_yaml, tmp_path, overrides):
    outdir = _cli_output(checks, tmp_path / "opt", tiny_yaml, "optimize", overrides)
    cfg = scenario.load_config(tiny_yaml, overrides=overrides)
    assert checks.check_optimize(outdir, cfg) == []


def test_benchmark_checks_accept_evaluate_output(checks, tiny_yaml, tmp_path):
    outdir = _cli_output(
        checks, tmp_path / "eval", tiny_yaml, "evaluate", {}, "-b", "random", "-n", "4"
    )
    errors, n_excluded = checks.check_evaluate(outdir, scenario.load_config(tiny_yaml), 4)
    assert errors == []
    assert n_excluded == 0


def test_benchmark_selftest_passes():
    """`python bench/selftest.py`, run from the root of the checkout as its
    docstring says, passes every check."""
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"\b0 failed\b", proc.stdout), proc.stdout
