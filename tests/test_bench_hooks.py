"""The program names that the benchmark harness wraps exist and are called
the way it counts them.

`bench/tracing.py` and `bench/hostspeed.py` rebind module attributes of
irsmimo from outside the package. A renamed or bypassed name would not make
the benchmark fail: it would count zero work. These tests pin the hooks.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from irsmimo import irs_opt, metrics

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    """bench/tracing.py, loaded by path (it imports only the standard library)."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_frozen_sum_rate_called_once_per_offline_iteration(tiny_config, monkeypatch):
    calls = []
    original = irs_opt.frozen_sum_rate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(irs_opt, "frozen_sum_rate", counted)
    _, report = irs_opt.offline_optimize(tiny_config)
    assert report.iterations > 0
    assert len(calls) == report.iterations
