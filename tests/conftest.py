import copy
import json

import numpy as np
import pytest

from irsmimo import irs_opt, scenario


def crandn(rng, *shape):
    """Unit-variance circularly symmetric complex Gaussian array."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def synthetic_instance(seed, n_s=3, n_u=2, l=2, m=4, k=2, p=6, sigma2=0.7):
    """Random unit-scale channel stack for solver-level tests.

    Physical channels live at ~1e-8 amplitudes where finite differences and
    relative tolerances are dominated by float noise; unit-scale stacks keep
    the same algebra exactly testable.
    """
    rng = np.random.default_rng(seed)
    inst = {
        "hbar": crandn(rng, n_s, n_u, l, m),
        "s": crandn(rng, k, p, m),
        "t": crandn(rng, n_s, n_u, k, l, p),
        "beams": crandn(rng, k, p),
        "v": crandn(rng, n_s, n_u, m, l),
        "sigma2": sigma2,
        "p_budget": np.full(n_u, 5.0),
        "alpha": np.linspace(1.0, 1.5, n_u),
        "rng": rng,
    }
    return inst


TINY_SCENARIO = {
    "room": {"x": 12.0, "y": 12.0},
    "wavelength": 0.06,
    "bs": {"position": [6.0, 11.5, 2.0], "n_y": 4, "n_z": 2},
    "ue": {
        "count": 2,
        "n_antennas": 2,
        "height": 1.0,
        "placement": "UD-0m",
        "nominal_positions": [[1.5, 4.0], [1.5, 8.0]],
    },
    "irs": {
        "panels": [
            {"wall": "west", "center_along": 4.0, "center_height": 1.5, "n_h": 4, "n_v": 4},
            {"wall": "west", "center_along": 8.0, "center_height": 1.5, "n_h": 4, "n_v": 4},
        ],
        "tiles_per_panel": 2,
    },
    "channel": {"n_clusters": 2, "n_paths": 3},
    "solver": {"n_samples": 3, "max_offline_iters": 5},
    "eval": {"n_realizations": 4},
    "seed": 3,
}


def tiny_scenario_dict(**updates):
    """Fast 2-UE scenario (K = 4 tiles of 8 elements); nested dict overrides."""
    data = copy.deepcopy(TINY_SCENARIO)
    for dotted, value in updates.items():
        scenario.apply_overrides(data, {dotted: value})
    return data


# Edits that make an LC beam-set file malformed, as (key, value); DROP
# deletes the key. Loading the file must fail with an IOError naming the key.
DROP = object()
MALFORMED_BEAM_EDITS = [
    pytest.param("tiles", DROP, id="no-tiles"),
    pytest.param("rho_sq", DROP, id="no-rho_sq"),
    pytest.param("mode", DROP, id="no-mode"),
    pytest.param("n_bits", DROP, id="no-n_bits"),
    pytest.param("mode", "XC", id="unknown-mode"),
    pytest.param("n_bits", None, id="null-n_bits"),
    pytest.param("n_bits", 0, id="zero-n_bits"),
    pytest.param("n_bits", 1.5, id="fractional-n_bits"),
    pytest.param("tiles", [[1.0, 2.0]], id="tiles-not-pairs"),
    pytest.param("tiles", "abc", id="string-tiles"),
    pytest.param("tiles", [[[1.0, 0.0]] * 4, [[1.0, 0.0]] * 3], id="ragged-tiles"),
    pytest.param("phase_indices", [[0, 1, 2, 17]], id="index-above-grid"),
    pytest.param("phase_indices", [[0, 1, 2, -1]], id="negative-index"),
    pytest.param("phase_indices", [[0, 1, 2]], id="indices-shorter-than-tiles"),
]


def write_malformed_beams(path, key, value):
    """Save a 2-bit LC beam set of one 4-element tile (the tiling of the CLI
    tests' smoke config), apply one edit, and return the path."""
    beams = irs_opt.lc_grid_point(np.arange(4).reshape(1, 4), 2)
    doc = irs_opt.beam_doc(irs_opt.IrsBeamSet(beams=beams, mode="LC", n_bits=2, rho_sq=1.0))
    if value is DROP:
        del doc[key]
    else:
        doc[key] = value
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def tiny_config():
    return scenario.config_from_dict(tiny_scenario_dict())


@pytest.fixture
def tiny_config_dict():
    return tiny_scenario_dict()
