import copy
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import tiny_scenario_dict
from irsmimo import scenario
from irsmimo.scenario import (
    NAMESPACE_EVAL,
    NAMESPACE_TRAIN,
    ConfigError,
    apply_overrides,
    build_antenna_positions,
    config_from_dict,
    config_hash,
    draw_sample,
    sample_ue_positions,
)


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict(tiny_scenario_dict(bogus=1))

    def test_unknown_nested_key_names_path(self):
        data = tiny_scenario_dict()
        data["solver"]["warp_speed"] = True
        with pytest.raises(ConfigError, match="solver.warp_speed"):
            config_from_dict(data)

    def test_bad_placement_law(self):
        with pytest.raises(ConfigError, match="placement"):
            config_from_dict(tiny_scenario_dict(**{"ue.placement": "GRID"}))

    def test_bad_constraint_mode(self):
        with pytest.raises(ConfigError, match="constraint.mode"):
            config_from_dict(tiny_scenario_dict(**{"constraint.mode": "XX"}))

    def test_lc_requires_bits(self):
        with pytest.raises(ConfigError, match="n_bits"):
            config_from_dict(tiny_scenario_dict(**{"constraint.mode": "LC"}))

    def test_nominals_required_for_exact_placement(self):
        data = tiny_scenario_dict()
        data["ue"]["nominal_positions"] = None
        with pytest.raises(ConfigError, match="nominal"):
            config_from_dict(data)

    def test_panel_must_fit_on_wall(self):
        data = tiny_scenario_dict()
        data["irs"]["panels"][0]["center_along"] = 0.01
        with pytest.raises(ConfigError, match="wall"):
            config_from_dict(data)

    def test_tiles_must_divide_elements(self):
        with pytest.raises(ConfigError, match="divisible"):
            config_from_dict(tiny_scenario_dict(**{"irs.tiles_per_panel": 3}))

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(tiny_scenario_dict(seed=-1))

    def test_eccentricity_range(self):
        with pytest.raises(ConfigError, match="eccentricity"):
            config_from_dict(tiny_scenario_dict(**{"channel.eccentricity": 1.0}))

    def test_nominal_outside_room(self):
        data = tiny_scenario_dict()
        data["ue"]["nominal_positions"] = [[-1.0, 4.0], [1.5, 8.0]]
        with pytest.raises(ConfigError, match="nominal_positions"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "key, overrides",
        [
            ("solver.n_samples", {"solver.n_samples": 2.0}),
            ("solver.max_online_iters", {"solver.max_online_iters": 3.0}),
            ("eval.n_realizations", {"eval.n_realizations": 1.5}),
            ("constraint.n_bits", {"constraint.mode": "LC", "constraint.n_bits": 2.5}),
            ("bs.n_y", {"bs.n_y": True}),
            ("seed", {"seed": "3"}),
        ],
    )
    def test_integer_fields_reject_non_integers(self, key, overrides):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(tiny_scenario_dict(**overrides))

    @pytest.mark.parametrize(
        "key, overrides",
        [
            ("solver.tol_online", {"solver.tol_online": "abc"}),
            ("room.x", {"room.x": True}),
            ("constraint.rho_sq", {"constraint.rho_sq": "abc"}),
            ("solver.eps_offline", {"solver.eps_offline": [1e-3]}),
            ("bs.position[2]", {"bs.position": [6.0, 11.5, "2"]}),
            ("ue.nominal_positions[1][0]", {"ue.nominal_positions": [[1.5, 4.0], [None, 8.0]]}),
            ("weights[1]", {"weights": [1, "x"]}),
            ("power.per_ue_dbm", {"power.per_ue_dbm": "0 dBm"}),
            ("power.per_ue_dbm[0]", {"power.per_ue_dbm": [False, 0.0]}),
        ],
    )
    def test_float_fields_reject_non_numbers(self, key, overrides):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_dict(tiny_scenario_dict(**overrides))

    @pytest.mark.parametrize(
        "key, overrides, message",
        [
            ("bs.position", {"bs.position": 5}, "expected a list, got 5"),
            ("bs.position", {"bs.position": [6.0, 11.5]}, "expected 3 entries, got 2"),
            ("ue.service_area", {"ue.service_area": 3}, "expected a list, got 3"),
            ("ue.nominal_positions[0]", {"ue.nominal_positions": [1.5, 4.0]}, "expected a list"),
            ("weights", {"weights": 3}, "expected a list, got 3"),
            ("weights[1]", {"weights": [1, [2]]}, "expected a number, got [2]"),
        ],
    )
    def test_list_fields_reject_wrong_shapes(self, key, overrides, message):
        with pytest.raises(ConfigError, match=re.escape(f"{key}: {message}")):
            config_from_dict(tiny_scenario_dict(**overrides))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"room.x": 12},
            {"constraint.rho_sq": None},
            {"power.per_ue_dbm": [0, -1.5]},
            {"weights": [1, 2.0]},
        ],
    )
    def test_float_fields_accept_numbers_unconverted(self, overrides):
        cfg = config_from_dict(tiny_scenario_dict(**overrides))
        for dotted, value in overrides.items():
            got = cfg
            for part in dotted.split("."):
                got = getattr(got, part)
            assert repr(got) == repr(tuple(value) if isinstance(value, list) else value)

    def test_optional_integer_accepts_null(self):
        cfg = config_from_dict(tiny_scenario_dict(**{"constraint.n_bits": None}))
        assert cfg.constraint.n_bits is None

    @pytest.mark.parametrize("rho_sq", [-1.0, 0.0])
    def test_rho_sq_must_be_positive(self, rho_sq):
        with pytest.raises(ConfigError, match="rho_sq"):
            config_from_dict(tiny_scenario_dict(**{"constraint.rho_sq": rho_sq}))

    @pytest.mark.parametrize("weights", [[1.0, -1.0], [0.0, 0.0]])
    def test_weights_nonnegative_and_not_all_zero(self, weights):
        with pytest.raises(ConfigError, match="weights"):
            config_from_dict(tiny_scenario_dict(weights=weights))

    def test_one_zero_weight_is_allowed(self):
        assert config_from_dict(tiny_scenario_dict(weights=[0.0, 1.0])).weights == (0.0, 1.0)


def test_apply_overrides_dotted_paths():
    data = {"a": {"b": 1}, "seed": 0}
    apply_overrides(data, {"a.b": 5, "a.c.d": 2, "seed": 9})
    assert data == {"a": {"b": 5, "c": {"d": 2}}, "seed": 9}


def test_config_hash_ignores_key_order_but_sees_values():
    d1 = tiny_scenario_dict()
    d2 = {k: d1[k] for k in reversed(list(d1))}
    assert config_hash(config_from_dict(d1)) == config_hash(config_from_dict(d2))
    d3 = tiny_scenario_dict(seed=4)
    assert config_hash(config_from_dict(d3)) != config_hash(config_from_dict(d1))


def test_config_hash_resolves_defaults():
    # explicitly writing a default must not change the hash
    base = config_from_dict(tiny_scenario_dict())
    spelled = config_from_dict(tiny_scenario_dict(**{"constraint.rho_sq": 8.0}))
    assert base.p_per_tile == 8
    assert config_hash(base) == config_hash(spelled)


class TestGeometry:
    def test_bs_grid(self, tiny_config):
        geo = build_antenna_positions(tiny_config)
        assert geo.bs.shape == (8, 3)
        assert np.allclose(geo.bs.mean(axis=0), [6.0, 11.5, 2.0])
        # 0.5 lambda spacing along y within a row
        assert geo.bs[1, 1] - geo.bs[0, 1] == pytest.approx(0.03)

    def test_tile_partition_counts(self, tiny_config):
        geo = build_antenna_positions(tiny_config)
        assert geo.tiles.shape == (4, 8, 3)
        assert geo.tile_normals.shape == (4, 3)
        assert list(geo.tile_panel) == [0, 0, 1, 1]

    @pytest.mark.parametrize(
        "wall, axis, plane",
        [("west", 0, 0.0), ("east", 0, 12.0), ("south", 1, 0.0), ("north", 1, 12.0)],
        ids=["west", "east", "south", "north"],
    )
    def test_wall_elements_sit_on_plane(self, wall, axis, plane):
        data = tiny_scenario_dict()
        for panel in data["irs"]["panels"]:
            panel["wall"] = wall
        geo = build_antenna_positions(config_from_dict(data))
        assert np.all(geo.tiles[:, :, axis] == plane)
        # A unit step along the normal from each tile's center lands inside
        # the 12 m x 12 m room.
        assert np.allclose(np.linalg.norm(geo.tile_normals, axis=1), 1.0)
        inside = geo.tiles.mean(axis=1)[:, :2] + geo.tile_normals[:, :2]
        assert np.all((inside > 0.0) & (inside < 12.0))

    def test_element_spacing_is_half_wavelength(self, tiny_config):
        geo = build_antenna_positions(tiny_config)
        panel0 = geo.tiles[geo.tile_panel == 0].reshape(-1, 3)
        ys = np.unique(np.round(panel0[:, 1], 9))
        assert np.allclose(np.diff(ys), 0.03)

    def test_large_panel_tiling(self):
        # 80 x 40 panel in 64 tiles -> 10 x 5 element blocks
        data = tiny_scenario_dict()
        data["irs"]["panels"] = [
            {"wall": "west", "center_along": 6.0, "center_height": 2.0, "n_h": 80, "n_v": 40}
        ]
        data["irs"]["tiles_per_panel"] = 64
        cfg = config_from_dict(data)
        assert cfg.p_per_tile == 50
        geo = build_antenna_positions(cfg)
        assert geo.tiles.shape == (64, 50, 3)
        widths = geo.tiles[:, :, 1].max(axis=1) - geo.tiles[:, :, 1].min(axis=1)
        heights = geo.tiles[:, :, 2].max(axis=1) - geo.tiles[:, :, 2].min(axis=1)
        assert np.allclose(widths, 9 * 0.03)
        assert np.allclose(heights, 4 * 0.03)


class TestSampling:
    def test_exact_placement_returns_nominals(self, tiny_config):
        pos = sample_ue_positions(tiny_config, 0)
        assert np.allclose(pos[:, :2], [[1.5, 4.0], [1.5, 8.0]])
        assert np.all(pos[:, 2] == 1.0)

    def test_disk_placement_stays_within_half_meter(self):
        cfg = config_from_dict(tiny_scenario_dict(**{"ue.placement": "UD-1m"}))
        nominal = np.array([[1.5, 4.0], [1.5, 8.0]])
        for idx in range(50):
            pos = sample_ue_positions(cfg, idx)
            dist = np.linalg.norm(pos[:, :2] - nominal, axis=1)
            assert np.all(dist <= 0.5 + 1e-12)

    def test_uniform_placement_respects_service_area(self):
        cfg = config_from_dict(
            tiny_scenario_dict(
                **{"ue.placement": "UD", "ue.service_area": [2.0, 5.0, 3.0, 9.0]}
            )
        )
        for idx in range(50):
            pos = sample_ue_positions(cfg, idx)
            assert np.all((pos[:, 0] >= 2.0) & (pos[:, 0] <= 5.0))
            assert np.all((pos[:, 1] >= 3.0) & (pos[:, 1] <= 9.0))

    def test_draw_sample_is_bit_reproducible(self, tiny_config):
        a = draw_sample(tiny_config, 5, namespace=NAMESPACE_EVAL)
        b = draw_sample(tiny_config, 5, namespace=NAMESPACE_EVAL)
        assert np.array_equal(a.ue_centers, b.ue_centers)
        assert np.array_equal(a.cluster_centers, b.cluster_centers)
        assert np.array_equal(a.path_points, b.path_points)
        assert np.array_equal(a.fading, b.fading)

    def test_namespaces_and_indices_decorrelate_draws(self, tiny_config):
        a = draw_sample(tiny_config, 5, namespace=NAMESPACE_TRAIN)
        b = draw_sample(tiny_config, 5, namespace=NAMESPACE_EVAL)
        c = draw_sample(tiny_config, 6, namespace=NAMESPACE_TRAIN)
        assert not np.array_equal(a.fading, b.fading)
        assert not np.array_equal(a.fading, c.fading)

    def test_train_eval_streams_uncorrelated(self):
        cfg = config_from_dict(
            tiny_scenario_dict(**{"channel.n_clusters": 4, "channel.n_paths": 8})
        )
        train = np.concatenate(
            [draw_sample(cfg, i, NAMESPACE_TRAIN).fading.ravel() for i in range(300)]
        )
        evals = np.concatenate(
            [draw_sample(cfg, i, NAMESPACE_EVAL).fading.ravel() for i in range(300)]
        )
        stacked = np.concatenate([train.real, train.imag])
        other = np.concatenate([evals.real, evals.imag])
        r = np.corrcoef(stacked, other)[0, 1]
        assert abs(r) < 0.01

    def test_fading_is_unit_variance(self, tiny_config):
        fades = np.concatenate(
            [draw_sample(tiny_config, i).fading.ravel() for i in range(200)]
        )
        assert np.mean(np.abs(fades) ** 2) == pytest.approx(1.0, rel=0.05)
        assert abs(np.mean(fades)) < 0.05

    def test_cluster_geometry(self, tiny_config):
        sample = draw_sample(tiny_config, 2)
        bs = np.array(tiny_config.bs.position)
        half = np.radians(tiny_config.channel.angle_spread_deg) / 2.0
        ecc = tiny_config.channel.eccentricity
        for i in range(tiny_config.ue.count):
            ue = sample.ue_centers[i]
            t2, r2 = bs[:2], ue[:2]
            span = np.linalg.norm(r2 - t2) / ecc
            for c in range(tiny_config.channel.n_clusters):
                center = sample.cluster_centers[i, c]
                # center lies on the ellipse with foci at the endpoints
                total = np.linalg.norm(center[:2] - t2) + np.linalg.norm(center[:2] - r2)
                assert total == pytest.approx(span, rel=1e-9)
                # receiver-facing half
                u_hat = (r2 - t2) / np.linalg.norm(r2 - t2)
                assert (center[:2] - 0.5 * (t2 + r2)) @ u_hat > 0
                # height midway between endpoints
                assert center[2] == pytest.approx(0.5 * (bs[2] + ue[2]))
                # paths inside the spread disk around the center
                radius = np.linalg.norm(center[:2] - r2) * np.sin(half)
                d = np.linalg.norm(sample.path_points[i, c][:, :2] - center[:2], axis=1)
                assert np.all(d <= radius + 1e-9)

    def test_no_clusters_supported(self):
        cfg = config_from_dict(tiny_scenario_dict(**{"channel.n_clusters": 0}))
        sample = draw_sample(cfg, 0)
        assert sample.fading.shape == (2, 0, 3)


def test_ue_elements_line_along_y(tiny_config):
    centers = np.array([[2.0, 3.0, 1.0]])
    elems = scenario.ue_element_positions(tiny_config, centers)
    assert elems.shape == (1, 2, 3)
    assert elems[0, 1, 1] - elems[0, 0, 1] == pytest.approx(0.03)
    assert np.allclose(elems[0, :, [0, 2]].T, [[2.0, 1.0], [2.0, 1.0]])


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _scenario_configs(path, loader):
    """Every scenario a file in configs/ describes, read with one loader:
    the file itself, or each grid point of a sweep spec over its base."""
    with open(path, encoding="utf-8") as fh:
        doc = yaml.load(fh, Loader=loader)
    if "base_config" not in doc:
        return doc, [config_from_dict(doc)]
    with open(path.parent / doc["base_config"], encoding="utf-8") as fh:
        base = yaml.load(fh, Loader=loader)
    configs = []
    for combo in itertools.product(*[axis["points"] for axis in doc["axes"]]):
        data = copy.deepcopy(base)
        for point in combo:
            apply_overrides(data, point.get("overrides") or {})
        configs.append(config_from_dict(data))
    return doc, configs


class _PurePythonLoader(yaml.SafeLoader):
    """PyYAML's pure-Python safe loader with the implicit resolvers of
    `scenario.YAML_LOADER`, its YAML 1.2 float resolver included: the same
    resolution rules on the other parser."""

    yaml_implicit_resolvers = {
        key: list(resolvers)
        for key, resolvers in scenario.YAML_LOADER.yaml_implicit_resolvers.items()
    }


def _assert_loaders_agree(path):
    fast_doc, fast = _scenario_configs(path, scenario.YAML_LOADER)
    slow_doc, slow = _scenario_configs(path, _PurePythonLoader)
    assert fast_doc == slow_doc
    assert fast == slow
    assert [config_hash(c) for c in fast] == [config_hash(c) for c in slow]
    return fast


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name)
def test_yaml_loader_agrees_with_pure_python_loader(path):
    _assert_loaders_agree(path)


def test_yaml_loader_agrees_with_pure_python_loader_on_exponent_float(tmp_path):
    path = tmp_path / "desk.yaml"
    text = (CONFIG_DIR / "desk.yaml").read_text(encoding="utf-8")
    path.write_text(text.replace("solver:\n", "solver:\n  tol_online: 1e-6\n"), encoding="utf-8")
    (cfg,) = _assert_loaders_agree(path)
    assert cfg.solver.tol_online == 1e-6


# Every artifact directory name and beams.json carries the config hash, so a
# refactor of the config schema must leave these values unchanged.
PINNED_HASHES = [
    ("desk", "desk.yaml", {}, "e50a6bcc113011f5d930450dd72479d57863aabc3bad1a57d33c59ba266c8d8c"),
    (
        "desk-lc2",
        "desk.yaml",
        {"constraint.mode": "LC", "constraint.n_bits": 2},
        "f27fa7130a6911d4a290577a56dced388d1932424d66f2a80a73ed086f33277d",
    ),
    ("tiny", None, {}, "77985ed23fff085068f8d21fcbce0b34a5782ef79383359d5d53409c88ae1730"),
]


@pytest.mark.parametrize(
    "name, filename, overrides, expected", PINNED_HASHES, ids=[p[0] for p in PINNED_HASHES]
)
def test_config_hash_is_pinned(name, filename, overrides, expected):
    if filename is None:
        cfg = config_from_dict(tiny_scenario_dict(**overrides))
    else:
        cfg = scenario.load_config(CONFIG_DIR / filename, overrides=overrides)
    assert config_hash(cfg) == expected, (
        f"config hash of {name} changed: a config-schema change renames every artifact "
        "directory and changes the config_hash of every beams.json, so CHANGES.md must state it"
    )


def test_yaml_loader_uses_libyaml_where_built():
    expect = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert scenario.YAML_LOADER.__bases__ == (expect,)


@pytest.mark.parametrize(
    "text, value", [("1e-6", 1e-6), ("-2E+3", -2000.0), ("1.0e6", 1e6), (".5e2", 50.0), ("2.5", 2.5)]
)
def test_yaml_reads_exponent_floats_as_floats(text, value):
    loaded = scenario.load_yaml(text)
    assert type(loaded) is float and loaded == value


@pytest.mark.parametrize("text, value", [("7", 7), ("-3", -3), ("0", 0), ("1_000", 1000)])
def test_yaml_integers_stay_integers(text, value):
    loaded = scenario.load_yaml(text)
    assert type(loaded) is int and loaded == value


@pytest.mark.parametrize("text", ["1e", "e5", "1e-", "1.2.3e4"])
def test_yaml_non_numbers_stay_strings(text):
    assert scenario.load_yaml(text) == text


def test_yaml_float_resolver_leaves_pyyaml_loaders_unchanged():
    assert yaml.load("1e-6", Loader=yaml.SafeLoader) == "1e-6"
    if yaml.__with_libyaml__:
        assert yaml.load("1e-6", Loader=yaml.CSafeLoader) == "1e-6"
