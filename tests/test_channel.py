import math

import numpy as np
import pytest

from irsmimo import channel as ch
from irsmimo.scenario import (
    NAMESPACE_EVAL,
    build_antenna_positions,
    config_from_dict,
    draw_sample,
)
from conftest import tiny_scenario_dict


@pytest.fixture
def geo(tiny_config):
    return build_antenna_positions(tiny_config)


class TestPathloss:
    def test_indoor_office_at_10m(self):
        # -PL0 - 10 * 3.83 * log10(10) = -PL0 - 38.3
        assert ch.pathloss_nlos_db(10.0, "IO", 35.0) == pytest.approx(-73.3)

    def test_shopping_mall_at_10m(self):
        assert ch.pathloss_nlos_db(10.0, "SM", 30.0) == pytest.approx(-62.1)

    def test_reference_distance_gives_minus_pl0(self):
        assert ch.pathloss_nlos_db(1.0, "IO", 41.2) == pytest.approx(-41.2)

    def test_subreference_clamps_and_counts(self):
        val = ch.pathloss_nlos_db(0.2, "IO", 35.0)
        assert val == ch.pathloss_nlos_db(1.0, "IO", 35.0)

    def test_vectorized(self):
        out = ch.pathloss_nlos_db(np.array([1.0, 10.0, 100.0]), "SM", 30.0)
        assert np.allclose(out, [-30.0, -62.1, -94.2])

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="profile"):
            ch.pathloss_nlos_db(5.0, "OUTDOOR", 30.0)


class TestCellPattern:
    def test_boresight_is_unity(self):
        assert ch.cell_pattern(0.0, 0.57) == pytest.approx(1.0)

    def test_grazing_and_beyond_are_zero(self):
        assert ch.cell_pattern(np.pi / 2, 0.57) == 0.0
        assert ch.cell_pattern(2.5, 0.57) == 0.0

    def test_cosine_law_inside(self):
        theta = 0.7
        assert ch.cell_pattern(theta, 0.57) == pytest.approx(math.cos(theta) ** 0.57)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ch.cell_pattern(-0.2, 0.57)
        with pytest.raises(ValueError):
            ch.cell_pattern(3.5, 0.57)


class TestDirectChannel:
    def test_shape(self, tiny_config, geo):
        sample = draw_sample(tiny_config, 0)
        h = ch.direct_channel(sample, geo, tiny_config)
        assert h.shape == (2, 2, 8)

    def test_los_term_hand_computed(self, tiny_config, geo):
        # strip scattering, force the blockage indicator on
        data = tiny_scenario_dict(**{"channel.n_clusters": 0, "channel.x_d": 1})
        cfg = config_from_dict(data)
        sample = draw_sample(cfg, 0)
        assert np.all(sample.x_d == 1.0)
        h = ch.direct_channel(sample, geo, cfg)
        lam = cfg.wavelength
        g = 10.0 ** (cfg.channel.tx_gain_db / 10.0) * 10.0 ** (cfg.channel.rx_gain_db / 10.0)
        d = np.linalg.norm(sample.ue_elements[0][0] - geo.bs[3])
        expect = math.sqrt(g) * lam / (4 * np.pi * d) * np.exp(-2j * np.pi * d / lam)
        assert h[0, 0, 3] == pytest.approx(expect, rel=1e-12)

    def test_blocked_los_without_clusters_is_zero(self, geo):
        cfg = config_from_dict(tiny_scenario_dict(**{"channel.n_clusters": 0}))
        assert cfg.channel.x_d == 0
        sample = draw_sample(cfg, 0)
        h = ch.direct_channel(sample, geo, cfg)
        assert np.all(h == 0.0)

    def test_nlos_term_matches_loop_oracle(self, tiny_config, geo):
        sample = draw_sample(tiny_config, 1)
        h = ch.direct_channel(sample, geo, tiny_config)
        cfg = tiny_config
        lam = cfg.wavelength
        n_c, n_p = cfg.channel.n_clusters, cfg.channel.n_paths
        i, n, m = 1, 0, 5
        d_center = np.linalg.norm(np.array(cfg.bs.position) - sample.ue_centers[i])
        beta = 10.0 ** (ch.pathloss_nlos_db(d_center, cfg.channel.profile, cfg.pl0_db()) / 20.0)
        acc = 0.0
        for q in range(n_c):
            for p in range(n_p):
                pt = sample.path_points[i, q, p]
                dd = np.linalg.norm(pt - geo.bs[m]) + np.linalg.norm(
                    pt - sample.ue_elements[i][n]
                )
                acc += sample.fading[i, q, p] * np.exp(-2j * np.pi * dd / lam)
        assert h[i, n, m] == pytest.approx(beta / (n_p * n_c) * acc, rel=1e-10)


def loop_irs_links(sample, geo, cfg):
    """S and T from one `_los_link` call per tile and per (user, tile): the
    reference for the broadcast stacks."""
    gt = 10.0 ** (cfg.channel.tx_gain_db / 10.0)
    gr = 10.0 ** (cfg.channel.rx_gain_db / 10.0)
    k_tiles = len(geo.tiles)
    s = np.array(
        [ch._los_link(geo.tiles[k], geo.tile_normals[k], geo.bs, gt, cfg) for k in range(k_tiles)]
    )
    t = np.array(
        [
            [
                ch._los_link(geo.tiles[k], geo.tile_normals[k], sample.ue_elements[i], gr, cfg).T
                for k in range(k_tiles)
            ]
            for i in range(cfg.ue.count)
        ]
    )
    return s, t


class TestIrsLinks:
    def test_shapes(self, tiny_config, geo):
        s = ch.bs_irs_channels(geo, tiny_config)
        assert s.shape == (4, 8, 8)
        sample = draw_sample(tiny_config, 0)
        t = ch.build_channel_set(sample, geo, tiny_config, s=s).t[1, 2]
        assert t.shape == (2, 8)

    @pytest.mark.parametrize("index", [0, 3, 9])
    def test_stacks_equal_per_tile_loop(self, index):
        # Panels on two walls, so the tiles do not share one normal.
        data = tiny_scenario_dict()
        data["irs"]["panels"][1] = {
            "wall": "south", "center_along": 6.0, "center_height": 1.5, "n_h": 4, "n_v": 4
        }
        cfg = config_from_dict(data)
        geo = build_antenna_positions(cfg)
        assert len({tuple(n) for n in geo.tile_normals}) == 2
        sample = draw_sample(cfg, index)
        cs = ch.build_channel_set(sample, geo, cfg, s=ch.bs_irs_channels(geo, cfg))
        s_ref, t_ref = loop_irs_links(sample, geo, cfg)
        assert np.array_equal(cs.s, s_ref)
        assert np.array_equal(cs.t, t_ref)

    def test_irs_ue_entry_hand_computed(self, tiny_config, geo):
        sample = draw_sample(tiny_config, 0)
        s = ch.bs_irs_channels(geo, tiny_config)
        t = ch.build_channel_set(sample, geo, tiny_config, s=s).t
        lam = tiny_config.wavelength
        gr = 10.0 ** (tiny_config.channel.rx_gain_db / 10.0)
        gc = tiny_config.cell_gain()
        i, k, n, p = 1, 2, 1, 5
        vec = sample.ue_elements[i][n] - geo.tiles[k, p]
        d = np.linalg.norm(vec)
        theta = math.acos(vec @ geo.tile_normals[k] / d)
        f = math.cos(theta) ** tiny_config.channel.cell_q
        expect = math.sqrt(gr * gc * f) * lam / (4 * np.pi * d) * np.exp(-2j * np.pi * d / lam)
        assert expect != 0.0
        assert t[i, k, n, p] == pytest.approx(expect, rel=1e-12)

    def test_bs_irs_entry_hand_computed(self, tiny_config, geo):
        s = ch.bs_irs_channels(geo, tiny_config)[0]
        lam = tiny_config.wavelength
        gt = 10.0 ** (tiny_config.channel.tx_gain_db / 10.0)
        gc = tiny_config.cell_gain()
        p, m = 2, 4
        vec = geo.bs[m] - geo.tiles[0, p]
        d = np.linalg.norm(vec)
        theta = math.acos(vec @ geo.tile_normals[0] / d)
        f = math.cos(theta) ** tiny_config.channel.cell_q
        expect = math.sqrt(gt * gc * f) * lam / (4 * np.pi * d) * np.exp(-2j * np.pi * d / lam)
        assert s[p, m] == pytest.approx(expect, rel=1e-12)

    def test_behind_wall_is_dark(self, tiny_config, geo):
        # a point behind the west wall sees a zero pattern
        behind = np.array([[-1.0, 6.0, 1.5]])
        block = ch._los_link(geo.tiles[0], geo.tile_normals[0], behind, 1.0, tiny_config)
        assert np.all(block == 0.0)

    def test_irs_links_deterministic_across_samples(self, tiny_config, geo):
        s0 = ch.bs_irs_channels(geo, tiny_config)
        s1 = ch.bs_irs_channels(geo, tiny_config)
        assert np.array_equal(s0, s1)


class TestChannelSet:
    def test_composite_matches_loop(self, tiny_config, geo):
        sample = draw_sample(tiny_config, 3)
        s = ch.bs_irs_channels(geo, tiny_config)
        cs = ch.build_channel_set(sample, geo, tiny_config, s=s)
        rng = np.random.default_rng(0)
        beams = np.exp(2j * np.pi * rng.random(cs.s.shape[:2]))
        h = ch.composite_channel(cs.hbar, cs.s, cs.t, beams)
        for i in range(tiny_config.ue.count):
            acc = cs.hbar[i].copy()
            for k in range(cs.s.shape[0]):
                acc += cs.t[i, k] @ np.diag(beams[k]) @ cs.s[k]
            assert np.allclose(h[i], acc, rtol=1e-12, atol=0)

    def test_composite_rejects_wrong_beam_shape(self, tiny_config, geo):
        s = ch.bs_irs_channels(geo, tiny_config)
        cs = ch.build_channel_set(draw_sample(tiny_config, 0), geo, tiny_config, s=s)
        with pytest.raises(ValueError, match="beam"):
            ch.composite_channel(cs.hbar, cs.s, cs.t, np.ones((3, 8)))

    def test_precomputed_s_reused(self, tiny_config, geo):
        s = ch.bs_irs_channels(geo, tiny_config)
        cs = ch.build_channel_set(draw_sample(tiny_config, 0), geo, tiny_config, s=s)
        assert cs.s is s

    def test_sample_channels_stacks_per_index_sets(self, tiny_config, geo):
        indices = [3, 0, 2]
        stack = ch.sample_channels(tiny_config, NAMESPACE_EVAL, indices)
        assert stack.hbar.shape[0] == stack.t.shape[0] == len(indices)
        # one S for the whole stack, not one per draw
        s = ch.bs_irs_channels(geo, tiny_config)
        assert np.array_equal(stack.s, s)
        for pos, idx in enumerate(indices):
            sample = draw_sample(tiny_config, idx, namespace=NAMESPACE_EVAL)
            one = ch.build_channel_set(sample, geo, tiny_config, s=s)
            assert np.array_equal(stack.hbar[pos], one.hbar)
            assert np.array_equal(stack.t[pos], one.t)
