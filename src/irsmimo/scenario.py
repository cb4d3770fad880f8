"""Scenario description and seeded random sampling.

Covers the room/array geometry (BS grid, UE linear arrays, wall-mounted IRS
panels with tile partitions), the three UE placement laws (UD, UD-1m, UD-0m),
and the clustered scattering geometry (cluster centers on an ellipse with foci
at the endpoints of a link, path points inside an angular-spread disk).

Every random draw is reproducible from (config.seed, namespace, sample index,
stream id) through numpy SeedSequence spawn keys, so samples can be generated
in any order and evaluation draws are paired across beam sets but independent
of the offline training draws.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import re
import types
from dataclasses import dataclass, field
from typing import Any, ClassVar, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

__all__ = [
    "ConfigError",
    "BeamConstraint",
    "ScenarioConfig",
    "ScenarioSample",
    "ArrayGeometry",
    "load_config",
    "load_yaml",
    "config_from_dict",
    "config_to_dict",
    "apply_overrides",
    "config_hash",
    "build_antenna_positions",
    "ue_element_positions",
    "sample_ue_positions",
    "sample_clusters",
    "draw_sample",
    "NAMESPACE_TRAIN",
    "NAMESPACE_EVAL",
    "NAMESPACE_INIT",
]


class _YamlLoader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """PyYAML's safe loader, on its libyaml parser where PyYAML was built with
    it, else on the pure-Python one, with the YAML 1.2 float resolver: YAML
    1.1 reads an exponent without a decimal point or without a sign (1e-6,
    2E3, 1.0e6) as a string. Integers still resolve as integers."""


_YamlLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)
YAML_LOADER = _YamlLoader

# RNG namespaces: offline training samples, evaluation realizations, beam init.
NAMESPACE_TRAIN = 0
NAMESPACE_EVAL = 1
NAMESPACE_INIT = 2

WALLS = {
    # wall id -> (inward normal, along-wall horizontal axis index). The wall
    # plane lies at 0 on the normal's axis if the normal points up that axis,
    # else at the room's extent along it.
    "west": (np.array([1.0, 0.0, 0.0]), 1),
    "east": (np.array([-1.0, 0.0, 0.0]), 1),
    "south": (np.array([0.0, 1.0, 0.0]), 0),
    "north": (np.array([0.0, -1.0, 0.0]), 0),
}

PLACEMENT_LAWS = ("UD", "UD-1m", "UD-0m")
PROFILES = ("IO", "SM")
CONSTRAINT_MODES = ("GC", "LC")


class ConfigError(ValueError):
    """Configuration validation failure; message names the offending key path."""


@dataclass(frozen=True)
class RoomConfig:
    x: float
    y: float


@dataclass(frozen=True)
class BsConfig:
    position: tuple[float, float, float]
    n_y: int
    n_z: int
    spacing: float = 0.5  # element spacing in multiples of the wavelength


@dataclass(frozen=True)
class UeConfig:
    count: int
    n_antennas: int
    height: float
    placement: str
    spacing: float = 0.5
    nominal_positions: tuple[tuple[float, float], ...] | None = None
    service_area: tuple[float, float, float, float] | None = None  # xmin, xmax, ymin, ymax


@dataclass(frozen=True)
class IrsPanelConfig:
    wall: str
    center_along: float  # along-wall horizontal coordinate of the panel center
    center_height: float
    n_h: int
    n_v: int


@dataclass(frozen=True)
class IrsConfig:
    panels: tuple[IrsPanelConfig, ...]
    tiles_per_panel: int


@dataclass(frozen=True)
class ChannelConfig:
    profile: str = "IO"
    n_clusters: int = 5
    n_paths: int = 10
    eccentricity: float = 0.5
    angle_spread_deg: float = 15.0
    tx_gain_db: float = 3.0
    rx_gain_db: float = 3.0
    pl0_db: float | None = None  # resolved to 20 log10(4 pi / lambda)
    cell_q: float = 0.57
    cell_area: float | None = None  # resolved to lambda^2 / 4
    x_d: float = 0.0


@dataclass(frozen=True)
class BeamConstraint:
    """Analog beam feasible set: norm ball (GC) or quantized unit modulus (LC)."""

    mode: str = "GC"
    n_bits: int | None = None
    rho_sq: float | None = None  # GC ball radius squared; None means P

    def resolved_rho_sq(self, p: int) -> float:
        return float(self.rho_sq) if self.rho_sq is not None else float(p)


@dataclass(frozen=True)
class PowerConfig:
    noise_dbm: float = -97.0
    per_ue_dbm: tuple[float, ...] | float = 0.0


@dataclass(frozen=True)
class SolverConfig:
    n_samples: int = 100
    tol_online: float = 1e-6
    max_online_iters: int = 500
    eps_offline: float | None = None  # resolved to 1e-3 * sqrt(K * P)
    max_offline_iters: int = 200
    # Not a config key: the one tile order, kept in the hash input so that
    # every config hash stays the same, and read by the benchmark's checks.
    tile_order: ClassVar[str] = "sequential"


@dataclass(frozen=True)
class EvalConfig:
    n_realizations: int = 200


@dataclass(frozen=True)
class ScenarioConfig:
    room: RoomConfig
    wavelength: float
    bs: BsConfig
    ue: UeConfig
    irs: IrsConfig
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    constraint: BeamConstraint = field(default_factory=BeamConstraint)
    power: PowerConfig = field(default_factory=PowerConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    weights: tuple[float, ...] | None = None
    seed: int = 0

    # Derived helpers -----------------------------------------------------

    @property
    def n_irs(self) -> int:
        return len(self.irs.panels)

    @property
    def k_total(self) -> int:
        return self.n_irs * self.irs.tiles_per_panel

    @property
    def p_per_tile(self) -> int:
        panel = self.irs.panels[0]
        return (panel.n_h * panel.n_v) // self.irs.tiles_per_panel

    @property
    def m_antennas(self) -> int:
        return self.bs.n_y * self.bs.n_z

    def noise_power_w(self) -> float:
        return 10.0 ** ((self.power.noise_dbm - 30.0) / 10.0)

    def power_budgets_w(self) -> np.ndarray:
        per = self.power.per_ue_dbm
        if isinstance(per, tuple):
            dbm = np.array(per, dtype=float)
        else:
            dbm = np.full(self.ue.count, float(per))
        return 10.0 ** ((dbm - 30.0) / 10.0)

    def alpha(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(self.ue.count)
        return np.array(self.weights, dtype=float)

    def rho_sq(self) -> float:
        return self.constraint.resolved_rho_sq(self.p_per_tile)

    def pl0_db(self) -> float:
        if self.channel.pl0_db is not None:
            return float(self.channel.pl0_db)
        return 20.0 * math.log10(4.0 * math.pi / self.wavelength)

    def cell_area(self) -> float:
        if self.channel.cell_area is not None:
            return float(self.channel.cell_area)
        return self.wavelength**2 / 4.0

    def cell_gain(self) -> float:
        return self.cell_area() * 4.0 * math.pi / self.wavelength**2

    def eps_offline(self) -> float:
        if self.solver.eps_offline is not None:
            return float(self.solver.eps_offline)
        return 1e-3 * math.sqrt(self.k_total * self.p_per_tile)


@dataclass(frozen=True)
class ScenarioSample:
    """One random network draw: UE geometry plus per-link scattering state."""

    index: int
    namespace: int
    ue_centers: np.ndarray  # (N_u, 3)
    ue_elements: np.ndarray  # (N_u, L, 3)
    cluster_centers: np.ndarray  # (N_u, N_c, 3)
    path_points: np.ndarray  # (N_u, N_c, N_p, 3)
    fading: np.ndarray  # (N_u, N_c, N_p) complex, CN(0, 1)
    x_d: np.ndarray  # (N_u,) LOS blockage indicator per link


@dataclass(frozen=True)
class ArrayGeometry:
    """Static element positions: BS grid and IRS tiles (UE arrays are per sample)."""

    bs: np.ndarray  # (M, 3)
    tiles: np.ndarray  # (K, P, 3)
    tile_normals: np.ndarray  # (K, 3)
    tile_panel: np.ndarray  # (K,) panel index per tile


# ---------------------------------------------------------------------------
# Config loading


_SCALARS = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}


@functools.lru_cache(maxsize=None)
def _field_types(cls) -> dict[str, Any]:
    """Each config field's resolved annotation, by field name."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _build_dataclass(cls, data: Any, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping, got {type(data).__name__}")
    prefix = f"{path}." if path else ""
    fields = _field_types(cls)
    unknown = set(data) - set(fields)
    if unknown:
        keys = ", ".join(prefix + k for k in sorted(unknown))
        raise ConfigError(f"unknown configuration key(s): {keys}")
    kwargs = {n: _coerce(tp, data[n], prefix + n) for n, tp in fields.items() if n in data}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def _coerce(tp, value: Any, path: str):
    """Check value against the annotation tp; lists become tuples. A bool is
    never a number, and an int stays an int in a float field. A union sends
    None to None, a list to its tuple member and a scalar to the other."""
    args = get_args(tp)
    if get_origin(tp) in (Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        is_list = isinstance(value, (list, tuple))
        members = [a for a in args if a is not type(None)]
        tp = next((a for a in members if (get_origin(a) is tuple) == is_list), members[0])
        return _coerce(tp, value, path)
    if dataclasses.is_dataclass(tp):
        return _build_dataclass(tp, value, path)
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} entries, got {len(value)}")
        return tuple(_coerce(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    accepted, expected = _SCALARS[tp]
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    return value


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a nested dict; unknown keys are an error."""
    cfg = _build_dataclass(ScenarioConfig, data, "")
    _validate(cfg)
    return cfg


def load_yaml(stream) -> Any:
    """One YAML document from a string or a file, read with `YAML_LOADER`."""
    return yaml.load(stream, Loader=YAML_LOADER)


def load_config(path, overrides: dict[str, Any] | None = None) -> ScenarioConfig:
    """Load a YAML configuration file, apply dotted-path overrides, validate."""
    with open(path, "r", encoding="utf-8") as fh:
        data = load_yaml(fh)
    if data is None:
        raise ConfigError(f"{path}: empty configuration file")
    if overrides:
        apply_overrides(data, overrides)
    return config_from_dict(data)


def apply_overrides(data: dict, overrides: dict[str, Any]) -> dict:
    """Apply {'a.b.c': value} overrides in place; paths must denote mappings."""
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        node = data
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return data


def _validate(cfg: ScenarioConfig) -> None:
    if cfg.room.x <= 0 or cfg.room.y <= 0:
        raise ConfigError("room.x and room.y must be positive")
    if cfg.wavelength <= 0:
        raise ConfigError("wavelength must be positive")
    if cfg.bs.n_y < 1 or cfg.bs.n_z < 1:
        raise ConfigError("bs.n_y and bs.n_z must be at least 1")
    if cfg.bs.spacing <= 0 or cfg.ue.spacing <= 0:
        raise ConfigError("antenna spacing must be positive")
    if cfg.ue.count < 1 or cfg.ue.n_antennas < 1:
        raise ConfigError("ue.count and ue.n_antennas must be at least 1")
    if cfg.ue.placement not in PLACEMENT_LAWS:
        raise ConfigError(
            f"ue.placement must be one of {PLACEMENT_LAWS}, got {cfg.ue.placement!r}"
        )
    if cfg.ue.placement in ("UD-1m", "UD-0m"):
        if cfg.ue.nominal_positions is None or len(cfg.ue.nominal_positions) != cfg.ue.count:
            raise ConfigError(
                "ue.nominal_positions must list one (x, y) entry per UE for UD-1m/UD-0m"
            )
        for i, (x, y) in enumerate(cfg.ue.nominal_positions):
            margin = 0.5 if cfg.ue.placement == "UD-1m" else 0.0
            if not (margin <= x <= cfg.room.x - margin and margin <= y <= cfg.room.y - margin):
                raise ConfigError(f"ue.nominal_positions[{i}] lies outside the room")
    if cfg.ue.service_area is not None:
        xmin, xmax, ymin, ymax = cfg.ue.service_area
        if not (0 <= xmin < xmax <= cfg.room.x and 0 <= ymin < ymax <= cfg.room.y):
            raise ConfigError("ue.service_area must be a non-empty box inside the room")
    if not cfg.irs.panels:
        raise ConfigError("irs.panels must list at least one panel")
    if cfg.irs.tiles_per_panel < 1:
        raise ConfigError("irs.tiles_per_panel must be at least 1")
    first_count = None
    for i, panel in enumerate(cfg.irs.panels):
        if panel.wall not in WALLS:
            raise ConfigError(f"irs.panels[{i}].wall must be one of {tuple(WALLS)}, got {panel.wall!r}")
        if panel.n_h < 1 or panel.n_v < 1:
            raise ConfigError(f"irs.panels[{i}]: n_h and n_v must be at least 1")
        count = panel.n_h * panel.n_v
        if first_count is None:
            first_count = count
        elif count != first_count:
            raise ConfigError("all IRS panels must have the same element count")
        if count % cfg.irs.tiles_per_panel != 0:
            raise ConfigError(
                f"irs.panels[{i}]: element count {count} not divisible by "
                f"tiles_per_panel {cfg.irs.tiles_per_panel}"
            )
        _tile_grid(panel.n_h, panel.n_v, cfg.irs.tiles_per_panel, i)
        wall_len = (cfg.room.x, cfg.room.y)[WALLS[panel.wall][1]]
        half_w = (panel.n_h - 1) / 2.0 * cfg.wavelength / 2.0
        half_h = (panel.n_v - 1) / 2.0 * cfg.wavelength / 2.0
        if not (0 <= panel.center_along - half_w and panel.center_along + half_w <= wall_len):
            raise ConfigError(f"irs.panels[{i}] extends beyond its wall horizontally")
        if panel.center_height - half_h < 0:
            raise ConfigError(f"irs.panels[{i}] extends below the floor")
    if cfg.channel.profile not in PROFILES:
        raise ConfigError(f"channel.profile must be one of {PROFILES}, got {cfg.channel.profile!r}")
    if not (0.0 < cfg.channel.eccentricity < 1.0):
        raise ConfigError("channel.eccentricity must lie in (0, 1)")
    if cfg.channel.n_clusters < 0 or cfg.channel.n_paths < 1:
        raise ConfigError("channel.n_clusters must be >= 0 and channel.n_paths >= 1")
    if cfg.channel.cell_q <= 0:
        raise ConfigError("channel.cell_q must be positive")
    if cfg.constraint.mode not in CONSTRAINT_MODES:
        raise ConfigError(
            f"constraint.mode must be one of {CONSTRAINT_MODES}, got {cfg.constraint.mode!r}"
        )
    if cfg.constraint.mode == "LC":
        if cfg.constraint.n_bits is None or cfg.constraint.n_bits < 1:
            raise ConfigError("constraint.n_bits must be a positive integer for LC mode")
    if cfg.constraint.rho_sq is not None and not cfg.constraint.rho_sq > 0:
        raise ConfigError("constraint.rho_sq must be positive")
    if isinstance(cfg.power.per_ue_dbm, tuple) and len(cfg.power.per_ue_dbm) != cfg.ue.count:
        raise ConfigError("power.per_ue_dbm list length must equal ue.count")
    if cfg.weights is not None:
        if len(cfg.weights) != cfg.ue.count:
            raise ConfigError("weights length must equal ue.count")
        if any(w < 0 for w in cfg.weights) or all(w == 0 for w in cfg.weights):
            raise ConfigError("weights must be non-negative and not all zero")
    if cfg.solver.n_samples < 1 or cfg.solver.max_offline_iters < 1 or cfg.solver.max_online_iters < 1:
        raise ConfigError("solver sample and iteration counts must be at least 1")
    if cfg.eval.n_realizations < 1:
        raise ConfigError("eval.n_realizations must be at least 1")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")
    bx, by, bz = cfg.bs.position
    if not (0 <= bx <= cfg.room.x and 0 <= by <= cfg.room.y and bz >= 0):
        raise ConfigError("bs.position lies outside the room")


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Fully resolved plain-dict form (defaults materialized); hashing input."""
    d = dataclasses.asdict(cfg)
    d["channel"]["pl0_db"] = cfg.pl0_db()
    d["channel"]["cell_area"] = cfg.cell_area()
    d["constraint"]["rho_sq"] = cfg.rho_sq()
    d["solver"]["eps_offline"] = cfg.eps_offline()
    d["solver"]["tile_order"] = cfg.solver.tile_order
    return d


def config_hash(cfg: ScenarioConfig) -> str:
    """SHA-256 over the canonical JSON of the resolved config."""
    payload = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Geometry


def _tile_grid(n_h: int, n_v: int, k_t: int, panel_idx: int = 0) -> tuple[int, int]:
    """Tile-grid factorization (g_h, g_v) with g_h * g_v = K_t dividing the panel grid.

    Among valid factorizations the squarest tile grid (min |g_h - g_v|) is
    chosen, ties toward more horizontal tiles.
    """
    best = None
    for g_h in range(1, k_t + 1):
        if k_t % g_h:
            continue
        g_v = k_t // g_h
        if n_h % g_h or n_v % g_v:
            continue
        key = (abs(g_h - g_v), -g_h)
        if best is None or key < best[0]:
            best = (key, (g_h, g_v))
    if best is None:
        raise ConfigError(
            f"irs.panels[{panel_idx}]: no tile partition of a {n_h}x{n_v} grid into "
            f"{k_t} rectangular tiles"
        )
    return best[1]


def build_antenna_positions(cfg: ScenarioConfig) -> ArrayGeometry:
    """Element positions for the BS grid and every IRS tile.

    The BS is an n_y x n_z grid in the y-z plane centered at bs.position. IRS
    elements sit on their wall plane on a lambda/2 grid centered at the panel
    center, partitioned into contiguous rectangular tiles of P elements.
    """
    lam = cfg.wavelength
    bs_cfg = cfg.bs
    dy = (np.arange(bs_cfg.n_y) - (bs_cfg.n_y - 1) / 2.0) * bs_cfg.spacing * lam
    dz = (np.arange(bs_cfg.n_z) - (bs_cfg.n_z - 1) / 2.0) * bs_cfg.spacing * lam
    base = np.array(bs_cfg.position, dtype=float)
    bs = np.array([base + np.array([0.0, y, z]) for z in dz for y in dy])

    room = (cfg.room.x, cfg.room.y)
    spacing = lam / 2.0
    tiles = []
    for p_idx, panel in enumerate(cfg.irs.panels):
        normal, h_axis = WALLS[panel.wall]
        n_axis = 1 - h_axis
        origin = np.zeros(3)
        origin[h_axis] = panel.center_along
        origin[n_axis] = 0.0 if normal[n_axis] > 0 else room[n_axis]
        origin[2] = panel.center_height
        h_vec = np.zeros(3)
        h_vec[h_axis] = 1.0
        oh = (np.arange(panel.n_h) - (panel.n_h - 1) / 2.0) * spacing
        ov = (np.arange(panel.n_v) - (panel.n_v - 1) / 2.0) * spacing
        grid = origin + oh[:, None] * h_vec + ov[:, None, None] * np.array([0.0, 0.0, 1.0])
        # The (n_v, n_h) grid cut into g_v x g_h tiles of t_v x t_h elements;
        # the tiles, and the elements within each tile, run row by row.
        g_h, g_v = _tile_grid(panel.n_h, panel.n_v, cfg.irs.tiles_per_panel, p_idx)
        t_h, t_v = panel.n_h // g_h, panel.n_v // g_v
        tiles.append(grid.reshape(g_v, t_v, g_h, t_h, 3).swapaxes(1, 2).reshape(-1, t_v * t_h, 3))
    tile_panel = np.repeat(np.arange(cfg.n_irs), cfg.irs.tiles_per_panel)
    return ArrayGeometry(
        bs=bs,
        tiles=np.concatenate(tiles),
        tile_normals=np.array([WALLS[cfg.irs.panels[i].wall][0] for i in tile_panel]),
        tile_panel=tile_panel,
    )


def ue_element_positions(cfg: ScenarioConfig, ue_centers: np.ndarray) -> np.ndarray:
    """UE array elements: L-element horizontal line along y, centered per UE."""
    lam = cfg.wavelength
    offsets = (np.arange(cfg.ue.n_antennas) - (cfg.ue.n_antennas - 1) / 2.0) * cfg.ue.spacing * lam
    elems = np.repeat(ue_centers[:, None, :], cfg.ue.n_antennas, axis=1).astype(float)
    elems[:, :, 1] += offsets[None, :]
    return elems


# ---------------------------------------------------------------------------
# Random sampling


def _stream(cfg: ScenarioConfig, namespace: int, index: int, stream_id: int) -> np.random.Generator:
    seq = np.random.SeedSequence(cfg.seed, spawn_key=(namespace, index, stream_id))
    return np.random.default_rng(seq)


def sample_ue_positions(
    cfg: ScenarioConfig, sample_index: int, namespace: int = NAMESPACE_TRAIN
) -> np.ndarray:
    """Draw the N_u UE center positions for one sample under the placement law."""
    rng = _stream(cfg, namespace, sample_index, 0)
    n = cfg.ue.count
    z = cfg.ue.height
    law = cfg.ue.placement
    if law == "UD":
        if cfg.ue.service_area is not None:
            xmin, xmax, ymin, ymax = cfg.ue.service_area
        else:
            xmin, xmax, ymin, ymax = 0.0, cfg.room.x, 0.0, cfg.room.y
        xy = rng.uniform([xmin, ymin], [xmax, ymax], size=(n, 2))
    elif law == "UD-1m":
        nominal = np.array(cfg.ue.nominal_positions, dtype=float)
        r = 0.5 * np.sqrt(rng.uniform(size=n))
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        xy = nominal + np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
    else:  # UD-0m
        xy = np.array(cfg.ue.nominal_positions, dtype=float)
    return np.column_stack([xy, np.full(n, z)])


def sample_clusters(
    t: np.ndarray, r: np.ndarray, cfg: ScenarioConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster centers and path points for one link.

    Geometry lives in the horizontal plane at the mean of the endpoint
    heights. Centers sit on the ellipse with foci at the projected endpoints
    and sum of focal distances |t - r| / eccentricity, at i.i.d. uniform
    angular parameters on the receiver-facing half. Path points are uniform in
    a disk around each center whose tangent cone at the receiver subtends the
    configured angular spread.
    """
    ecc = cfg.channel.eccentricity
    n_c = cfg.channel.n_clusters
    n_p = cfg.channel.n_paths
    z0 = 0.5 * (t[2] + r[2])
    t2 = np.asarray(t[:2], dtype=float)
    r2 = np.asarray(r[:2], dtype=float)
    f_dist = np.linalg.norm(r2 - t2)
    if f_dist == 0.0:
        raise ValueError("sample_clusters: coincident link endpoints")
    a = f_dist / (2.0 * ecc)
    b = a * math.sqrt(1.0 - ecc**2)
    mid = 0.5 * (t2 + r2)
    u_hat = (r2 - t2) / f_dist
    v_hat = np.array([-u_hat[1], u_hat[0]])

    phi = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=n_c)
    centers2 = mid[None, :] + a * np.cos(phi)[:, None] * u_hat + b * np.sin(phi)[:, None] * v_hat

    half = math.radians(cfg.channel.angle_spread_deg) / 2.0
    dists = np.linalg.norm(centers2 - r2[None, :], axis=1)
    radii = dists * math.sin(half)
    rad = radii[:, None] * np.sqrt(rng.uniform(size=(n_c, n_p)))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(n_c, n_p))
    points2 = centers2[:, None, :] + np.stack(
        [rad * np.cos(ang), rad * np.sin(ang)], axis=-1
    )

    centers = np.concatenate([centers2, np.full((n_c, 1), z0)], axis=1)
    points = np.concatenate([points2, np.full((n_c, n_p, 1), z0)], axis=2)
    return centers, points


def draw_sample(
    cfg: ScenarioConfig, index: int, namespace: int = NAMESPACE_TRAIN
) -> ScenarioSample:
    """Generate one fully reproducible ScenarioSample.

    Stream 0 of (namespace, index) drives UE positions; stream 1 + i drives
    the cluster geometry and fading of the BS-UE link i, so links are
    statistically independent and the draw order is irrelevant.
    """
    ue_centers = sample_ue_positions(cfg, index, namespace)
    ue_elems = ue_element_positions(cfg, ue_centers)
    n_u = cfg.ue.count
    n_c = cfg.channel.n_clusters
    n_p = cfg.channel.n_paths
    bs_pos = np.array(cfg.bs.position, dtype=float)

    centers = np.zeros((n_u, n_c, 3))
    points = np.zeros((n_u, n_c, n_p, 3))
    fading = np.zeros((n_u, n_c, n_p), dtype=complex)
    for i in range(n_u):
        rng = _stream(cfg, namespace, index, 1 + i)
        if n_c > 0:
            centers[i], points[i] = sample_clusters(bs_pos, ue_centers[i], cfg, rng)
            fading[i] = (
                rng.standard_normal((n_c, n_p)) + 1j * rng.standard_normal((n_c, n_p))
            ) / math.sqrt(2.0)
    return ScenarioSample(
        index=index,
        namespace=namespace,
        ue_centers=ue_centers,
        ue_elements=ue_elems,
        cluster_centers=centers,
        path_points=points,
        fading=fading,
        x_d=np.full(n_u, float(cfg.channel.x_d)),
    )
