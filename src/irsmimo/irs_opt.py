"""Offline statistical-CSI optimization of the IRS analog beams.

The offline problem minimizes the Monte-Carlo average of the weighted MSE
objective over frozen random network draws, by block coordinate descent over
the per-sample digital variables (G, W, V) and the shared per-tile analog
beam vectors b_m. The digital step runs the WMMSE block updates of `wmmse`
on the whole sample stack at once. Viewed as a function of one tile's beam with everything
else fixed, the per-sample weighted MSE is an exact quadratic

    f(b_m) = b_m^H M_m b_m - 2 Re(u_m^H b_m) + const,

with M_m assembled from a Hadamard product of Hermitian PSD factors and u_m
from diagonal extraction of the desired-signal and cross-interference terms.
Averaging (M_m, u_m) over the frozen samples and solving the norm-ball
trust-region problem per tile yields the beam update.

Tile updates run sequentially (the cross-tile coupling inside u_m is
refreshed after each tile), which makes every block update an exact
minimizer and the frozen-sample objective monotonically non-increasing.
G, W and V are fixed through a sweep (the block structure of WMMSE in Shi,
Razaviyayn, Luo & He, IEEE TSP 2011), so the factors A = G^H T_m and
X = alpha W G^H T_m of all K tiles are formed once per sweep, as two
products over the tile-folded T (`_tile_factors`). `_tile_statistics`
reads views of those factors, forms C_m^T with one GEMM, and stacks the
face-splitting (row-wise Khatri-Rao) products K_m = A_m * C_m^T and
Z_m = X_m * C_m^T of all samples, with the users folded into the rows.
Over that stack the sample mean of M_m is the one GEMM K_m^H Z_m / N_s,
u_m is one GEMV, and the coupling refresh after a tile update is the GEMV
K_m (b_new - b_m). The factor and face-splitting stacks live in one
`_tile_workspace`, allocated once per run and overwritten by every sweep
and tile call. Allocated per call, these megabyte stacks went back to the
operating system when freed (glibc trims the heap top), so every tile call
faulted them in again as zeroed pages.

Each iteration ends with the next iteration's receivers G and weights W at
the new beams. By rate-MMSE duality (Christensen et al., IEEE TWC 2008)
log det W_i is user i's rate there, so `frozen_sum_rate` reads the
training rate from W without forming the rates again.

Every composite channel, on the sample stack or at perturbed beams, comes
from `channel.composite_channel`, the kernel evaluation uses too.

The discrete-phase (LC) constraint is met through its GC relaxation: the
loop runs on the ball ||b_k||^2 <= P, which holds the unit-modulus set, and
the final beams are projected to the phase grid once, the continuous
solution quantized once as in Wu & Zhang, "Beamforming Optimization for
Wireless Network Aided by Intelligent Reflecting Surface with Discrete Phase
Shifts" (IEEE TCOM 2020). A projection inside the loop is not a descent
step, and it made the LC results depend on last-bit rounding.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import channel as channel_mod
from . import scenario as scenario_mod
from . import wmmse
from .numerics import (
    NumericalError,
    check_finite,
    herm,
    logdet_hpd,
    power_constrained_solve,
)
from .scenario import NAMESPACE_INIT, NAMESPACE_TRAIN, BeamConstraint, ScenarioConfig

__all__ = [
    "IrsBeamSet",
    "OptReport",
    "lc_grid_point",
    "quantize_lc",
    "initial_beams",
    "random_beam_set",
    "update_b",
    "offline_optimize",
    "offline_optimize_channels",
    "frozen_sum_rate",
    "save_beams",
    "load_beams",
    "beam_doc",
    "encode_beams",
    "beam_set_digest",
    "gc_violation",
]

BEAMS_FORMAT_VERSION = 1

# Largest ||b_k||^2 - rho_sq that the offline loop and a loaded GC beam set
# may show (rounding of the boundary solutions).
GC_SLACK = 1e-9


@dataclass
class IrsBeamSet:
    """The K analog beam vectors with their constraint-mode metadata."""

    beams: np.ndarray  # (K, P)
    mode: str
    n_bits: int | None
    rho_sq: float
    config_hash: str = ""

    def phase_indices(self) -> np.ndarray | None:
        """Integer grid indices for LC beams (None in GC mode)."""
        if self.mode != "LC":
            return None
        return quantize_lc(self.beams, self.n_bits)[1]


@dataclass
class OptReport:
    """Convergence record of one offline run."""

    iterations: int = 0
    delta_history: list[float] = field(default_factory=list)
    objective_history: list[float] = field(default_factory=list)
    sum_rate_history: list[float] = field(default_factory=list)
    seconds_per_iteration: list[float] = field(default_factory=list)
    converged: bool = False
    eps: float = 0.0
    max_gc_violation: float = 0.0
    # LC only: the training rate (bits/s/Hz) at the returned grid beams; the
    # histories above belong to the GC relaxation the loop runs on.
    projected_sum_rate: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Constraint handling


def lc_grid_point(indices, n_bits: int) -> np.ndarray:
    """Canonical materialization of LC grid phases exp(2j pi l / 2^n_bits).

    Every LC beam entry in the package flows through this function, so grid
    membership is testable by bit equality.
    """
    return np.exp(2j * np.pi * np.asarray(indices) / float(2**n_bits))


def quantize_lc(b: np.ndarray, n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Project entries to unit modulus with phases on the nearest grid point."""
    n = 2**n_bits
    idx = np.mod(np.round(np.angle(b) * n / (2.0 * np.pi)).astype(int), n)
    return lc_grid_point(idx, n_bits), idx


def gc_violation(beams: np.ndarray, rho_sq: float) -> float:
    """Largest per-tile norm excess max_k (||b_k||^2 - rho_sq)."""
    return float(np.max(np.sum(np.abs(beams) ** 2, axis=-1) - rho_sq))


def initial_beams(
    k: int, p: int, constraint: BeamConstraint, rng: np.random.Generator
) -> np.ndarray:
    """Unit-modulus beams with i.i.d. uniform phases, projected to the active
    constraint. This is also the NON-OPT baseline (uncontrolled scatterers)."""
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(k, p))
    b = np.exp(1j * phases)
    if constraint.mode == "LC":
        b, _ = quantize_lc(b, constraint.n_bits)
    else:
        rho_sq = constraint.resolved_rho_sq(p)
        norms_sq = np.sum(np.abs(b) ** 2, axis=1, keepdims=True)
        scale = np.minimum(1.0, np.sqrt(rho_sq / norms_sq))
        b = b * scale
    return b


def random_beam_set(cfg: ScenarioConfig) -> IrsBeamSet:
    """The NON-OPT baseline of a config: `initial_beams` drawn from the
    initialization stream of cfg.seed under the config's beam constraint.
    In GC mode it is also the starting point of the offline optimizer."""
    rng = scenario_mod._stream(cfg, NAMESPACE_INIT, 0, 0)
    return IrsBeamSet(
        beams=initial_beams(cfg.k_total, cfg.p_per_tile, cfg.constraint, rng),
        mode=cfg.constraint.mode,
        n_bits=cfg.constraint.n_bits,
        rho_sq=cfg.rho_sq(),
        config_hash=scenario_mod.config_hash(cfg),
    )


def update_b(
    m_bar: np.ndarray,
    u_bar: np.ndarray,
    rho_sq: float,
    b_current: np.ndarray | None = None,
) -> np.ndarray:
    """Exact minimizer of b^H M b - 2 Re(u^H b) over the GC norm ball
    ||b||^2 <= rho_sq.

    Interior solutions take mu = 0; otherwise the smallest boundary
    multiplier is found on the monotone power curve. With both statistics
    zero the objective is constant in b and the current beam is kept.
    """
    if np.linalg.norm(u_bar) == 0.0:
        if np.linalg.norm(m_bar) == 0.0 and b_current is not None:
            return np.array(b_current, dtype=complex)
        return np.zeros(m_bar.shape[0], dtype=complex)
    x, _ = power_constrained_solve(m_bar, u_bar[:, None], rho_sq)
    return x[:, 0]


# ---------------------------------------------------------------------------
# Sample-stack evaluators and tile statistics


def frozen_sum_rate(w: np.ndarray, alpha: np.ndarray) -> float:
    """The training rate of one offline iteration, mean_n sum_i alpha_i
    log det W_i (nats), from the MMSE weights w (N_s, N_u, L, L) at the
    iteration's beams and precoders: by rate-MMSE duality this is
    `_mean_sum_rate` there. Only the loop calls it, once per iteration, so
    a wrapper on this name counts iterations; the LC projection calls
    `_mean_sum_rate` itself."""
    return float(np.mean(np.einsum("i,ni->n", alpha, logdet_hpd(w))))


def _mean_sum_rate(hv: np.ndarray, sigma2: float, alpha: np.ndarray) -> float:
    """mean_n sum_i alpha_i R_i (nats) from the pair products hv."""
    rates = wmmse.user_rates(hv, sigma2)
    return float(np.mean(np.einsum("i,ni->n", alpha, rates)))


def _coupling(g: np.ndarray, h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """G_i^H H_i V_j over the sample stack, (N_s, N_u*L, N_u*L) with the users
    i folded into the rows and j into the columns: block (i, j) is G_i^H H_i V_j."""
    ghv = (np.swapaxes(g.conj(), -1, -2) @ h) @ _fold_users(v)[:, None]
    return ghv.reshape(ghv.shape[0], -1, ghv.shape[-1])


def _fold_users(v: np.ndarray) -> np.ndarray:
    """[V_1 ... V_Nu] (N_s, M, N_u*L) from the precoders (N_s, N_u, M, L)."""
    n_s, n_u, m_ant, l_ant = v.shape
    return np.swapaxes(v, 1, 2).reshape(n_s, m_ant, n_u * l_ant)


def _precoder_rows(v: np.ndarray) -> np.ndarray:
    """[V]^T (N_s*N_u*L, M) from the precoders (N_s, N_u, M, L): row (n, j, l)
    is column l of V_j of sample n, so [V]^T S_m^T is one GEMM."""
    return np.swapaxes(v, -1, -2).reshape(-1, v.shape[-2])


@dataclass(frozen=True)
class _TileWorkspace:
    """The stacks of one tile sweep, allocated once per run.

    a (N_s, N_u, L, K*P) receives A = G^H T (`_tile_factors`) and x the
    same shape X = alpha W A, once per sweep; tile m reads columns
    m*P .. (m+1)*P - 1 of both. k (N_s*(N_u*L)^2, P) receives tile m's
    face-splitting stack K_m and z_conj the same shape conj(Z_m)
    (`_tile_statistics`). Every call overwrites what it writes, so one
    workspace serves every tile and iteration.
    """

    a: np.ndarray
    x: np.ndarray
    k: np.ndarray
    z_conj: np.ndarray


def _tile_workspace(fold_shape: tuple[int, ...], p: int) -> _TileWorkspace:
    """A `_TileWorkspace` for the tile fold shape (N_s, N_u, L, K*P) of T
    (`channel.fold_tiles`) and P elements per tile."""
    n_s, n_u, l_ant, _ = fold_shape
    stack = (n_s * (n_u * l_ant) ** 2, p)
    return _TileWorkspace(
        a=np.empty(fold_shape, dtype=complex),
        x=np.empty(fold_shape, dtype=complex),
        k=np.empty(stack, dtype=complex),
        z_conj=np.empty(stack, dtype=complex),
    )


def _tile_factors(
    g: np.ndarray, w: np.ndarray, t_fold: np.ndarray, alpha: np.ndarray, ws: _TileWorkspace
) -> None:
    """The beam-independent factors of every tile at fixed (G, W), into ws:
    A_i = G_i^H T_i and X_i = alpha_i W_i A_i, with T_i = [T_i1 ... T_iK]
    the tile fold t_fold (N_s, N_u, L, K*P) (`channel.fold_tiles`)."""
    np.matmul(np.swapaxes(g.conj(), -1, -2), t_fold, out=ws.a)
    np.matmul(alpha[:, None, None] * w, ws.a, out=ws.x)


def _tile_statistics(
    ws: _TileWorkspace,
    m: int,
    v_rows: np.ndarray,
    s_m: np.ndarray,
    ghv: np.ndarray,
    b_m: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample-averaged quadratic statistics (M_m, u_m) of tile m at beam b_m,
    from the factors A and X in ws (`_tile_factors`), the precoder rows
    v_rows (`_precoder_rows`), the tile's BS link s_m (P, M) and
    ghv = G_i^H H_i V_j at the current beams (see `_coupling`).

    With A_m = [A_1m; ...; A_Num] and X_m (N_s, N_u*L, P) read from ws and
    C_m^T = [V]^T S_m^T, one sample's M = (A_m^H X_m) had (conj(C_m) C_m^T)
    is K^H Z for the face-splitting products K[(r, s), p] =
    A_m[r, p] C_m^T[s, p] and Z[(r, s), p] = X_m[r, p] C_m^T[s, p], and
    its u = Z^H vec(I - R), where R = ghv - A_m diag(b_m) C_m drops tile
    m's own term, so vec R = vec ghv - K b_m. Stacked over the samples in
    sample order into ws.k and ws.z_conj, the sample means are
    M_m = K^H Z / N_s and u_m = Z^H vec(I - ghv) / N_s + M_m b_m.

    Also returns the K stack (N_s*(N_u*L)^2, P), ws.k: at beam b for
    tile m, vec ghv becomes vec ghv + K (b - b_m).
    """
    n_s, rows, _ = ghv.shape
    p_elem = s_m.shape[0]
    cols = slice(m * p_elem, (m + 1) * p_elem)
    a_m = ws.a[..., cols].reshape(n_s, rows, 1, p_elem)
    x_m = ws.x[..., cols].reshape(n_s, rows, 1, p_elem)
    c_t = (v_rows @ s_m.T).reshape(n_s, 1, rows, p_elem)
    np.multiply(a_m, c_t, out=ws.k.reshape(n_s, rows, rows, p_elem))
    # conj(Z), so that K^H Z and Z^H y read both stacks through transposed
    # views: the GEMM gives conj(M) and the GEMV u, and no stack is copied.
    z_conj = ws.z_conj.reshape(n_s, rows, rows, p_elem)
    np.multiply(x_m, c_t, out=z_conj)
    np.conjugate(z_conj, out=z_conj)
    m_bar = herm((ws.k.T @ ws.z_conj).conj() / n_s)
    u_bar = ws.z_conj.T @ (np.eye(rows) - ghv).reshape(-1) / n_s + m_bar @ b_m
    return m_bar, u_bar, ws.k


# ---------------------------------------------------------------------------
# Main offline loop


def offline_optimize_channels(
    hbar: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    *,
    sigma2: float,
    p_budget,
    alpha,
    constraint: BeamConstraint,
    beams0: np.ndarray,
    eps: float,
    max_iters: int,
) -> tuple[np.ndarray, OptReport]:
    """Run the offline beam optimization on a frozen stack of channel sets.

    hbar (N_s, N_u, L, M), s (K, P, M) shared across samples,
    t (N_s, N_u, K, L, P). One BCD pass per outer iteration: a single
    (G, W, V) step per sample, then one constrained update of every tile's
    beam; stops when the concatenated beam change Delta falls below eps.
    An iteration ends with the (G, W) step at its new beams, which the next
    iteration's precoders use and whose weights give its training rate.

    An LC constraint runs the loop on its GC relaxation, the ball
    ||b_k||^2 <= P that holds the unit-modulus set, and projects the final
    beams to the phase grid once (`quantize_lc`), so the LC beams are the
    projection of the GC beams from the same start, and every LC iterate
    is a descent step of the relaxed objective.
    """
    hbar = np.asarray(hbar, dtype=complex)
    s = np.asarray(s, dtype=complex)
    t = np.asarray(t, dtype=complex)
    check_finite(hbar, "hbar")
    check_finite(s, "s")
    check_finite(t, "t")
    # One fold of T per run: a view for the stacks of `channel.sample_channels`.
    t = channel_mod.tile_folded(t)
    t_fold = channel_mod.fold_tiles(t)
    n_u = hbar.shape[1]
    k_tiles, p_elem, _ = s.shape
    rho_sq = constraint.resolved_rho_sq(p_elem) if constraint.mode == "GC" else float(p_elem)
    alpha = np.broadcast_to(np.asarray(alpha, float), (n_u,)).copy()
    p_budget = np.broadcast_to(np.asarray(p_budget, dtype=float), (n_u,)).copy()

    beams = np.array(beams0, dtype=complex)
    if beams.shape != (k_tiles, p_elem):
        raise ValueError(f"beams0 shape {beams.shape} does not match (K, P) = {(k_tiles, p_elem)}")

    h = channel_mod.composite_channel(hbar, s, t, beams)
    v = wmmse.initial_precoders(h, p_budget)
    hv = wmmse.pair_products(h, v)

    report = OptReport(eps=float(eps))
    ws = _tile_workspace(t_fold.shape, p_elem)
    # The receivers and weights at the starting beams; every iteration ends
    # with those at its new beams, which the next one starts from.
    g = wmmse.update_receivers(hv, sigma2)
    w = wmmse.update_weights(wmmse.mse_matrices(hv, g, sigma2))
    for _ in range(max_iters):
        t_start = time.perf_counter()

        # The precoder step of the digital variables at the current beams.
        v, _ = wmmse.update_precoders(h, g, w, alpha, p_budget)

        # Tile updates in order, the cached cross coupling refreshed after
        # each tile. G, W and V stay fixed through the sweep, so the factors
        # that no beam enters are formed once, for all tiles.
        _tile_factors(g, w, t_fold, alpha, ws)
        v_rows = _precoder_rows(v)
        ghv = _coupling(g, h, v)
        new_beams = np.empty_like(beams)
        for m in range(k_tiles):
            m_bar, u_bar, k_m = _tile_statistics(ws, m, v_rows, s[m], ghv, beams[m])
            new_beams[m] = update_b(m_bar, u_bar, rho_sq, b_current=beams[m])
            ghv += (k_m @ (new_beams[m] - beams[m])).reshape(ghv.shape)
        beams, beams_prev = new_beams, beams

        violation = gc_violation(beams, rho_sq)
        report.max_gc_violation = max(report.max_gc_violation, violation)
        if violation > GC_SLACK:
            raise NumericalError("offline beam update violated the GC norm constraint")

        delta = float(np.linalg.norm(beams - beams_prev))
        # The channels and pair products at the new beams also serve the
        # next iteration's digital step.
        h = channel_mod.composite_channel(hbar, s, t, beams)
        hv = wmmse.pair_products(h, v)
        obj = float(np.mean(wmmse.weighted_mse_objective(hv, g, w, alpha, sigma2)))
        if not np.isfinite(obj):
            raise NumericalError(
                f"offline objective non-finite at iteration {report.iterations + 1}"
            )
        g = wmmse.update_receivers(hv, sigma2)
        w = wmmse.update_weights(wmmse.mse_matrices(hv, g, sigma2))
        rate = frozen_sum_rate(w, alpha)

        report.iterations += 1
        report.delta_history.append(delta)
        report.objective_history.append(obj)
        report.sum_rate_history.append(rate / np.log(2.0))
        report.seconds_per_iteration.append(time.perf_counter() - t_start)
        if delta <= eps:
            report.converged = True
            break

    if constraint.mode == "LC":
        beams, _ = quantize_lc(beams, constraint.n_bits)
        hv = wmmse.pair_products(channel_mod.composite_channel(hbar, s, t, beams), v)
        report.projected_sum_rate = _mean_sum_rate(hv, sigma2, alpha) / np.log(2.0)

    return beams, report


def offline_optimize(cfg: ScenarioConfig) -> tuple[IrsBeamSet, OptReport]:
    """Full offline run from a scenario config: draw the frozen training
    samples, synthesize their channels, optimize the beams.

    GC starts from `random_beam_set`; LC starts its relaxation from the
    unit-modulus draw that `random_beam_set` quantizes, so an LC run returns
    the grid projection of the GC run with the same seed and the default
    rho_sq = P."""
    init = random_beam_set(cfg)
    beams0 = init.beams
    if init.mode == "LC":
        rng = scenario_mod._stream(cfg, NAMESPACE_INIT, 0, 0)
        beams0 = initial_beams(cfg.k_total, cfg.p_per_tile, BeamConstraint(), rng)
    cs = channel_mod.sample_channels(cfg, NAMESPACE_TRAIN, range(cfg.solver.n_samples))
    beams, report = offline_optimize_channels(
        cs.hbar,
        cs.s,
        cs.t,
        sigma2=cfg.noise_power_w(),
        p_budget=cfg.power_budgets_w(),
        alpha=cfg.alpha(),
        constraint=cfg.constraint,
        beams0=beams0,
        eps=cfg.eps_offline(),
        max_iters=cfg.solver.max_offline_iters,
    )
    return replace(init, beams=beams), report


# ---------------------------------------------------------------------------
# Beam-set serialization


def beam_doc(beam_set: IrsBeamSet) -> dict:
    """Canonical JSON-able document for a beam set (also the file payload)."""
    idx = beam_set.phase_indices()
    return {
        "format_version": BEAMS_FORMAT_VERSION,
        "kind": "irs-beam-set",
        "mode": beam_set.mode,
        "n_bits": beam_set.n_bits,
        "rho_sq": beam_set.rho_sq,
        "config_hash": beam_set.config_hash,
        "tiles": [
            [[float(np.real(x)), float(np.imag(x))] for x in tile] for tile in beam_set.beams
        ],
        "phase_indices": None if idx is None else idx.tolist(),
    }


def encode_beams(beam_set: IrsBeamSet) -> tuple[bytes, str]:
    """The bytes `save_beams` writes for the beam set, and their SHA-256."""
    data = (json.dumps(beam_doc(beam_set), indent=1) + "\n").encode("utf-8")
    return data, hashlib.sha256(data).hexdigest()


def beam_set_digest(beam_set: IrsBeamSet) -> str:
    """SHA-256 of the bytes `save_beams` writes for the beam set."""
    return encode_beams(beam_set)[1]


def save_beams(path, beam_set: IrsBeamSet) -> str:
    """Versioned JSON dump with per-tile (re, im) pairs and constraint
    metadata. Returns the SHA-256 of the bytes written, the beam set's
    `beam_set_digest`."""
    data, digest = encode_beams(beam_set)
    Path(path).write_bytes(data)
    return digest


def load_beams(path) -> IrsBeamSet:
    """Load a beam-set file; LC beams re-materialize from their grid indices
    so entries are bit-identical to the canonical grid points. Raises
    IOError, naming the key, for a missing key, a mode other than GC or LC,
    an LC n_bits not an integer >= 1, ill-typed or ragged tiles, LC
    phase_indices off the 2^n_bits grid or not shaped like tiles, a rho_sq
    that is neither a positive number nor null (as in the config's
    constraint.rho_sq; null means P), GC tiles that break
    ||b_k||^2 <= rho_sq by more than GC_SLACK, or a config_hash that is
    not a string."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != BEAMS_FORMAT_VERSION:
        raise IOError(f"unsupported beam-set format version {version!r}")
    if doc.get("kind") != "irs-beam-set":
        raise IOError("not a beam-set file")
    missing = [key for key in ("mode", "n_bits", "rho_sq", "tiles") if key not in doc]
    if missing:
        raise IOError(f"beam-set file lacks key(s) {', '.join(missing)}")
    mode, n_bits = doc["mode"], doc["n_bits"]
    if mode not in ("GC", "LC"):
        raise IOError(f"beam-set mode: expected GC or LC, got {mode!r}")
    if mode == "LC" and (isinstance(n_bits, bool) or not isinstance(n_bits, int) or n_bits < 1):
        raise IOError(f"beam-set n_bits: expected an integer >= 1 for LC beams, got {n_bits!r}")
    check = scenario_mod._coerce
    try:
        tiles = check(tuple[tuple[tuple[float, float], ...], ...], doc["tiles"], "tiles")
        idx = check(tuple[tuple[int, ...], ...] | None, doc.get("phase_indices"), "phase_indices")
        rho_sq = check(float | None, doc["rho_sq"], "rho_sq")
        config_hash = check(str, doc.get("config_hash", ""), "config_hash")
    except scenario_mod.ConfigError as exc:
        raise IOError(f"beam-set {exc}") from exc
    if rho_sq is not None and not rho_sq > 0:
        raise IOError(f"beam-set rho_sq: expected a positive number or null, got {rho_sq!r}")
    lengths = [len(tile) for tile in tiles]
    if len(set(lengths)) > 1:
        raise IOError(f"beam-set tiles: expected tiles of one length, got lengths {lengths}")
    beams = np.array([[complex(re, im) for re, im in tile] for tile in tiles], dtype=complex)
    if mode == "LC" and idx is not None:
        if [len(row) for row in idx] != lengths:
            raise IOError(f"beam-set phase_indices: expected the shape {beams.shape} of tiles")
        if not all(0 <= i < 2**n_bits for row in idx for i in row):
            raise IOError(f"beam-set phase_indices: expected integers in [0, {2**n_bits})")
        beams = lc_grid_point(np.array(idx, dtype=int), n_bits)
    if mode == "GC" and beams.size:
        excess = gc_violation(beams, float(lengths[0]) if rho_sq is None else rho_sq)
        if excess > GC_SLACK:
            raise IOError(f"beam-set tiles: a tile's squared norm exceeds rho_sq by {excess:.3g}")
    return IrsBeamSet(
        beams=beams,
        mode=mode,
        n_bits=n_bits,
        rho_sq=rho_sq,
        config_hash=config_hash,
    )
