"""DSMC particle simulation of the homogeneous collision dynamics.

No-time-counter scheme: per species pair, a majorant of the pair collision
rate fixes a candidate count for the step; candidates are accepted with
probability (true speed factor)/(majorant speed factor) and the scattering
angle is drawn from the configured angular law. Noncutoff kernels are
sampled through a hard angular truncation at theta_min; the momentum-transfer
weight of the discarded grazing collisions is computed and logged (their raw
count is infinite). Cutoff kernels sample the impact normal on the
half-sphere directly. The post-collision velocities come from the rules in
`geometry`: `*_post_n` for cutoff kernels, `*_post_sigma` for noncutoff ones.

Determinism: all randomness comes from counter-based streams keyed by
(seed, step, species-pair block). Within a block, each candidate's level is
one more than the largest level among the earlier candidates sharing one of
its particles; levels are committed in order, one vectorized batch each, so
every particle meets its collisions in candidate order and the result equals
committing candidates one at a time. Results are bit-identical for any
thread count.
"""

import logging
import math
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry, utils
from .errors import MajorantInflationWarning, MajorantViolation, ValidationError
from .geometry import MassPair, RestitutionParams
from .kernels import KernelSpec

logger = logging.getLogger(__name__)

SNAPSHOT_MAGIC = b"KTEN"
SNAPSHOT_VERSION = 1


@dataclass
class Species:
    mass: float
    velocities: np.ndarray        # (N, d)
    weight: float

    def __post_init__(self):
        self.velocities = np.asarray(self.velocities, dtype=float)
        if self.velocities.ndim != 2 or self.velocities.shape[0] == 0:
            raise ValueError("species needs a nonempty (N, d) velocity array")
        if self.mass <= 0 or self.weight <= 0:
            raise ValueError("mass and weight must be positive")


@dataclass
class Ensemble:
    species: list
    time: float
    seed: int
    step_index: int = 0
    majorant: float | None = None          # live speed-factor majorant
    last_step_stats: dict | None = None

    def __post_init__(self):
        masses = [s.mass for s in self.species]
        if any(b <= a for a, b in zip(masses, masses[1:])):
            raise ValueError("species masses must be strictly increasing")
        weights = {s.weight for s in self.species}
        if len(weights) > 1:
            raise ValueError("per-species weights must be equal for pair sampling")

    @property
    def d(self):
        return self.species[0].velocities.shape[1]

    def copy(self):
        return Ensemble(
            species=[Species(s.mass, s.velocities.copy(), s.weight)
                     for s in self.species],
            time=self.time, seed=self.seed, step_index=self.step_index,
            majorant=self.majorant, last_step_stats=None)


@dataclass
class SimConfig:
    model: str                    # "inelastic" | "mixture"
    kernel: KernelSpec
    dt: float
    steps: int
    particles: tuple              # per-species counts
    alpha: float | None = None
    masses: tuple | None = None
    seed: int = utils.DEFAULT_SEED
    theta_min: float = 1e-2
    init: str = "gaussian"
    majorant: float | None = None          # initial speed-factor estimate
    majorant_refresh: int = 100

    def __post_init__(self):
        if self.model not in ("inelastic", "mixture"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "inelastic":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError("inelastic model needs alpha in (0, 1)")
            if len(self.particles) != 1:
                raise ValueError("inelastic model is mono-species")
        else:
            if self.masses is None or len(self.masses) != len(self.particles):
                raise ValueError("mixture model needs one mass per species")
        if self.dt <= 0 or self.steps < 0:
            raise ValueError("dt must be positive and steps nonnegative")
        if not self.kernel.cutoff:
            if self.kernel.s >= 0.5 and self.theta_min <= 0.0:
                raise ValueError("noncutoff sampling with s >= 1/2 requires "
                                 "theta_min > 0")

    @property
    def d(self):
        return self.kernel.d

    @property
    def restitution(self):
        return RestitutionParams(self.alpha) if self.alpha is not None else None

    @cached_property
    def sampler(self):
        return AngularSampler(self.kernel, self.theta_min)


class AngularSampler:
    """Inverse-CDF sampler for the per-collision scattering angle.

    Noncutoff: theta in [theta_min, pi] with density b(cos theta)
    sin^{d-2} theta; the discarded grazing mass below theta_min is computed
    and logged once. Cutoff: the impact-normal angle in [0, pi/2] with
    density h(theta) sin^{d-2} theta (h == 1 is the uniform half-sphere).
    """

    def __init__(self, spec: KernelSpec, theta_min, table=4096):
        self.spec = spec
        self.cutoff = spec.cutoff
        d = spec.d
        if self.cutoff:
            lo, hi = 0.0, math.pi / 2.0
            grid = np.linspace(lo, hi, table)
            dens = np.array([spec.h(t) for t in grid]) * np.sin(grid) ** (d - 2)
            self.discarded_mass = 0.0
        else:
            if theta_min <= 0.0:
                raise ValueError("noncutoff sampling needs theta_min > 0")
            lo, hi = theta_min, math.pi
            grid = np.concatenate([
                np.geomspace(lo, min(0.5, hi / 2), table // 2),
                np.linspace(min(0.5, hi / 2), hi, table // 2)[1:],
            ])
            b = spec.assembled_b
            dens = b.from_angle(grid) * np.sin(grid) ** (d - 2)
            area = utils.sphere_area(d - 1)
            # the raw grazing count below theta_min is non-integrable for any
            # s in (0,1); what is finite, and logged, is its momentum-transfer
            # weight (1 - cos theta) b sin^{d-2} theta
            self.discarded_mass = math.inf
            from scipy.integrate import quad
            transfer, _ = quad(lambda t: float(b.from_angle(t))
                               * math.sin(t) ** (d - 2)
                               * (1.0 - math.cos(t)),
                               0.0, theta_min, points=[theta_min / 2])
            self.discarded_transfer = float(transfer * area)
            logger.info("angular truncation at %.3g discards infinite grazing "
                        "count (momentum-transfer weight %.3e)",
                        theta_min, self.discarded_transfer)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                               * np.diff(grid))])
        self.angular_mass = float(cdf[-1] * utils.sphere_area(d - 1))
        self.grid = grid
        self.cdf = cdf / cdf[-1]

    def sample(self, uniforms):
        return np.interp(uniforms, self.cdf, self.grid)


def _init_velocities(rng, n, d, kind):
    if kind == "gaussian":
        return rng.normal(size=(n, d))
    if kind == "two_bump":
        v = rng.normal(size=(n, d)) * 0.3
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        v[:, 0] += signs * 2.0
        return v
    if kind == "shell":
        g = rng.normal(size=(n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return g
    raise ValueError(f"unknown initializer {kind!r}")


def build_ensemble(cfg: SimConfig) -> Ensemble:
    rng = utils.substream(cfg.seed, 0xC0FFEE)
    species = []
    masses = (1.0,) if cfg.model == "inelastic" else tuple(cfg.masses)
    for k, n in enumerate(cfg.particles):
        v = _init_velocities(rng, n, cfg.d, cfg.init)
        species.append(Species(mass=masses[k], velocities=v, weight=1.0 / sum(cfg.particles)))
    return Ensemble(species=species, time=0.0, seed=cfg.seed, majorant=cfg.majorant)


def _speed_majorant(ens: Ensemble, cfg: SimConfig, margin=1.3):
    """Majorant of |v - v*|^gamma from sampled pair speeds, inflated."""
    gamma = cfg.kernel.gamma
    if gamma == 0.0:
        return 1.0
    rng = utils.substream(ens.seed, ens.step_index, 0xFACE)
    best = 0.0
    for si in ens.species:
        for sj in ens.species:
            n_i, n_j = len(si.velocities), len(sj.velocities)
            m = min(2048, n_i * n_j)
            a = si.velocities[rng.integers(0, n_i, m)]
            b = sj.velocities[rng.integers(0, n_j, m)]
            speeds = np.linalg.norm(a - b, axis=1)
            speeds = speeds[speeds > 0]
            if speeds.size:
                best = max(best, float(np.max(speeds ** gamma)))
    return margin * best if best > 0 else 1.0


def _pair_blocks(n_species):
    return [(i, j) for i in range(n_species) for j in range(i, n_species)]


def _orthonormal_frame(khat):
    """Vectorized tangent frame(s) for unit vectors khat of shape (m, d)."""
    m, d = khat.shape
    if d == 2:
        e1 = np.stack([-khat[:, 1], khat[:, 0]], axis=1)
        return e1, None
    ref = np.zeros_like(khat)
    smallest = np.argmin(np.abs(khat), axis=1)
    ref[np.arange(m), smallest] = 1.0
    e1 = _cross3(khat, ref)
    e1 /= np.sqrt(utils.row_dot(e1, e1))[:, None]
    e2 = _cross3(khat, e1)
    return e1, e2


def _cross3(a, b):
    """Row-wise a x b for (m, 3) arrays, the products np.cross takes, in its order."""
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0],
                    axis=1)


class _Violation(Exception):
    def __init__(self, observed):
        self.observed = observed


def step(ens: Ensemble, cfg: SimConfig) -> Ensemble:
    """Advance the ensemble by one time step of length cfg.dt.

    Returns a new Ensemble; the input is not modified. Candidates are
    committed in dependency levels (see _process_candidates). A majorant
    violation is detected when a level is committed: the observed value is
    the largest speed factor in the first level, in level order, that holds
    a violating candidate. The majorant is inflated to 1.5 x max(observed,
    majorant) and the step is re-run from its own saved stream, so recovery
    is deterministic.

    The result's last_step_stats holds the candidate and accepted counts,
    sum_c2 and predicted_energy_loss (inelastic bookkeeping), the majorant
    used, and levels, the number of levels summed over pair blocks.
    """
    out = ens.copy()
    if out.majorant is None or (cfg.majorant_refresh > 0
                                and out.step_index % cfg.majorant_refresh == 0):
        out.majorant = _speed_majorant(out, cfg)
    for _retry in range(20):
        try:
            stats = _attempt_step(out, cfg)
            break
        except _Violation as v:
            new_maj = 1.5 * max(v.observed, out.majorant)
            warnings.warn(
                f"majorant {out.majorant:.4g} violated (observed {v.observed:.4g}); "
                f"inflating to {new_maj:.4g} and re-running step",
                MajorantInflationWarning)
            for s_new, s_old in zip(out.species, ens.species):
                s_new.velocities[...] = s_old.velocities
            out.majorant = new_maj
    else:
        raise MajorantViolation("majorant kept being violated after 20 inflations; "
                                "pair speeds are too singular for this dt")
    out.time = ens.time + cfg.dt
    out.step_index = ens.step_index + 1
    out.last_step_stats = stats
    return out


def _attempt_step(ens: Ensemble, cfg: SimConfig):
    sampler = cfg.sampler
    d = ens.d
    gamma = cfg.kernel.gamma
    w = ens.species[0].weight
    maj_rate = ens.majorant * sampler.angular_mass
    stats = {"candidates": 0, "accepted": 0, "sum_c2": 0.0,
             "predicted_energy_loss": 0.0, "majorant": ens.majorant,
             "levels": 0}
    for block, (i, j) in enumerate(_pair_blocks(len(ens.species))):
        rng = utils.substream(ens.seed, ens.step_index, block + 1)
        vi = ens.species[i].velocities
        vj = ens.species[j].velocities
        n_i, n_j = len(vi), len(vj)
        if i == j:
            lam = 0.5 * n_i * (n_i - 1) * w * maj_rate * cfg.dt
        else:
            lam = n_i * n_j * w * maj_rate * cfg.dt
        n_block = n_i if i == j else n_i + n_j
        if lam > 0.5 * n_block:
            # dt times max collision rate approaching 1 per particle breaks
            # the acceptance-rejection picture of uncorrelated binary events
            warnings.warn(f"step draws {lam:.0f} candidates for {n_block} "
                          "particles; reduce dt", UserWarning)
        m = int(lam) + (1 if rng.random() < lam - int(lam) else 0)
        if m == 0:
            continue
        idx_a = rng.integers(0, n_i, m)
        if i == j:
            idx_b = (idx_a + 1 + rng.integers(0, n_i - 1, m)) % n_i
        else:
            idx_b = rng.integers(0, n_j, m)
        u_acc = rng.random(m)
        u_theta = rng.random(m)
        u_azim = rng.random(m) * 2.0 * math.pi
        pair_params = _pair_collision_params(cfg, ens, i, j)
        stats["levels"] += _process_candidates(
            vi, vj, idx_a, idx_b, u_acc, u_theta, u_azim, ens.majorant, gamma,
            sampler, pair_params, d, w, stats, same=(i == j))
        stats["candidates"] += m
    return stats


def _pair_collision_params(cfg, ens, i, j):
    if cfg.model == "inelastic":
        return cfg.restitution
    return MassPair(ens.species[i].mass, ens.species[j].mass)


def _process_candidates(vi, vj, idx_a, idx_b, u_acc, u_theta, u_azim,
                        majorant, gamma, sampler, pair_params, d, w, stats,
                        same):
    """Commit candidates level by level; returns the number of levels.

    A candidate's level is 1 + the larger level of its predecessors (the
    previous candidates touching either of its particles), or 0 if it has
    none. Levels are peeled off in order: a pass takes every pending
    candidate whose predecessors are all committed. No particle repeats
    within a level and every particle meets its collisions in candidate
    order, so the result equals committing the candidates one at a time.
    """
    m = len(idx_a)
    pred = _predecessors(idx_a, idx_b if same else idx_b + len(vi))
    pred_a, pred_b = pred[:m], pred[m:]
    committed = np.zeros(m + 1, dtype=bool)
    committed[m] = True                     # the "no predecessor" sentinel
    pending = np.arange(m)
    levels = 0
    while pending.size:
        ready = committed[pred_a[pending]] & committed[pred_b[pending]]
        level = pending[ready]
        _apply_wave(vi, vj, idx_a[level], idx_b[level], u_acc[level],
                    u_theta[level], u_azim[level], majorant, gamma, sampler,
                    pair_params, d, w, stats)
        committed[level] = True
        pending = pending[~ready]
        levels += 1
    return levels


def _predecessors(key_a, key_b):
    """Previous candidate sharing each candidate's a and b particle.

    Returns pred of length 2m: pred[k] for the a particle and pred[m + k]
    for the b particle of candidate k, with m meaning none. The two keys of
    one candidate must differ.
    """
    m = len(key_a)
    keys = np.concatenate([key_a, key_b])
    # key * m + candidate is unique: sorting it orders by key, then candidate
    order = np.argsort(keys * m + np.tile(np.arange(m), 2))
    sorted_keys = keys[order]
    shared = sorted_keys[1:] == sorted_keys[:-1]
    pred = np.empty(2 * m, dtype=np.intp)
    pred[order[0]] = m
    pred[order[1:]] = np.where(shared, order[:-1] % m, m)
    return pred


def _apply_wave(vi, vj, ia, ib, u_acc, u_theta, u_azim, majorant, gamma,
                sampler, pair_params, d, w, stats):
    va = vi[ia]
    vb = vj[ib]
    rel = va - vb
    rspeed = np.sqrt(utils.row_dot(rel, rel))
    live = rspeed > 0.0                     # zero-relative-speed pairs are no-ops
    factor = np.zeros_like(rspeed)
    factor[live] = rspeed[live] ** gamma
    over = factor > majorant
    if np.any(over):
        raise _Violation(float(np.max(factor)))
    accept = live & (u_acc * majorant < factor)
    if not np.any(accept):
        return
    if not np.all(accept):      # all accepted at gamma 0 with majorant 1
        ia, ib = ia[accept], ib[accept]
        va, vb = va[accept], vb[accept]
        rel, rspeed = rel[accept], rspeed[accept]
        u_theta, u_azim = u_theta[accept], u_azim[accept]
    theta = sampler.sample(u_theta)
    azim = u_azim
    khat = rel / rspeed[:, None]
    e1, e2 = _orthonormal_frame(khat)
    if d == 2:
        tang = np.where((azim < math.pi)[:, None], e1, -e1)
    else:
        tang = np.cos(azim)[:, None] * e1 + np.sin(azim)[:, None] * e2
    unit = np.cos(theta)[:, None] * khat + np.sin(theta)[:, None] * tang
    inelastic = isinstance(pair_params, RestitutionParams)
    if sampler.cutoff:
        # theta is the impact-normal angle on the half-sphere: unit is n
        c = rspeed * np.cos(theta)          # <v - v*, n> >= 0 on the half-sphere
        post = geometry.inelastic_post_n if inelastic else geometry.mixture_post_n
    else:
        # theta is the scattering angle: unit is sigma
        c = rspeed * np.sqrt(0.5 * (1.0 - np.cos(theta)))   # = rspeed sin(theta/2)
        post = geometry.inelastic_post_sigma if inelastic else geometry.mixture_post_sigma
    va_new, vb_new, _ = post(va, vb, unit, pair_params)
    vi[ia] = va_new
    vj[ib] = vb_new
    stats["accepted"] += int(ia.size)
    if inelastic:
        beta = pair_params.beta
        c2 = float(np.sum(c * c))
        stats["sum_c2"] += c2
        stats["predicted_energy_loss"] += 2.0 * beta * (1.0 - beta) * c2 * w


def moments(ens: Ensemble, entropy_bins=24):
    """Weighted moments: per-species mass, momentum, energy, entropy estimate.

    Energy is the mass-weighted second moment sum_s w m_s sum |v|^2, the
    quantity conserved by mixture collisions and dissipated by inelastic
    ones. Entropy is the plug-in histogram estimate of sum integral f log f
    with a Miller-Madow bin-count correction, decreasing toward equilibrium.
    """
    d = ens.d
    mass = [s.weight * len(s.velocities) for s in ens.species]
    momentum = np.zeros(d)
    energy = 0.0
    entropy = 0.0
    for s in ens.species:
        momentum += s.weight * s.mass * s.velocities.sum(axis=0)
        energy += s.weight * s.mass * float(np.sum(s.velocities ** 2))
        entropy += _entropy_estimate(s, entropy_bins)
    return {"mass": mass, "momentum": momentum, "energy": float(energy),
            "entropy_estimate": float(entropy)}


def _entropy_estimate(s: Species, bins):
    v = s.velocities
    n, d = v.shape
    lim = max(float(np.max(np.abs(v))) * 1.05, 1e-12)
    counts = utils.grid_counts(v, np.linspace(-lim, lim, bins + 1))
    cell = (2.0 * lim / bins) ** d
    c = counts[counts > 0].ravel()
    dens = s.weight * c / cell
    h_plugin = float(np.sum(dens * np.log(dens) * cell))
    k_occupied = c.size
    # Miller-Madow raises the Shannon entropy estimate by (K-1)/(2N); in
    # integral-of-f-log-f units that lowers the plug-in value by w(K-1)/2
    return h_plugin - s.weight * (k_occupied - 1) / 2.0


@dataclass
class PositivityReport:
    species_index: int
    bins: int
    radius: float
    empty_bins: int
    checked_bins: int
    populated_radius: float     # largest radius with every bin populated


def positivity_probe(ens: Ensemble, radius, bins):
    """Histogram occupancy of each species over the ball B_radius.

    Reports empty bins among those whose centers lie inside the ball, and
    the largest center radius r such that all bins with center norm <= r are
    populated. Purely empirical; thermalization is the caller's judgment.
    """
    d = ens.d
    edges = np.linspace(-radius, radius, bins + 1)
    centers_1d = 0.5 * (edges[:-1] + edges[1:])
    mesh = np.meshgrid(*([centers_1d] * d), indexing="ij")
    center_norm = np.sqrt(sum(m ** 2 for m in mesh))
    inside = center_norm <= radius
    reports = []
    for k, s in enumerate(ens.species):
        counts = utils.grid_counts(s.velocities, edges)
        empty = inside & (counts == 0)
        if np.any(empty):
            populated_radius = float(max(np.min(center_norm[empty])
                                         - (edges[1] - edges[0]), 0.0))
        else:
            populated_radius = float(np.max(center_norm[inside]))
        reports.append(PositivityReport(
            species_index=k, bins=bins, radius=radius,
            empty_bins=int(np.sum(empty)), checked_bins=int(np.sum(inside)),
            populated_radius=populated_radius))
    return reports


# -- snapshot format -----------------------------------------------------------
# little-endian: magic "KTEN" (4 bytes), u32 version, u32 d, u64 count,
# then count*d float64 velocities in row-major order.

def write_snapshot(path, velocities):
    v = np.asarray(velocities, dtype="<f8")
    count, d = v.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIQ", SNAPSHOT_MAGIC, SNAPSHOT_VERSION, d, count))
        fh.write(v.tobytes(order="C"))


def read_snapshot(path):
    """Velocities (count, d) from a snapshot file.

    A file too short for its header's count, or with a bad magic or
    version, raises ValidationError naming the file.
    """
    with open(path, "rb") as fh:
        header = fh.read(20)
        if len(header) < 20:
            raise ValidationError(f"snapshot {path}: truncated header "
                                  f"({len(header)} of 20 bytes)")
        magic, version, d, count = struct.unpack("<4sIIQ", header)
        if magic != SNAPSHOT_MAGIC:
            raise ValidationError(f"snapshot {path}: bad magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise ValidationError(f"snapshot {path}: unsupported version {version}")
        payload = fh.read(count * d * 8)
    if len(payload) != count * d * 8:
        raise ValidationError(f"snapshot {path}: payload holds {len(payload)} bytes, "
                              f"header promises {count} x {d} float64 "
                              f"({count * d * 8} bytes)")
    return np.frombuffer(payload, dtype="<f8").reshape(count, d).copy()
