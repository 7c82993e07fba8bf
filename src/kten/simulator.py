"""DSMC particle simulation of the homogeneous collision dynamics.

No-time-counter scheme: per species pair, a majorant of the pair collision
rate fixes a candidate count for the step; candidates are accepted with
probability (true speed factor)/(majorant speed factor) and the collision
direction is drawn from the kernel's angular law. Every particle of every
species carries the one weight of its ensemble. Noncutoff kernels are
sampled through a hard angular truncation at theta_min; the momentum-transfer
weight of the discarded grazing collisions is computed and logged (their raw
count is infinite). Cutoff kernels (the uniform half-sphere law) draw the
impact normal uniform on the sphere, with no frame or table; noncutoff
kernels build it from the sampled angle in the `utils.tangent_basis` frame.
Both commit through the impact-normal core `geometry.impact_normal_shifts`,
which `geometry.inelastic_post_n` and `geometry.mixture_post_n` wrap.

A step works in place. Each commit wave hands back the rows it overwrote,
and the step keeps them as an undo log: a majorant violation writes them
back, last wave first, so the retry starts from the state the step began
with, bit for bit.

Determinism: all randomness comes from counter-based streams keyed by
(seed, step, species-pair block). Within a block, each candidate's level is
one more than the largest level among the earlier candidates sharing one of
its particles; levels are committed in order, one vectorized batch each, so
every particle meets its collisions in candidate order and the result equals
committing candidates one at a time: it does not depend on the level
schedule.
"""

import logging
import math
import os
import struct
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import geometry, utils
from .errors import (MajorantInflationWarning, MajorantViolation, NumericalError,
                     ValidationError)
from .geometry import MassPair, RestitutionParams
from .kernels import KernelSpec, _b_norm_constant

logger = logging.getLogger(__name__)

SNAPSHOT_MAGIC = b"KTEN"
SNAPSHOT_VERSION = 1
_ANGLE_TABLE = 4096        # grid points of the angular sampler's inverse-CDF table
_ANGLE_SPLIT = 0.5         # the table is geometric below this angle, linear above
_ENTROPY_BINS = 24         # histogram bins per axis of the entropy estimate
_MAJORANT_REFRESH = 100    # steps between speed-factor majorants drawn afresh
MODELS = ("inelastic", "mixture")
INITS = ("gaussian", "two_bump", "shell")     # the initializers of _init_velocities


@dataclass
class Species:
    mass: float
    velocities: np.ndarray        # (N, d)

    def __post_init__(self):
        # C order: moments' einsum column sums equal .sum(axis=0) bit for bit
        # only on C-ordered rows
        self.velocities = np.ascontiguousarray(self.velocities, dtype=float)
        if self.velocities.ndim != 2 or self.velocities.shape[0] == 0:
            raise ValidationError("species needs a nonempty (N, d) velocity array")
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ValidationError(f"'mass' must be > 0 and finite, got {self.mass}")


@dataclass
class Ensemble:
    """The particles of every species, each carrying the one `weight`.

    One weight for all species is what lets a pair block draw its
    candidates from the one majorant rate.
    """

    species: list
    time: float
    seed: int
    weight: float                          # density one particle stands for
    step_index: int = 0
    majorant: float | None = None          # live speed-factor majorant
    last_step_stats: dict | None = None

    def __post_init__(self):
        masses = [s.mass for s in self.species]
        if any(b <= a for a, b in zip(masses, masses[1:])):
            raise ValidationError("species masses must be strictly increasing")
        dims = [s.velocities.shape[1] for s in self.species]
        for i, d in enumerate(dims):
            if d != dims[0]:
                raise ValidationError(f"species {i} has 'd' = {d} but species 0 has "
                                      f"'d' = {dims[0]}: every species must share one d")
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise ValidationError(f"'weight' must be > 0 and finite, got {self.weight}")

    @property
    def d(self):
        return self.species[0].velocities.shape[1]

    def copy(self):
        return replace(self, species=[Species(s.mass, s.velocities.copy())
                                      for s in self.species], last_step_stats=None)


@dataclass
class SimConfig:
    """One DSMC run; every particle carries the weight 1 / sum(particles)."""

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

    def __post_init__(self):
        """Every value of a run, checked before any work.

        Each message starts with the quoted field name, which is also the
        key of the `kten simulate` config file.
        """
        for field, value, choices in (("model", self.model, MODELS),
                                      ("init", self.init, INITS)):
            if value not in choices:
                raise ValidationError(f"{field!r} must be one of {choices}, got {value!r}")
        if not self.particles or not all(n >= 1 for n in self.particles):
            raise ValidationError(f"'particles' must be counts >= 1, got {self.particles}")
        # alpha is read by the inelastic model only, masses by the mixture only
        own, other = ("alpha", "masses") if self.model == "inelastic" else ("masses", "alpha")
        if getattr(self, own) is None:
            raise ValidationError(f"{own!r} is required by model = {self.model}")
        if getattr(self, other) is not None:
            raise ValidationError(f"{other!r} is not read by model = {self.model}")
        if self.model == "inelastic":
            if len(self.particles) != 1:
                raise ValidationError("'particles' must hold one count under model = inelastic")
            RestitutionParams(self.alpha)
        else:
            masses = self.masses
            if len(masses) != len(self.particles):
                raise ValidationError(f"'masses' must hold one mass per species, "
                                      f"{len(self.particles)} in 'particles'")
            if not all(m > 0 and math.isfinite(m) for m in masses):
                raise ValidationError(f"'masses' must be > 0 and finite, got {masses}")
            if any(b <= a for a, b in zip(masses, masses[1:])):
                raise ValidationError(f"'masses' must be strictly increasing, got {masses}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValidationError(f"'dt' must be > 0 and finite, got {self.dt}")
        if self.steps < 0:
            raise ValidationError(f"'steps' must be >= 0, got {self.steps}")
        # the kernel's model fixes the constant of its assembled b
        if self.kernel.model != self.model:
            raise ValidationError(f"'kernel' has model = {self.kernel.model}, not {self.model}")
        _check_theta_min(self.theta_min)

    @property
    def d(self):
        return self.kernel.d

    @property
    def restitution(self):
        return RestitutionParams(self.alpha) if self.alpha is not None else None

    @cached_property
    def sampler(self):
        """The noncutoff angle sampler; None for a cutoff kernel."""
        return None if self.kernel.cutoff else AngularSampler(self.kernel, self.theta_min)


def _check_theta_min(theta_min):
    """The angle table starts at theta_min and turns linear at _ANGLE_SPLIT."""
    if not 0.0 < theta_min < _ANGLE_SPLIT:
        raise ValidationError(f"'theta_min' must be > 0 and < {_ANGLE_SPLIT}, got {theta_min}")


class AngularSampler:
    """Inverse-CDF sampler of the noncutoff scattering angle.

    theta in [theta_min, pi] with density b(cos theta) sin^{d-2} theta. The
    grazing count discarded below theta_min is infinite; its
    momentum-transfer weight is computed in closed form and logged once.
    Cutoff kernels need no sampler (a cutoff spec has no assembled b): the
    commit wave draws their impact normal directly.
    """

    def __init__(self, spec: KernelSpec, theta_min):
        _check_theta_min(theta_min)
        d, gamma, s = spec.d, spec.gamma, spec.s
        grid = np.concatenate([np.geomspace(theta_min, _ANGLE_SPLIT, _ANGLE_TABLE // 2),
                               np.linspace(_ANGLE_SPLIT, math.pi, _ANGLE_TABLE // 2)[1:]])
        dens = spec.assembled_b.from_angle(grid) * np.sin(grid) ** (d - 2)
        area = utils.sphere_area(d - 1)
        # the grazing count below theta_min is infinite for any s in (0,1); its
        # momentum-transfer weight, the integral of (1 - cos t) b sin^{d-2} t
        # over [0, theta_min], is an incomplete beta function in sin^2(t/2)
        self.discarded_transfer = 2.0 ** (d - 1) * _b_norm_constant(spec.model, d) \
            * area * utils.incomplete_beta(math.sin(0.5 * theta_min) ** 2, 1.0 - s,
                                           0.5 * (gamma + 2.0 * s + d))
        logger.info("angular truncation at %.3g discards infinite grazing "
                    "count (momentum-transfer weight %.3e)",
                    theta_min, self.discarded_transfer)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                               * np.diff(grid))])
        self.angular_mass = float(cdf[-1] * area)
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
    g = rng.normal(size=(n, d))         # "shell"
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


def build_ensemble(cfg: SimConfig) -> Ensemble:
    rng = utils.substream(cfg.seed, 0xC0FFEE)
    species = []
    masses = (1.0,) if cfg.model == "inelastic" else tuple(cfg.masses)
    for k, n in enumerate(cfg.particles):
        v = _init_velocities(rng, n, cfg.d, cfg.init)
        species.append(Species(mass=masses[k], velocities=v))
    return Ensemble(species=species, time=0.0, seed=cfg.seed,
                    weight=1.0 / sum(cfg.particles))


@np.errstate(over="ignore")     # an overflow is an infinite majorant, refused by the step
def _speed_majorant(ens: Ensemble, cfg: SimConfig):
    """Majorant of |v - v*|^gamma from sampled pair speeds, inflated by 1.3."""
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
    return 1.3 * best if best > 0 else 1.0


def _pair_blocks(n_species):
    return [(i, j) for i in range(n_species) for j in range(i, n_species)]


class _Violation(Exception):
    def __init__(self, observed):
        self.observed = observed


def step(ens: Ensemble, cfg: SimConfig) -> Ensemble:
    """Advance the ensemble by one time step of length cfg.dt, in place.

    Returns ens itself; copy it first (Ensemble.copy) to keep the state
    before the step. Candidates are committed in dependency levels (see
    _levels), each through the impact-normal core
    `geometry.impact_normal_shifts`. A majorant violation is detected when a
    level is committed: the observed value is the largest speed factor in
    the first level, in level order, that holds a violating candidate. The
    step's rows are then restored from its undo log, the majorant is
    inflated to 1.5 x max(observed, majorant), and the step is re-run from
    its own saved stream, so recovery is deterministic. The majorant is
    drawn afresh every _MAJORANT_REFRESH steps. A step that raises leaves
    the velocities, time and step index as they were, and the majorant at
    its last value.

    last_step_stats then holds the candidate and accepted counts,
    predicted_energy_loss (inelastic bookkeeping), the majorant used, and
    levels, the number of levels summed over pair blocks.
    """
    if ens.d != cfg.d:
        raise ValidationError(f"the species have 'd' = {ens.d} but the config's kernel "
                              f"has 'd' = {cfg.d}")
    if ens.majorant is None or ens.step_index % _MAJORANT_REFRESH == 0:
        ens.majorant = _speed_majorant(ens, cfg)
    for _retry in range(20):
        try:
            stats = _attempt_step(ens, cfg)
            break
        except _Violation as v:
            new_maj = 1.5 * max(v.observed, ens.majorant)
            warnings.warn(
                f"majorant {ens.majorant:.4g} violated (observed {v.observed:.4g}); "
                f"inflating to {new_maj:.4g} and re-running step",
                MajorantInflationWarning)
            ens.majorant = new_maj
    else:
        raise MajorantViolation("majorant kept being violated after 20 inflations; "
                                "pair speeds are too singular for this dt")
    ens.time += cfg.dt
    ens.step_index += 1
    ens.last_step_stats = stats
    return ens


def _attempt_step(ens: Ensemble, cfg: SimConfig):
    """One try at a step, in place on ens; returns its last_step_stats.

    Per pair block: draw the candidates, schedule them (_levels), put their
    particles and uniforms in level order once, and commit each level as a
    slice. Raises _Violation from the first level holding a speed factor
    above the majorant. Whatever it raises, it first writes back the rows
    its waves overwrote, last wave first, so ens is as it was.
    """
    undo = []               # (vi, vj, ia, ib, rows of vi, rows of vj), per wave
    try:
        return _commit_blocks(ens, cfg, undo)
    except Exception:
        for vi, vj, ia, ib, va, vb in reversed(undo):
            _put_rows(vj, ib, vb)
            _put_rows(vi, ia, va)
        raise


def _commit_blocks(ens, cfg, undo):
    """The body of _attempt_step; appends each committed wave to undo."""
    w = ens.weight
    maj_rate = ens.majorant * (cfg.sampler or cfg.kernel).angular_mass   # truncated b, or h == 1
    stats = {"candidates": 0, "accepted": 0, "predicted_energy_loss": 0.0,
             "majorant": ens.majorant, "levels": 0}
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
        if not lam < 2.0 ** 53:
            # from 2^53 on lam has no fraction to round; inf and nan land here too
            raise NumericalError(f"step with dt = {cfg.dt:g} draws {lam:.3g} candidates "
                                 f"for {n_block} particles, too many to draw")
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
            # a partner other than a: a + 1 + r lies in [1, 2 n_i - 2]
            idx_b = idx_a + 1 + rng.integers(0, n_i - 1, m)
            idx_b[idx_b >= n_i] -= n_i
        else:
            idx_b = rng.integers(0, n_j, m)
        u = rng.random((3, m))      # acceptance, polar and azimuth uniforms
        pair_params = _pair_collision_params(cfg, ens, i, j)
        # the b particles of a cross-species block get keys after the a ones
        levels = list(_levels(idx_a, idx_b if i == j else idx_b + n_i))
        # in level order once, each level is a slice
        order = np.concatenate(levels)
        idx_a, idx_b, u = idx_a[order], idx_b[order], np.take(u, order, axis=1)
        start = 0
        for level in levels:
            end = start + level.size
            overwritten = _apply_wave(vi, vj, idx_a[start:end], idx_b[start:end],
                                      u[:, start:end], cfg, pair_params, ens.majorant,
                                      w, stats)
            if overwritten is not None:
                undo.append((vi, vj, *overwritten))
            start = end
        stats["levels"] += len(levels)
        stats["candidates"] += m
    return stats


def _pair_collision_params(cfg, ens, i, j):
    if cfg.model == "inelastic":
        return cfg.restitution
    return MassPair(ens.species[i].mass, ens.species[j].mass)


def _levels(key_a, key_b):
    """Yield the candidate indices of each dependency level, in order.

    A candidate's level is 1 + the larger level of its predecessors (the
    previous candidates sharing its a or b key), or 0 if it has none. Level
    0 is read off the predecessors directly; the later levels are peeled off
    in order: a pass takes every pending candidate whose predecessors all
    came in earlier levels. Each level is increasing. No key repeats within
    a level and every key meets its candidates in order, so committing level
    after level equals committing the candidates one at a time.
    """
    m = len(key_a)
    pred = _predecessors(key_a, key_b)
    pred_a, pred_b = pred[0::2], pred[1::2]
    first = (pred_a == m) & (pred_b == m)
    level = np.flatnonzero(first)
    yield level
    committed = np.zeros(m + 1, dtype=bool)
    committed[m] = True                     # the "no predecessor" sentinel
    committed[level] = True
    pending = np.flatnonzero(~first)
    while pending.size:
        ready = committed[pred_a[pending]] & committed[pred_b[pending]]
        level = pending[ready]
        yield level
        committed[level] = True
        pending = pending[~ready]


def _predecessors(key_a, key_b):
    """Previous candidate sharing each candidate's a and b particle.

    Returns pred of length 2m: pred[2k] for the a particle and pred[2k + 1]
    for the b particle of candidate k, with m meaning none. The keys must be
    >= 0, and the two keys of one candidate must differ.

    One sort of the packed keys (key << s) | occurrence, where occurrence
    2k + side numbers the 2m key slots in candidate order, puts equal keys
    together in candidate order; occurrence >> 1 is the candidate.
    """
    m = len(key_a)
    s = (2 * m - 1).bit_length()
    top = int(max(key_a.max(), key_b.max()))
    if top >= 1 << (63 - s):
        raise NumericalError(f"pair block of {m} candidates on keys up to {top}: "
                             f"packing a key with its {s}-bit occurrence overflows int64")
    packed = np.empty(2 * m, dtype=np.int64)
    packed[0::2] = key_a
    packed[1::2] = key_b
    packed <<= s
    packed |= np.arange(2 * m)
    packed.sort()
    occurrence = packed & ((1 << s) - 1)
    packed >>= s                            # the sorted keys
    pred = np.empty(2 * m, dtype=np.intp)
    pred[occurrence[0]] = m
    pred[occurrence[1:]] = np.where(packed[1:] == packed[:-1], occurrence[:-1] >> 1, m)
    return pred


def _put_rows(v, idx, rows):
    """v[idx] = rows on C-ordered float rows, each row scattered as one record.

    Species stores its velocities C-ordered; on any other layout the record
    view raises.
    """
    record = np.dtype((np.void, v.itemsize * v.shape[1]))
    np.put(v.view(record), idx, rows.view(record))


def _apply_wave(vi, vj, ia, ib, u, cfg, pair_params, majorant, w, stats):
    """Commit one level: particle ia[k] of vi meets particle ib[k] of vj.

    u holds the level's acceptance, polar and azimuth uniforms as rows; w is
    the particle weight of the inelastic energy-loss bookkeeping. Returns
    (ia, ib, va, vb), the accepted candidates and the rows of vi and vj
    they overwrote, or None when none is accepted.
    """
    va = np.take(vi, ia, axis=0)
    vb = np.take(vj, ib, axis=0)
    rel = va - vb
    rspeed = np.sqrt(utils.row_dot(rel, rel))
    # zero-relative-speed pairs are no-ops: their factor is 0, never accepted
    gamma = cfg.kernel.gamma
    if gamma > 0.0:
        factor = rspeed ** gamma
    elif gamma == 0.0:
        factor = (rspeed > 0.0).astype(float)      # 0 ** 0 would be 1
    else:
        # 0 ** gamma is inf below 0, so rest pairs are masked
        live = rspeed > 0.0
        factor = np.zeros_like(rspeed)
        factor[live] = rspeed[live] ** gamma
    largest = factor.max()
    if largest > majorant:
        raise _Violation(float(largest))
    keep = np.flatnonzero(u[0] * majorant < factor)
    if keep.size == 0:
        return None
    if keep.size < rspeed.size:     # all accepted at gamma 0 with majorant 1
        ia, ib, rspeed = (np.take(a, keep) for a in (ia, ib, rspeed))
        va, vb, rel = (np.take(a, keep, axis=0) for a in (va, vb, rel))
        u = np.take(u, keep, axis=1)
    u_theta, u_azim = u[1], u[2] * 2.0 * math.pi
    d = vi.shape[1]
    sampler = cfg.sampler
    if sampler is None:
        # cutoff: n uniform on the sphere; the post rules and c^2 are even in
        # n, so this is the half-sphere law (c itself may come out negative)
        if d == 3:
            z = 1.0 - 2.0 * u_theta
            r = np.sqrt(1.0 - z * z)
            unit = np.stack([r * np.cos(u_azim), r * np.sin(u_azim), z], axis=1)
        else:
            unit = np.stack([np.cos(u_azim), np.sin(u_azim)], axis=1)
    else:
        # noncutoff: n = sin(theta/2) khat + cos(theta/2) t for the sampled
        # scattering angle theta; sigma = khat - 2 <khat, n> n is theta from khat
        half = 0.5 * sampler.sample(u_theta)
        khat = rel / rspeed[:, None]
        if d == 3:
            coef = np.stack([np.cos(u_azim), np.sin(u_azim)], axis=1)
        else:
            coef = np.where(u_azim < math.pi, 1.0, -1.0)[:, None]
        tang = utils.tangent_vectors(khat, coef)
        unit = np.sin(half)[:, None] * khat + np.cos(half)[:, None] * tang
    shift, shift_star, c = geometry.impact_normal_shifts(rel, unit, pair_params)
    _put_rows(vi, ia, va - shift)
    _put_rows(vj, ib, vb + shift_star)
    stats["accepted"] += int(ia.size)
    if isinstance(pair_params, RestitutionParams):
        beta = pair_params.beta
        c2 = float(np.sum(c * c))
        stats["predicted_energy_loss"] += 2.0 * beta * (1.0 - beta) * c2 * w
    return ia, ib, va, vb


def moments(ens: Ensemble):
    """Weighted moments: per-species mass, momentum, energy, entropy estimate.

    Energy is the mass-weighted second moment sum_s w m_s sum |v|^2, the
    quantity conserved by mixture collisions and dissipated by inelastic
    ones. Entropy is the plug-in histogram estimate of sum integral f log f
    with a Miller-Madow bin-count correction, decreasing toward equilibrium;
    its histogram bins by floor, so a velocity within an ulp of an inner bin
    edge may fall in the neighbouring bin.
    """
    d, w = ens.d, ens.weight
    mass = [w * len(s.velocities) for s in ens.species]
    momentum = np.zeros(d)
    energy = 0.0
    entropy = 0.0
    for s in ens.species:
        # einsum sums each column down the rows in the order .sum(axis=0)
        # takes on C-ordered rows, at a fraction of its cost
        momentum += w * s.mass * np.einsum("ij->j", s.velocities)
        energy += w * s.mass * float(np.sum(s.velocities ** 2))
        entropy += _entropy_estimate(s.velocities, w)
    return {"mass": mass, "momentum": momentum, "energy": float(energy),
            "entropy_estimate": float(entropy)}


def _entropy_estimate(v, w):
    """The entropy column of `moments` for one species' velocities v (n, d).

    A plug-in histogram estimate with a Miller-Madow correction, over
    _ENTROPY_BINS bins per axis on [-lim, lim]^d with lim = 1.05 max |v|;
    `_entropy_counts` bins the rows by floor. NaN for non-finite velocities.
    """
    n, d = v.shape
    lim = max(float(np.maximum(v.max(), -v.min())) * 1.05, 1e-12)
    if not math.isfinite(lim):              # NaN or inf velocities have no histogram
        return math.nan
    counts = _entropy_counts(v, lim)
    cell = (2.0 * lim / _ENTROPY_BINS) ** d
    c = counts[counts > 0]
    dens = w * c / cell
    h_plugin = float(np.sum(dens * np.log(dens) * cell))
    k_occupied = c.size
    # Miller-Madow raises the Shannon entropy estimate by (K-1)/(2N); in
    # integral-of-f-log-f units that lowers the plug-in value by w(K-1)/2
    return h_plugin - w * (k_occupied - 1) / 2.0


def _entropy_counts(v, lim):
    """Counts of the rows of v (n, d), all in [-lim, lim], over _ENTROPY_BINS
    bins per axis, flat in C order.

    Binned by floor, with lim itself in the last bin: a value within an ulp
    of an inner edge may fall in the neighbouring bin, where np.histogramdd
    (and utils.grid_counts) would correct it against the edge. The entropy
    estimate does not promise where such a value falls.
    """
    d = v.shape[1]
    # grid_bin's arithmetic index, since its edges[0] = -lim and edges[-1] -
    # edges[0] = 2 lim exactly; the flat bin is an exact float sum of integers
    a = (v + lim) * (_ENTROPY_BINS / (2.0 * lim))
    np.floor(a, out=a)
    np.minimum(a, _ENTROPY_BINS - 1, out=a)
    flat = (a @ _ENTROPY_BINS ** np.arange(d - 1.0, -1.0, -1.0)).astype(np.intp)
    return np.bincount(flat, minlength=_ENTROPY_BINS ** d)


@dataclass
class PositivityReport:
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
    for s in ens.species:
        counts = utils.grid_counts(s.velocities, edges)
        empty = inside & (counts == 0)
        if np.any(empty):
            populated_radius = float(max(np.min(center_norm[empty])
                                         - (edges[1] - edges[0]), 0.0))
        else:
            populated_radius = float(np.max(center_norm[inside]))
        reports.append(PositivityReport(
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

    A file with a bad magic or version, a d other than 2 or 3, too short for
    its header's count, without velocities or with one not finite raises
    ValidationError naming it. The header is checked against the file's size
    before the payload is read.
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
        try:
            utils.check_dimension(d)
        except ValidationError as exc:
            raise ValidationError(f"snapshot {path}: {exc}") from None
        left = os.fstat(fh.fileno()).st_size - 20
        if count * d * 8 > left:
            raise ValidationError(f"snapshot {path}: payload holds {left} bytes, "
                                  f"header promises {count} x {d} float64 "
                                  f"({count * d * 8} bytes)")
        payload = fh.read(count * d * 8)
    v = np.frombuffer(payload, dtype="<f8").reshape(count, d).copy()
    if count == 0 or not np.isfinite(v).all():
        raise ValidationError(f"snapshot {path}: needs one velocity or more, all finite")
    return v
