"""Exact binary-collision kinematics.

Covers the inelastic mono-species rule (restitution coefficient alpha,
beta = (1+alpha)/2) and the elastic two-mass mixture rule, in both the
scattering-direction (sigma) and impact-normal (n) parameterizations,
plus the auxiliary points and half-angle identities that the Carleman-form
kernels are built on.

All operations are pure and broadcast over leading axes: velocity arguments
may be single vectors of shape (d,) or batches of shape (..., d). The
half-sphere restriction on n is a parameterization convention only; any unit
n is accepted and produces the same collision as its half-sphere
representative.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import utils
from .errors import EqualMasses, NonUnitNormal, ZeroRelativeVelocity

UNIT_TOL = 1e-9


@dataclass(frozen=True)
class RestitutionParams:
    """Normal restitution coefficient alpha in (0,1) and beta = (1+alpha)/2."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def beta(self):
        return 0.5 * (1.0 + self.alpha)

    @property
    def kappa(self):
        # the contraction factor of the half-angle identities, as MassPair.kappa
        return self.beta

    @classmethod
    def from_beta(cls, beta):
        if not 0.5 < beta < 1.0:
            raise ValueError(f"beta must lie in (1/2, 1), got {beta}")
        return cls(alpha=2.0 * beta - 1.0)


@dataclass(frozen=True)
class MassPair:
    m_i: float
    m_j: float

    def __post_init__(self):
        for name, m in (("m_i", self.m_i), ("m_j", self.m_j)):
            if not (m > 0.0 and np.isfinite(m)):
                raise ValueError(f"{name} must be positive and finite, got {m}")
        if not np.isfinite(self.total):
            # kappa = 2 m_j / total would be nan or inf
            raise ValueError(f"m_i + m_j overflows: {self.m_i} + {self.m_j}")

    @property
    def total(self):
        return self.m_i + self.m_j

    @property
    def kappa(self):
        # 2 m_j / (m_i + m_j): the contraction factor of the half-angle identities
        return 2.0 * self.m_j / self.total


class PostCollision(NamedTuple):
    """Post-collision pair; `degenerate` flags |v - v*| = 0 no-op events."""

    v_prime: np.ndarray
    v_star_prime: np.ndarray
    degenerate: np.ndarray | bool


def _vec(x):
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        raise ValueError("velocity arguments must be vectors")
    return a


def _check_unit(u, name):
    norm = np.sqrt(_sq_norm(u))
    if np.any(np.abs(norm - 1.0) > UNIT_TOL):
        raise NonUnitNormal(f"{name} must be a unit vector (|{name}| - 1 exceeds {UNIT_TOL})")


def _norm(x):
    return np.sqrt(_dot(x, x))


def _dot(a, b):
    return utils.row_dot(a, b)[..., None]


def _sq_norm(x):
    """|x|^2 over the last axis; cheaper than |x| and zero exactly where it is."""
    return np.einsum("...i,...i->...", x, x)


def _flag(size):
    """Degenerate |v - v*| = 0 events; size is |v - v*| or its square."""
    deg = size == 0.0
    return bool(deg) if deg.ndim == 0 else deg


def inelastic_post_sigma(v, v_star, sigma, p: RestitutionParams):
    """Inelastic post-collision velocities from a scattering direction sigma.

    v'  = (v+v*)/2 + ((1-beta)/2)(v-v*) + (beta/2)|v-v*| sigma, symmetric for v*'.
    Degenerate |v - v*| = 0 events return the inputs unchanged, flagged.
    """
    v, v_star, sigma = _vec(v), _vec(v_star), _vec(sigma)
    _check_unit(sigma, "sigma")
    beta = p.beta
    rel = v - v_star
    r = _norm(rel)
    center = 0.5 * (v + v_star)
    half = 0.5 * (1.0 - beta) * rel + 0.5 * beta * r * sigma
    return PostCollision(center + half, center - half, _flag(r[..., 0]))


def inelastic_post_n(v, v_star, n, p: RestitutionParams):
    """Inelastic post-collision velocities from an impact normal n.

    v' = v - beta <v-v*, n> n and v*' = v* + beta <v-v*, n> n; the normal
    relative velocity reflects with factor -alpha, the tangential part is
    unchanged.
    """
    v, v_star, n = _vec(v), _vec(v_star), _vec(n)
    _check_unit(n, "n")
    rel = v - v_star
    shift = p.beta * _dot(rel, n) * n
    return PostCollision(v - shift, v_star + shift, _flag(_sq_norm(rel)))


def mixture_post_sigma(v, v_star, sigma, m: MassPair):
    """Elastic two-mass post-collision velocities from a scattering direction.

    Center-of-mass form with weights m_i/(m_i+m_j) and m_j/(m_i+m_j);
    conserves momentum and kinetic energy exactly and keeps |v'-v*'| = |v-v*|.
    """
    v, v_star, sigma = _vec(v), _vec(v_star), _vec(sigma)
    _check_unit(sigma, "sigma")
    total = m.total
    rel = v - v_star
    r = _norm(rel)
    com = (m.m_i * v + m.m_j * v_star) / total
    rs = r * sigma
    return PostCollision(com + (m.m_j / total) * rs, com - (m.m_i / total) * rs,
                         _flag(r[..., 0]))


def mixture_post_n(v, v_star, n, m: MassPair):
    """Elastic two-mass rule in the impact-normal parameterization."""
    v, v_star, n = _vec(v), _vec(v_star), _vec(n)
    _check_unit(n, "n")
    rel = v - v_star
    dot = _dot(rel, n)
    total = m.total
    return PostCollision(v - (2.0 * m.m_j / total) * dot * n,
                         v_star + (2.0 * m.m_i / total) * dot * n,
                         _flag(_sq_norm(rel)))


class AuxPointsInelastic(NamedTuple):
    P: np.ndarray
    Q: np.ndarray
    residual_P: np.ndarray     # <P - v, P - v*>, zero for valid triples
    residual_Q: np.ndarray     # <v' - Q, v' - v>, zero for valid triples


def aux_points_inelastic(v, v_star, v_prime, p: RestitutionParams):
    """Auxiliary points of an inelastic collision triple.

    P = (1/beta) v' - (1/beta - 1) v lies on the extension of the segment
    v..v' and satisfies P-v perpendicular to P-v* for valid triples;
    Q = (1-beta) v + beta v* satisfies v'-Q perpendicular to v'-v.
    The orthogonality residuals are returned, not asserted, so the caller
    owns the tolerance.
    """
    v, v_star, v_prime = _vec(v), _vec(v_star), _vec(v_prime)
    inv_b = 1.0 / p.beta
    P = inv_b * v_prime - (inv_b - 1.0) * v
    Q = (1.0 - p.beta) * v + p.beta * v_star
    res_p = _dot(P - v, P - v_star)[..., 0]
    res_q = _dot(v_prime - Q, v_prime - v)[..., 0]
    return AuxPointsInelastic(P, Q, res_p, res_q)


class AuxPointsMixture(NamedTuple):
    kind: str                  # "PQ" for m_i < m_j, "RS" for m_i > m_j
    points: dict
    residuals: dict


def aux_points_mixture(v, v_star, v_prime, v_star_prime, m: MassPair):
    """Auxiliary points of a mixture collision, keyed by the mass ordering.

    For m_i < m_j returns P (on segment v..v', P-v' perp P-v*') and Q (on the
    extension of v*'..v', v-Q perp v-v'); for m_i > m_j returns R (extension
    of v..v', R-v perp R-v*) and S (on segment v..v*, S-v' perp v-v').
    Raises EqualMasses for m_i == m_j, where every point degenerates onto the
    collision sphere and the mono-species path applies.
    """
    if m.m_i == m.m_j:
        raise EqualMasses("aux points are undefined at m_i == m_j")
    v, v_star = _vec(v), _vec(v_star)
    v_prime, v_star_prime = _vec(v_prime), _vec(v_star_prime)
    total = m.total
    if m.m_i < m.m_j:
        P = (total / (2.0 * m.m_j)) * v + ((m.m_j - m.m_i) / (2.0 * m.m_j)) * v_prime
        Q = (2.0 * m.m_j / total) * v_star_prime - ((m.m_j - m.m_i) / total) * v_prime
        residuals = {
            "P": _dot(P - v_prime, P - v_star_prime)[..., 0],
            "Q": _dot(v - Q, v - v_prime)[..., 0],
        }
        return AuxPointsMixture("PQ", {"P": P, "Q": Q}, residuals)
    R = (total / (2.0 * m.m_j)) * v_prime - ((m.m_i - m.m_j) / (2.0 * m.m_j)) * v
    S = ((m.m_i - m.m_j) / total) * v + (2.0 * m.m_j / total) * v_star
    residuals = {
        "R": _dot(R - v, R - v_star)[..., 0],
        "S": _dot(S - v_prime, v - v_prime)[..., 0],
    }
    return AuxPointsMixture("RS", {"R": R, "S": S}, residuals)


def half_angle(v, v_star, v_prime, params):
    """Half-angle pair (cos(theta/2), sin(theta/2)) of a collision triple.

    sin(theta/2) = |v - v'| / (kappa |v - v*|) with kappa = beta for the
    inelastic rule and kappa = 2 m_j/(m_i+m_j) for the mixture rule; the
    cosine comes from the matching auxiliary-point distance, so the pair
    satisfies cos^2 + sin^2 = 1 exactly for valid triples.
    """
    v, v_star, v_prime = _vec(v), _vec(v_star), _vec(v_prime)
    rel = _norm(v - v_star)[..., 0]
    if np.any(rel == 0.0):
        raise ZeroRelativeVelocity("half_angle requires |v - v*| > 0")
    if isinstance(params, RestitutionParams):
        kappa = params.beta
        num_cos = np.linalg.norm((1.0 - kappa) * v + kappa * v_star - v_prime, axis=-1)
    elif isinstance(params, MassPair):
        m = params
        kappa = m.kappa
        num_cos = np.linalg.norm(
            (m.m_i - m.m_j) * v + 2.0 * m.m_j * v_star - m.total * v_prime, axis=-1
        ) / m.total
    else:
        raise TypeError("params must be RestitutionParams or MassPair")
    denom = kappa * rel
    sin_half = np.linalg.norm(v - v_prime, axis=-1) / denom
    cos_half = num_cos / denom
    if sin_half.ndim == 0:
        return float(cos_half), float(sin_half)
    return cos_half, sin_half


@dataclass(frozen=True)
class CollisionFrame:
    """A validated (v, v*, sigma, cos theta) tuple."""

    v: np.ndarray
    v_star: np.ndarray
    sigma: np.ndarray
    cos_theta: float

    TOL = 1e-12

    def __post_init__(self):
        if abs(np.linalg.norm(self.sigma) - 1.0) > self.TOL:
            raise NonUnitNormal("sigma must be a unit vector")
        rel = self.v - self.v_star
        r = np.linalg.norm(rel)
        if r == 0.0:
            raise ZeroRelativeVelocity("collision frame needs |v - v*| > 0")
        c = float(np.dot(rel / r, self.sigma))
        if abs(c - self.cos_theta) > self.TOL:
            raise ValueError("cos_theta inconsistent with (v, v*, sigma)")


def make_collision_frame(v, v_star, sigma):
    v, v_star, sigma = _vec(v), _vec(v_star), _vec(sigma)
    rel = v - v_star
    r = np.linalg.norm(rel)
    if r == 0.0:
        raise ZeroRelativeVelocity("collision frame needs |v - v*| > 0")
    c = float(np.dot(rel / r, sigma))
    return CollisionFrame(v=v, v_star=v_star, sigma=sigma, cos_theta=c)


def normal_from_collision(v, v_prime):
    """Impact normal recovered from a pre/post pair: n = (v - v')/|v - v'|.

    Both collision rules displace v along -n, so the normalized difference is
    the half-sphere representative with <v - v*, n> >= 0.
    """
    v, v_prime = _vec(v), _vec(v_prime)
    diff = v - v_prime
    r = _norm(diff)
    if np.any(r[..., 0] == 0.0):
        raise ZeroRelativeVelocity("v' == v leaves the normal undefined")
    return diff / r


def verify_identities(seed, n, d):
    """Residuals of the collision identities on n random pairs in dimension d.

    Covers the inelastic rule (beta 0.75) and the mixture rule (masses 1, 2.5);
    "pass" is true when each is within its tolerance, scaled by max |v - v*|.
    """
    rng = utils.substream(seed, 0xEC)
    v = rng.normal(size=(n, d))
    vs = rng.normal(size=(n, d))
    sig = rng.normal(size=(n, d))
    sig /= np.linalg.norm(sig, axis=1, keepdims=True)
    p = RestitutionParams.from_beta(0.75)
    m = MassPair(1.0, 2.5)

    vp, vsp, _ = inelastic_post_sigma(v, vs, sig, p)
    mom = np.max(np.abs((vp + vsp) - (v + vs)))
    nvec = normal_from_collision(v, vp)
    rest = np.max(np.abs(np.sum((vp - vsp) * nvec, axis=1)
                         + p.alpha * np.sum((v - vs) * nvec, axis=1)))
    vp_n, vsp_n, _ = inelastic_post_n(v, vs, nvec, p)
    agree = max(np.max(np.abs(vp_n - vp)), np.max(np.abs(vsp_n - vsp)))
    shrink = np.max(np.linalg.norm(vp - vsp, axis=1)
                    - np.linalg.norm(v - vs, axis=1))
    mp, msp, _ = mixture_post_sigma(v, vs, sig, m)
    mom_m = np.max(np.abs((m.m_i * mp + m.m_j * msp) - (m.m_i * v + m.m_j * vs)))
    en_m = np.max(np.abs(m.m_i * np.sum(mp ** 2, axis=1)
                         + m.m_j * np.sum(msp ** 2, axis=1)
                         - m.m_i * np.sum(v ** 2, axis=1)
                         - m.m_j * np.sum(vs ** 2, axis=1)))
    vp_neg, vsp_neg, _ = inelastic_post_sigma(v, vs, -sig, p)
    swap_gap = float(np.min(np.linalg.norm(vp_neg - vsp, axis=1)
                            + np.linalg.norm(vsp_neg - vp, axis=1)))
    scale = float(np.max(np.linalg.norm(v - vs, axis=1)))
    ok = (mom < 1e-12 * scale and rest < 1e-11 * scale and agree < 1e-10 * scale
          and shrink < 1e-12 * scale and mom_m < 1e-11 * scale
          and en_m < 1e-10 * scale ** 2 and swap_gap > 1e-6)
    return {
        "samples": n, "d": d,
        "momentum_residual": float(mom),
        "restitution_residual": float(rest),
        "sigma_n_agreement": float(agree),
        "relative_speed_growth": float(shrink),
        "mixture_momentum_residual": float(mom_m),
        "mixture_energy_residual": float(en_m),
        "sigma_flip_swap_gap": swap_gap,
        "pass": bool(ok),
    }
