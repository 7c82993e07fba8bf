import math

import numpy as np
import pytest
from scipy.special import erf, gammaln, hyp1f1

from kten.density import DensityField
from kten.kernels import gaussian_bump


def coulomb_moment_of_unit_gaussian(speed):
    # closed form: integral of (2pi)^{-3/2} e^{-|x|^2/2} / |x - v| = erf(|v|/sqrt2)/|v|
    return erf(speed / math.sqrt(2.0)) / speed


def mean_distance_to_unit_gaussian(speed):
    # E|X - v| for X ~ N(0, I_3): noncentral chi with 3 dof
    mu = speed
    return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * mu * mu) \
        + (mu + 1.0 / mu) * erf(mu / math.sqrt(2.0))


def kummer_moment(d, gamma, dist, sigma=1.0, mass=1.0):
    # mass E|X - v|^gamma for X ~ N(c, sigma^2 I_d) and |v - c| = dist, gamma > -d
    ratio = math.exp(gammaln(0.5 * (d + gamma)) - gammaln(0.5 * d))
    return mass * (2.0 * sigma ** 2) ** (0.5 * gamma) * ratio \
        * hyp1f1(-0.5 * gamma, 0.5 * d, -0.5 * (dist / sigma) ** 2)


LOSS_RATE_SPEEDS = np.linspace(0.0, 5.0, 20)


class TestGaussianField:
    def test_moments(self):
        f = DensityField.gaussian(3, sigma=1.3, mass=2.0)
        assert f.mass == 2.0
        assert f.energy == pytest.approx(2.0 * 3 * 1.3 ** 2)
        assert f.radial_moment(np.zeros(3), 0.0) == pytest.approx(2.0, rel=1e-9)
        assert f.radial_moment(np.zeros(3), 2.0) == pytest.approx(f.energy, rel=1e-9)

    @pytest.mark.parametrize("speed", [0.5, 1.0, 3.0])
    def test_coulomb_closed_form(self, speed):
        f = DensityField.gaussian(3)
        v = np.array([speed, 0.0, 0.0])
        assert f.radial_moment(v, -1.0) == pytest.approx(
            coulomb_moment_of_unit_gaussian(speed), rel=1e-9)

    @pytest.mark.parametrize("speed", [0.5, 2.0])
    def test_mean_distance_closed_form(self, speed):
        f = DensityField.gaussian(3)
        v = np.array([0.0, speed, 0.0])
        assert f.radial_moment(v, 1.0) == pytest.approx(
            mean_distance_to_unit_gaussian(speed), rel=1e-9)

    def test_d2_mass_energy(self):
        f = DensityField.gaussian(2, sigma=0.7)
        assert f.radial_moment(np.zeros(2), 0.0) == pytest.approx(1.0, rel=1e-9)
        assert f.radial_moment(np.zeros(2), 2.0) == pytest.approx(2 * 0.49, rel=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("gamma", [-1.0, 0.5, 1.0, 2.0])
    def test_moments_in_closed_form(self, d, gamma):
        # off-center, sigma != 1 and mass != 1
        center = np.array([0.4, -0.3, 0.2])[:d]
        direction = np.array([1.0, 2.0, 2.0])[:d] / np.linalg.norm([1.0, 2.0, 2.0][:d])
        f = DensityField.gaussian(d, sigma=0.7, mass=2.5, center=center)
        for speed in LOSS_RATE_SPEEDS:
            got = f.radial_moment(center + 0.7 * speed * direction, gamma)
            assert got == pytest.approx(kummer_moment(d, gamma, 0.7 * speed, 0.7, 2.5),
                                        rel=1e-13)


class TestFromCallable:
    def test_moments_computed(self):
        norm = 1.0 / math.pi ** 1.5
        f = DensityField.from_callable(
            lambda v: norm * np.exp(-np.sum(v ** 2, axis=-1)), 3, scale=0.8)
        assert f.mass == pytest.approx(1.0, rel=1e-8)
        assert f.energy == pytest.approx(1.5, rel=1e-8)

    @pytest.mark.parametrize("d, gamma, rtol", [
        (3, -1.0, 1e-12), (3, 0.5, 1e-12), (3, 1.0, 1e-12), (2, 1.0, 1e-12), (2, 0.5, 1e-12),
        (2, -1.0, 1e-12), (2, -1.5, 1e-11), (3, -2.5, 1e-11)])
    def test_shell_moments_match_the_kummer_form(self, d, gamma, rtol):
        # the unit Gaussian on the quadrature path: shells centered at v,
        # however far v sits from the density center
        direction = np.array([1.0, 2.0, 2.0])[:d] / np.linalg.norm([1.0, 2.0, 2.0][:d])
        f = DensityField.from_callable(DensityField.gaussian(d).evaluator, d, scale=1.0)
        for speed in LOSS_RATE_SPEEDS:
            assert f.radial_moment(speed * direction, gamma) == pytest.approx(
                kummer_moment(d, gamma, speed), rel=rtol)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            DensityField.from_callable(
                lambda v: -np.ones(v.shape[:-1]), 3, scale=1.0)


class TestParticleField:
    def test_histogram_moments_and_exact_particle_sums(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=(20000, 3))
        f = DensityField.from_particles(v, weight=1.0 / 20000)
        assert f.mass == pytest.approx(1.0)
        assert f.energy == pytest.approx(np.sum(v ** 2) / 20000)
        # radial moment is the exact weighted particle sum
        probe = np.array([0.3, 0.0, 0.0])
        direct = np.mean(np.linalg.norm(v - probe, axis=1) ** -1)
        assert f.radial_moment(probe, -1.0) == pytest.approx(direct, rel=1e-12)

    def test_evaluator_zero_outside_grid(self):
        v = np.zeros((10, 2))
        f = DensityField.from_particles(v, weight=0.1)
        assert f(np.array([100.0, 100.0])) == 0.0

    def test_evaluator_keeps_the_batch_shape(self):
        # a scalar only for one (d,) point, as the Gaussian evaluator gives
        rng = np.random.default_rng(8)
        f = DensityField.from_particles(rng.normal(size=(500, 3)), weight=1e-3)
        pts = rng.normal(size=(5, 3)) * 0.5
        assert isinstance(f(pts[0]), float)
        for shape in [(1, 3), (1, 1, 3), (5, 3), (5, 1, 3)]:
            batch = pts[: shape[0]].reshape(shape)
            got = f(batch)
            assert got.shape == shape[:-1]
            assert np.array_equal(got.ravel(), [f(p) for p in batch.reshape(-1, 3)])


def _layouts(d, seed):
    """The same random velocities as a single point, (n, d) rows, a C-order
    (L, nk, m, d) array and the coordinate-major view of a (d, L, nk, m) buffer."""
    rng = np.random.default_rng(seed)
    c_order = rng.normal(size=(4, 9, 8, d)) * 3.0
    coord_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(c_order, -1, 0)), 0, -1)
    assert not coord_major.flags.c_contiguous and np.array_equal(coord_major, c_order)
    return {"point": c_order[1, 2, 3].copy(), "rows": c_order.reshape(-1, d).copy(),
            "c_order": c_order, "coord_major": coord_major}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("layout", ["point", "rows", "c_order", "coord_major"])
def test_gaussian_and_bump_keep_the_bits_in_every_layout(d, layout):
    v = _layouts(d, 60 + d)[layout]
    center = np.linspace(-0.4, 0.3, d)
    sigma, mass, width, amplitude = 0.7, 2.5, 1.3, 0.8
    f = DensityField.gaussian(d, sigma=sigma, mass=mass, center=center)
    bump = gaussian_bump(center, width, amplitude)
    # the expressions both evaluators had before they summed column by column
    norm = mass / ((2.0 * np.pi * sigma ** 2) ** (d / 2.0))
    r2 = np.sum((v - center) ** 2, axis=-1)
    got_f, got_bump = f.evaluator(v), bump(v)
    assert np.array_equal(got_f, norm * np.exp(-0.5 * r2 / sigma ** 2))
    assert np.array_equal(got_bump, amplitude * np.exp(-0.5 * r2 / width ** 2))
    assert np.shape(got_f) == np.shape(got_bump) == v.shape[:-1]
    if layout == "point":
        assert np.ndim(got_f) == 0 and np.ndim(got_bump) == 0


@pytest.mark.parametrize("d", [2, 3])
def test_shell_points_equal_the_broadcast_expression(d):
    f = DensityField.gaussian(d)
    dirs, _ = f.sphere_rule()
    rho = np.geomspace(1e-9, 12.0, 37)
    origin = np.array([0.3, -1.7, 2.2][:d])
    pts = f._shell_points(origin, rho)
    assert pts.shape == (rho.size, len(dirs), d)
    assert np.array_equal(pts, origin + rho[:, None, None] * dirs[None, :, :])
    assert pts[..., 0].flags.c_contiguous


@pytest.mark.parametrize("d", [2, 3])
def test_histogram_lookup_reads_the_bin_that_counted_the_point(d):
    rng = np.random.default_rng(70 + d)
    bins = 32
    lim = float(rng.uniform(3.5, 4.5))         # not a round width: the arithmetic
    v = np.clip(rng.normal(size=(4000, d)), -3.4, 3.4)   # bin is off near edges
    v[0], v[1] = lim, -lim                       # the grid's two corners at pad 1
    edges = np.linspace(-lim, lim, bins + 1)
    # probes on interior edges and an ulp either side of them, counted as
    # particles, and the two corners
    on = rng.choice(edges[1:-1], size=(600, d))
    probes = np.concatenate([on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf)])
    f = DensityField.from_particles(np.concatenate([v, probes]), weight=1e-3, bins=bins,
                                    pad=1.0)
    counts = np.histogramdd(f.particles, bins=[edges] * d)[0]
    cell = (edges[1] - edges[0]) ** d
    probes = np.concatenate([probes, v[:2]])
    got = f(probes)
    for p, val in zip(probes, got):
        counted = np.argwhere(np.histogramdd(p[None], bins=[edges] * d)[0])
        assert len(counted) == 1
        assert val == 1e-3 * counts[tuple(counted[0])] / cell
    # batches of any shape read the same bins
    assert np.array_equal(f(probes[:600].reshape(20, 30, d)), got[:600].reshape(20, 30))
    # and off the grid, in any one coordinate, the density is zero
    outside = probes[:5].copy()
    outside[:, -1] = np.nextafter(edges[-1], np.inf)
    assert not np.any(f(outside))
    assert f(np.full(d, np.nan)) == 0.0
