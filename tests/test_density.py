import math

import numpy as np
import pytest
from scipy.special import erf, gammaln, hyp1f1

from kten import utils
from kten.density import DensityField
from kten.errors import ValidationError
from kten.kernels import gaussian_bump
from quadrature_field import SHELL_RULE, quadrature


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

    @pytest.mark.parametrize("d", [1, 4])
    def test_dimension_outside_2_and_3_is_refused(self, d):
        with pytest.raises(ValidationError, match=f"^'d' must be 2 or 3, got {d}"):
            DensityField.gaussian(d)

    @pytest.mark.parametrize("center", [[1.0, 2.0], [0.0, 0.0, 0.0, 0.0], [0.0, math.nan, 0.0]])
    def test_center_that_is_not_d_finite_numbers_is_refused(self, center):
        # a 2-vector center at d = 3 was taken, and radial_moment then failed
        # with a numpy broadcast error
        with pytest.raises(ValidationError, match="^'center' must be 3 finite numbers"):
            DensityField.gaussian(3, center=center)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
    def test_sigma_not_positive_and_finite_is_refused(self, sigma):
        with pytest.raises(ValidationError, match="^'sigma' must be > 0 and finite"):
            DensityField.gaussian(3, sigma=sigma)

    @pytest.mark.parametrize("mass", [-1.0, math.inf, math.nan])
    def test_mass_negative_or_not_finite_is_refused(self, mass):
        with pytest.raises(ValidationError, match="^'mass' must be >= 0 and finite"):
            DensityField.gaussian(3, mass=mass)

    @pytest.mark.parametrize("d, gamma", [(3, -3.0), (3, -3.5), (2, -2.0), (3, math.nan)])
    def test_divergent_radial_moment_is_refused(self, d, gamma):
        # the shell rule gave 14.6 at gamma = -3 and 14565 at -3.5 (d = 3,
        # v = 0), set by its inner cutoff, for an integral that diverges
        with pytest.raises(ValidationError, match=f"^'gamma' must be > -d = {-d}"):
            DensityField.gaussian(d).radial_moment(np.zeros(d), gamma)


class TestFromCallable:
    """A density known only through its evaluator: the test-side quadrature oracle."""

    @pytest.mark.parametrize("d, gamma, rtol", [
        (3, -1.0, 1e-12), (3, 0.5, 1e-12), (3, 1.0, 1e-12), (2, 1.0, 1e-12), (2, 0.5, 1e-12),
        (2, -1.0, 1e-12), (2, -1.5, 1e-11), (3, -2.5, 1e-11)])
    def test_shell_moments_match_the_kummer_form(self, d, gamma, rtol):
        # the unit Gaussian on the quadrature path: shells centered at v,
        # however far v sits from the density center
        direction = np.array([1.0, 2.0, 2.0])[:d] / np.linalg.norm([1.0, 2.0, 2.0][:d])
        f = quadrature(DensityField.gaussian(d))
        for speed in LOSS_RATE_SPEEDS:
            assert f.radial_moment(speed * direction, gamma) == pytest.approx(
                kummer_moment(d, gamma, speed), rel=rtol)


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
    got_f, got_bump = f(v), bump(v)
    assert np.array_equal(got_f, norm * np.exp(-0.5 * r2 / sigma ** 2))
    assert np.array_equal(got_bump, amplitude * np.exp(-0.5 * r2 / width ** 2))
    assert np.shape(got_f) == np.shape(got_bump) == v.shape[:-1]
    if layout == "point":
        assert np.ndim(got_f) == 0 and np.ndim(got_bump) == 0


@pytest.mark.parametrize("d", [2, 3])
def test_shell_points_equal_the_broadcast_expression(d):
    f = quadrature(DensityField.gaussian(d))
    dirs, _ = utils.sphere_rule(d, *SHELL_RULE)
    rho = np.geomspace(1e-9, 12.0, 37)
    origin = np.array([0.3, -1.7, 2.2][:d])
    pts = f.shell_points(origin, rho)
    assert pts.shape == (rho.size, len(dirs), d)
    assert np.array_equal(pts, origin + rho[:, None, None] * dirs[None, :, :])
    assert pts[..., 0].flags.c_contiguous
