import math
import warnings

import numpy as np
import pytest

from kten import simulator as sim
from kten.errors import MajorantInflationWarning, ValidationError
from kten.geometry import MassPair, RestitutionParams
from kten.kernels import KernelSpec


def iso_cutoff(gamma=0.0, d=3, model="mixture"):
    return KernelSpec(gamma=gamma, d=d, h=lambda t: 1.0, model=model)


def elastic_cfg(n=3000, steps=40, seed=11, gamma=0.0, init="two_bump", dt=0.05):
    return sim.SimConfig(model="mixture", kernel=iso_cutoff(gamma), dt=dt,
                         steps=steps, particles=(n,), masses=(1.0,), seed=seed,
                         init=init)


def run(cfg, steps=None):
    ens = sim.build_ensemble(cfg)
    for _ in range(cfg.steps if steps is None else steps):
        ens = sim.step(ens, cfg)
    return ens


class TestEnsemble:
    def test_masses_must_increase(self):
        with pytest.raises(ValueError):
            sim.Ensemble(species=[sim.Species(2.0, np.zeros((4, 3)) + 1, 0.1),
                                  sim.Species(1.0, np.zeros((4, 3)) + 1, 0.1)],
                         time=0.0, seed=1)

    def test_weights_must_match(self):
        with pytest.raises(ValueError):
            sim.Ensemble(species=[sim.Species(1.0, np.ones((4, 3)), 0.1),
                                  sim.Species(2.0, np.ones((4, 3)), 0.2)],
                         time=0.0, seed=1)


class TestStep:
    def test_zero_steps_is_identity(self):
        cfg = elastic_cfg()
        ens = sim.build_ensemble(cfg)
        snapshot = ens.species[0].velocities.copy()
        out = run(cfg, steps=0)
        assert np.array_equal(out.species[0].velocities, snapshot)
        assert out.time == 0.0

    def test_determinism_bitwise(self):
        cfg = elastic_cfg(steps=30)
        a = run(cfg)
        b = run(cfg)
        assert a.time == b.time
        assert np.array_equal(a.species[0].velocities, b.species[0].velocities)

    def test_elastic_conservation(self):
        cfg = elastic_cfg(n=4000, steps=150)
        ens = sim.build_ensemble(cfg)
        m0 = sim.moments(ens)
        out = run(cfg)
        m1 = sim.moments(out)
        scale = math.sqrt(m0["energy"])
        assert np.abs(m1["momentum"] - m0["momentum"]).max() < 1e-10 * scale
        assert abs(m1["energy"] / m0["energy"] - 1.0) < 1e-10

    def test_collisions_happen(self):
        cfg = elastic_cfg(steps=5)
        ens = sim.build_ensemble(cfg)
        total = 0
        for _ in range(5):
            ens = sim.step(ens, cfg)
            total += ens.last_step_stats["accepted"]
        assert total > 0

    def test_inelastic_energy_monotone_and_bookkeeping(self):
        spec = iso_cutoff(model="inelastic")
        cfg = sim.SimConfig(model="inelastic", kernel=spec, dt=0.05, steps=0,
                            particles=(3000,), alpha=0.5, seed=5)
        ens = sim.build_ensemble(cfg)
        energies = [sim.moments(ens)["energy"]]
        predicted = 0.0
        for _ in range(80):
            ens = sim.step(ens, cfg)
            predicted += ens.last_step_stats["predicted_energy_loss"]
            energies.append(sim.moments(ens)["energy"])
        energies = np.array(energies)
        assert np.all(np.diff(energies) <= 1e-12)
        measured = energies[0] - energies[-1]
        # restitution-law bookkeeping: the loss recomputed from velocities
        # must equal (1 - alpha^2)/2 sum c^2 per collision to rounding
        assert measured == pytest.approx(predicted, rel=1e-10)

    def test_inelastic_cooling_rate_oracle(self):
        # gamma = 0 pseudo-Maxwell: energy decays exponentially in collision
        # count with rate (1 - alpha^2)/(d N) (zero-momentum start)
        alpha, n = 0.5, 4000
        spec = iso_cutoff(model="inelastic")
        cfg = sim.SimConfig(model="inelastic", kernel=spec, dt=0.05, steps=0,
                            particles=(n,), alpha=alpha, seed=5)
        ens = sim.build_ensemble(cfg)
        for s in ens.species:
            s.velocities -= s.velocities.mean(axis=0)
        e0 = sim.moments(ens)["energy"]
        ncoll = 0
        for _ in range(120):
            ens = sim.step(ens, cfg)
            ncoll += ens.last_step_stats["accepted"]
        e1 = sim.moments(ens)["energy"]
        rate_fit = math.log(e0 / e1) / ncoll
        rate_pred = (1.0 - alpha ** 2) / (3 * n)
        assert rate_fit == pytest.approx(rate_pred, rel=0.10)

    def test_d2_conservation_and_cooling(self):
        spec2 = iso_cutoff(gamma=0.0, d=2)
        cfg2 = sim.SimConfig(model="mixture", kernel=spec2, dt=0.05, steps=0,
                             particles=(2000,), masses=(1.0,), seed=7,
                             init="two_bump")
        ens = sim.build_ensemble(cfg2)
        m0 = sim.moments(ens)
        for _ in range(40):
            ens = sim.step(ens, cfg2)
        m1 = sim.moments(ens)
        assert abs(m1["energy"] / m0["energy"] - 1.0) < 1e-10
        spec_i = iso_cutoff(gamma=0.0, d=2, model="inelastic")
        cfg_i = sim.SimConfig(model="inelastic", kernel=spec_i, dt=0.05,
                              steps=0, particles=(2000,), alpha=0.6, seed=8)
        e = sim.build_ensemble(cfg_i)
        e0 = sim.moments(e)["energy"]
        for _ in range(40):
            e = sim.step(e, cfg_i)
        assert sim.moments(e)["energy"] < e0

    def test_mixture_equipartition(self):
        # independent physics oracle: elastic cross-species collisions drive
        # per-species temperatures m <|v - vbar|^2>/d to a common value
        spec = iso_cutoff(gamma=0.0)
        cfg = sim.SimConfig(model="mixture", kernel=spec, dt=0.04, steps=0,
                            particles=(15000, 15000), masses=(1.0, 3.0),
                            seed=31, init="gaussian")
        ens = sim.build_ensemble(cfg)
        ens.species[1].velocities *= 0.2     # start far from equipartition
        for _ in range(160):
            ens = sim.step(ens, cfg)
        temps = [s.mass * np.mean(np.sum((s.velocities
                                          - s.velocities.mean(0)) ** 2, axis=1)) / 3
                 for s in ens.species]
        assert temps[0] / temps[1] == pytest.approx(1.0, abs=0.05)

    def test_collision_rate_matches_kernel_normalization(self):
        # gamma = 1 Gaussian: accepted collisions per unit time must match
        # w N(N-1)/2 E|v - v*| A with E|X - Y| = 4/sqrt(pi) for unit normals
        spec = iso_cutoff(gamma=1.0)
        n = 20000
        cfg = sim.SimConfig(model="mixture", kernel=spec, dt=0.002, steps=0,
                            particles=(n,), masses=(1.0,), seed=77,
                            init="gaussian")
        ens = sim.build_ensemble(cfg)
        total, elapsed = 0, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(40):
                ens = sim.step(ens, cfg)
                total += ens.last_step_stats["accepted"]
                elapsed += cfg.dt
        predicted = (1.0 / n) * n * (n - 1) / 2 \
            * (4.0 / math.sqrt(math.pi)) * spec.angular_mass
        assert total / elapsed == pytest.approx(predicted, rel=0.02)

    def test_mixture_two_species_conservation(self):
        spec = iso_cutoff(gamma=0.0)
        cfg = sim.SimConfig(model="mixture", kernel=spec, dt=0.05, steps=0,
                            particles=(2000, 2000), masses=(1.0, 3.0), seed=9,
                            init="gaussian")
        ens = sim.build_ensemble(cfg)
        m0 = sim.moments(ens)
        for _ in range(80):
            ens = sim.step(ens, cfg)
        m1 = sim.moments(ens)
        assert m1["mass"] == m0["mass"]
        assert np.abs(m1["momentum"] - m0["momentum"]).max() \
            < 1e-8 * math.sqrt(m0["energy"])
        assert abs(m1["energy"] / m0["energy"] - 1.0) < 1e-8

    def test_hard_potential_majorant_recovery(self):
        # an undersized majorant (but big enough to draw candidates) must be
        # caught by the per-candidate monitor, inflated, and the step re-run
        spec = iso_cutoff(gamma=1.0)
        cfg = sim.SimConfig(model="mixture", kernel=spec, dt=0.02, steps=0,
                            particles=(1000,), masses=(1.0,), seed=3,
                            majorant=0.5, majorant_refresh=0)
        ens = sim.build_ensemble(cfg)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            out = sim.step(ens, cfg)
        assert any(issubclass(w.category, MajorantInflationWarning) for w in rec)
        assert out.majorant > 0.5
        # recovery is deterministic
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out2 = sim.step(ens, cfg)
        assert np.array_equal(out.species[0].velocities,
                              out2.species[0].velocities)

    def test_noncutoff_truncated_sampler_runs(self):
        spec = KernelSpec(gamma=-1.0, d=3, s=0.5, model="inelastic",
                          moderately_soft=True)
        cfg = sim.SimConfig(model="inelastic", kernel=spec, dt=0.002, steps=0,
                            particles=(500,), alpha=0.7, seed=6,
                            theta_min=0.05)
        ens = sim.build_ensemble(cfg)
        e0 = sim.moments(ens)["energy"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(10):
                ens = sim.step(ens, cfg)
        assert sim.moments(ens)["energy"] <= e0 + 1e-12

    def test_reduce_dt_warning_counts_block_particles(self):
        # gamma 0, cutoff, d = 3: one species draws about
        # 0.5 (n - 1) |S^1| dt candidates, 0.63 n at dt 0.2 and 0.31 n at
        # dt 0.1; the warning fires above half a candidate per particle
        n = 600

        def reduce_dt_messages(dt):
            cfg = sim.SimConfig(model="inelastic",
                                kernel=iso_cutoff(model="inelastic"), dt=dt,
                                steps=1, particles=(n,), alpha=0.5, seed=4)
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                sim.step(sim.build_ensemble(cfg), cfg)
            return [str(w.message) for w in rec if "reduce dt" in str(w.message)]

        assert reduce_dt_messages(0.1) == []
        msgs = reduce_dt_messages(0.2)
        assert len(msgs) == 1
        assert msgs[0] == (f"step draws {0.1 * (n - 1) * 2 * math.pi:.0f} "
                           f"candidates for {n} particles; reduce dt")

    def test_theta_min_required_for_strong_singularity(self):
        spec = KernelSpec(gamma=-1.0, d=3, s=0.7, model="inelastic",
                          moderately_soft=True)
        with pytest.raises(ValueError):
            sim.SimConfig(model="inelastic", kernel=spec, dt=0.01, steps=1,
                          particles=(100,), alpha=0.5, theta_min=0.0)


class TestMoments:
    def test_single_particle(self):
        ens = sim.Ensemble(
            species=[sim.Species(1.0, np.array([[1.0, 2.0, -1.0]]), 0.5)],
            time=0.0, seed=1)
        m = sim.moments(ens)
        assert m["mass"] == [0.5]
        assert np.allclose(m["momentum"], [0.5, 1.0, -0.5])
        assert m["energy"] == pytest.approx(0.5 * 6.0)

    def test_entropy_decreases_toward_equilibrium(self):
        cfg = elastic_cfg(n=20000, steps=120, init="two_bump")
        ens = sim.build_ensemble(cfg)
        h0 = sim.moments(ens)["entropy_estimate"]
        out = run(cfg)
        h1 = sim.moments(out)["entropy_estimate"]
        assert h1 < h0


class TestPositivityProbe:
    def test_point_mass_mostly_empty(self):
        v = np.zeros((5000, 3))
        ens = sim.Ensemble(species=[sim.Species(1.0, v, 1e-4)], time=0.0, seed=1)
        rep = sim.positivity_probe(ens, radius=2.0, bins=10)[0]
        assert rep.empty_bins > 0.9 * rep.checked_bins

    def test_relaxed_gaussian_populates_core(self):
        # probabilistic check at the documented scale: N = 1e6, 20^3 bins,
        # every bin within 3 thermal radii populated (corner-bin expected
        # counts ~ 19, so an empty bin has probability ~ e^-19 per bin)
        rng = np.random.default_rng(8)
        v = rng.normal(size=(10 ** 6, 3))
        ens = sim.Ensemble(species=[sim.Species(1.0, v, 1e-6)], time=0.0, seed=1)
        rep = sim.positivity_probe(ens, radius=3.0, bins=20)[0]
        assert rep.empty_bins == 0
        assert rep.populated_radius == pytest.approx(3.0, abs=0.4)

    def test_counts_nonnegative_by_construction(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(100, 2))
        ens = sim.Ensemble(species=[sim.Species(1.0, v, 0.01)], time=0.0, seed=1)
        reps = sim.positivity_probe(ens, radius=2.0, bins=5)
        assert reps[0].empty_bins >= 0


class TestSnapshotIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(137, 3))
        path = tmp_path / "s.kten"
        sim.write_snapshot(path, v)
        back = sim.read_snapshot(path)
        assert np.array_equal(back, v)
        raw = path.read_bytes()
        assert raw[:4] == b"KTEN"
        assert len(raw) == 20 + 137 * 3 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.kten"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValidationError, match="bad.kten: bad magic"):
            sim.read_snapshot(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v.kten"
        sim.write_snapshot(path, np.zeros((2, 3)))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="v.kten: unsupported version 9"):
            sim.read_snapshot(path)

    @pytest.mark.parametrize("keep", [10, 20, 20 + 8 * 7])
    def test_truncated_file_rejected(self, tmp_path, keep):
        path = tmp_path / "short.kten"
        sim.write_snapshot(path, np.ones((4, 2)))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValidationError, match="short.kten: truncated|short.kten: payload"):
            sim.read_snapshot(path)


class TestAngularSampler:
    def test_cutoff_iso_matches_half_sphere_density(self):
        spec = iso_cutoff()
        s = sim.AngularSampler(spec, theta_min=0.0)
        u = np.linspace(0.0, 1.0, 100001)[:-1]
        th = s.sample(u)
        # density sin(theta) on [0, pi/2]: cos(theta) uniform
        assert np.mean(np.cos(th)) == pytest.approx(0.5, abs=1e-3)
        assert s.angular_mass == pytest.approx(2.0 * math.pi, rel=1e-6)

    def test_noncutoff_angle_density(self):
        # inverse-CDF sampling reproduces the truncated angular density
        # b(cos t) sin^{d-2} t on [theta_min, pi]
        spec = KernelSpec(gamma=-1.0, d=3, s=0.5, model="inelastic",
                          moderately_soft=True)
        s = sim.AngularSampler(spec, theta_min=0.05)
        u = (np.arange(200000) + 0.5) / 200000
        th = s.sample(u)
        grid = np.linspace(0.05, math.pi, 2001)
        dens = spec.assembled_b.from_angle(grid) * np.sin(grid)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                               * np.diff(grid))])
        cdf /= cdf[-1]
        # quantile comparison at a few probability levels
        for q in (0.1, 0.5, 0.9):
            want = float(np.interp(q, cdf, grid))
            got = float(np.quantile(th, q))
            assert got == pytest.approx(want, rel=2e-3)

    def test_noncutoff_grazing_truncation_reported(self):
        # the grazing count below theta_min is non-integrable for every
        # s in (0,1) (that is what noncutoff means); the finite diagnostic is
        # its momentum-transfer weight
        spec = KernelSpec(gamma=-1.0, d=3, s=0.5, model="inelastic",
                          moderately_soft=True)
        s = sim.AngularSampler(spec, theta_min=1e-2)
        assert s.discarded_mass == math.inf
        assert 0.0 < s.discarded_transfer < math.inf
        assert np.all(s.sample(np.array([0.0, 0.5, 1.0])) >= 1e-2 - 1e-12)
        # a smaller truncation discards less transfer weight
        s2 = sim.AngularSampler(spec, theta_min=1e-3)
        assert s2.discarded_transfer < s.discarded_transfer


def _commit_one_at_a_time(vi, vj, idx_a, idx_b, u_acc, u_theta, u_azim,
                          majorant, gamma, sampler, pair_params, d, w, stats,
                          same):
    """Reference schedule for _process_candidates: one candidate per batch."""
    for k in range(len(idx_a)):
        one = slice(k, k + 1)
        sim._apply_wave(vi, vj, idx_a[one], idx_b[one], u_acc[one],
                        u_theta[one], u_azim[one], majorant, gamma, sampler,
                        pair_params, d, w, stats)
    return len(idx_a)


def _equivalence_cfg(case):
    # each majorant bounds every pair speed factor of its run, so no
    # violation (and no schedule-dependent retry) can occur
    if case == "inelastic_cutoff_d3":
        return sim.SimConfig(model="inelastic", kernel=iso_cutoff(model="inelastic"),
                             dt=0.1, steps=4, particles=(800,), alpha=0.5,
                             seed=41)
    if case == "inelastic_cutoff_d2":
        return sim.SimConfig(model="inelastic",
                             kernel=iso_cutoff(gamma=1.0, d=2, model="inelastic"),
                             dt=0.02, steps=4, particles=(800,), alpha=0.6,
                             seed=42, majorant=20.0, majorant_refresh=0,
                             init="two_bump")
    if case == "mixture_two_species":
        return sim.SimConfig(model="mixture", kernel=iso_cutoff(gamma=0.0),
                             dt=0.1, steps=4, particles=(500, 300),
                             masses=(1.0, 3.0), seed=43)
    if case == "noncutoff":
        spec = KernelSpec(gamma=1.0, d=3, s=0.2, model="mixture")
        return sim.SimConfig(model="mixture", kernel=spec, dt=0.0008, steps=4,
                             particles=(600,), masses=(1.0,), seed=44,
                             majorant=20.0, majorant_refresh=0)
    raise ValueError(case)


class TestLevelSchedule:
    @staticmethod
    def trajectory(cfg):
        ens = sim.build_ensemble(cfg)
        states, levels = [], 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", MajorantInflationWarning)
            for _ in range(cfg.steps):
                ens = sim.step(ens, cfg)
                states.append(([s.velocities.copy() for s in ens.species],
                               ens.last_step_stats["accepted"]))
                levels += ens.last_step_stats["levels"]
        return states, levels

    @pytest.mark.parametrize("case", ["inelastic_cutoff_d3", "inelastic_cutoff_d2",
                                      "mixture_two_species", "noncutoff"])
    def test_levels_equal_sequential_commit(self, case, monkeypatch):
        cfg = _equivalence_cfg(case)
        by_level, levels = self.trajectory(cfg)
        monkeypatch.setattr(sim, "_process_candidates", _commit_one_at_a_time)
        one_by_one, candidates = self.trajectory(cfg)
        # the schedule batched the candidates, and changed no bit
        assert cfg.steps < levels < candidates
        for (v_lvl, acc_lvl), (v_seq, acc_seq) in zip(by_level, one_by_one):
            assert acc_lvl == acc_seq
            for a, b in zip(v_lvl, v_seq):
                assert np.array_equal(a, b)

    def test_predecessors_match_a_scan(self):
        rng = np.random.default_rng(5)
        n, m = 50, 400
        idx_a = rng.integers(0, n, m)
        idx_b = (idx_a + 1 + rng.integers(0, n - 1, m)) % n
        pred = sim._predecessors(idx_a, idx_b)
        last = {}
        for k, (a, b) in enumerate(zip(idx_a, idx_b)):
            assert pred[k] == last.get(a, m)
            assert pred[m + k] == last.get(b, m)
            last[a] = last[b] = k

    def test_violation_reports_level_maximum(self, monkeypatch):
        # the observed value of a violation is the largest speed factor of
        # the level that violated; the majorant goes to 1.5 x max(observed,
        # majorant)
        spec = iso_cutoff(gamma=1.0)
        cfg = sim.SimConfig(model="mixture", kernel=spec, dt=0.02, steps=0,
                            particles=(20000,), masses=(1.0,), seed=5,
                            majorant=0.5, majorant_refresh=0)
        ens = sim.build_ensemble(cfg)
        apply_wave = sim._apply_wave
        violated = []

        def recording_apply_wave(vi, vj, ia, ib, *args):
            try:
                apply_wave(vi, vj, ia, ib, *args)
            except sim._Violation as exc:
                violated.append((float(np.max(np.linalg.norm(vi[ia] - vj[ib],
                                                             axis=1))),
                                 exc.observed))
                raise

        monkeypatch.setattr(sim, "_apply_wave", recording_apply_wave)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MajorantInflationWarning)
            out = sim.step(ens, cfg)
        assert len(violated) == 1
        level_max, observed = violated[0]
        assert observed == level_max
        assert out.majorant == 1.5 * max(observed, 0.5)
        assert out.majorant == pytest.approx(8.757288056350166, rel=1e-12)


class TestModuleState:
    def test_stepping_leaves_no_module_state(self):
        def state():
            return {k: len(v) for k, v in vars(sim).items()
                    if not k.startswith("__")
                    and isinstance(v, (dict, list, set))}

        before = state()
        for seed in (1, 2, 3):
            cfg = elastic_cfg(n=200, steps=2, seed=seed)
            run(cfg)
            assert cfg.sampler is cfg.sampler      # built once per config
        assert state() == before


def _np_cross_frame(khat):
    """The tangent frame as built with np.cross and np.linalg.norm."""
    ref = np.zeros_like(khat)
    ref[np.arange(len(khat)), np.argmin(np.abs(khat), axis=1)] = 1.0
    e1 = np.cross(khat, ref)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return e1, np.cross(khat, e1)


class TestCommitKernels:
    def test_cross3_and_frame_match_numpy_bits(self):
        rng = np.random.default_rng(17)
        khat = rng.normal(size=(50000, 3))
        khat /= np.linalg.norm(khat, axis=1, keepdims=True)
        other = rng.normal(size=(50000, 3))
        assert np.array_equal(sim._cross3(khat, other), np.cross(khat, other))
        e1, e2 = sim._orthonormal_frame(khat)
        ref1, ref2 = _np_cross_frame(khat)
        assert np.array_equal(e1, ref1) and np.array_equal(e2, ref2)

    @pytest.mark.parametrize("case", ["inelastic_cutoff_d3", "noncutoff_mixture_d2"])
    def test_fully_accepted_level_equals_masked_path(self, case):
        # gamma 0 with majorant 2 accepts exactly the candidates with
        # u_acc < 1/2; three extra rejected candidates on their own particles
        # send the same collisions through the masked path
        if case == "inelastic_cutoff_d3":
            d, sampler = 3, sim.AngularSampler(iso_cutoff(model="inelastic"), 0.0)
            params = RestitutionParams(0.5)
        else:
            d = 2
            sampler = sim.AngularSampler(
                KernelSpec(gamma=0.0, d=2, s=0.2, model="mixture"), 0.05)
            params = MassPair(1.0, 1.0)
        rng = np.random.default_rng(23)
        v0 = rng.normal(size=(206, d))
        perm = rng.permutation(200)
        ia, ib = perm[:100], perm[100:]
        u_theta, u_azim = rng.random(103), rng.random(103) * 2.0 * math.pi
        u_acc = np.concatenate([0.49 * rng.random(100), [0.6, 0.8, 0.99]])
        results = []
        for ia_k, ib_k, m in ((ia, ib, 100),
                              (np.append(ia, [200, 201, 202]),
                               np.append(ib, [203, 204, 205]), 103)):
            v = v0.copy()
            stats = {"accepted": 0, "sum_c2": 0.0, "predicted_energy_loss": 0.0}
            sim._apply_wave(v, v, ia_k, ib_k, u_acc[:m], u_theta[:m], u_azim[:m],
                            2.0, 0.0, sampler, params, d, 1e-3, stats)
            results.append((v, stats))
        (v_all, stats_all), (v_masked, stats_masked) = results
        assert stats_all == stats_masked and stats_all["accepted"] == 100
        assert np.array_equal(v_all, v_masked)
        assert not np.array_equal(v_all, v0)
