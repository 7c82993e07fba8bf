"""Command-line entry point.

One executable, seven subcommands:

    simulate         DSMC run from a flat key=value config file
    kernel-scaling   ball-integral scaling of the Carleman kernel (CSV)
    cancellation     angular integral S1 across a parameter sweep (CSV)
    spreading        lower-bound iteration and envelope (JSON)
    region           region-estimate Monte Carlo over an eps grid (CSV)
    tails            tail fits and envelope domination of saved snapshots (JSON)
    verify-geometry  randomized kinematics identity checks (JSON)

Every run writes a manifest.json beside its outputs listing the resolved
configuration, seed, and the sha256 of every produced file; identical
(config, seed) reruns produce byte-identical outputs at any --threads value.
Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

import argparse
import csv
import functools
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, utils
from . import cancellation as canc
from . import geometry, kernels, simulator, spreading, tails
from .density import DensityField
from .errors import InsufficientData, NumericalError, UnknownSubcommand, ValidationError
from .geometry import RestitutionParams
from .utils import DEFAULT_SEED, format_float

SUBCOMMANDS = ("simulate", "kernel-scaling", "cancellation", "spreading",
               "region", "tails", "verify-geometry")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract here is exit 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    p = _Parser(prog="kten", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"kten {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"RNG seed (default {DEFAULT_SEED}, never wall clock)")
    common.add_argument("--threads", type=int, default=1,
                        help="worker threads, used by region only; results do not depend on it")
    common.add_argument("--output-dir", type=Path, default=Path("."),
                        help="directory for outputs and manifest.json")
    common.add_argument("--quiet", action="store_true")
    sub = p.add_subparsers(dest="subcommand")

    s = sub.add_parser("simulate", parents=[common], help="run a DSMC simulation")
    s.add_argument("--config", type=Path, required=True,
                   help="flat key=value config file")

    s = sub.add_parser("kernel-scaling", parents=[common])
    s.add_argument("--d", type=int, default=3)
    s.add_argument("--gamma", type=float, default=-1.0)
    s.add_argument("--s", type=float, default=0.5)
    s.add_argument("--beta", type=float, default=1.0 - 1e-3)
    s.add_argument("--r-min", type=float, default=1e-3)
    s.add_argument("--r-max", type=float, default=100.0)
    s.add_argument("--points-per-decade", type=int, default=4)

    s = sub.add_parser("cancellation", parents=[common])
    s.add_argument("--family", choices=["inelastic", "mixture-light", "mixture-heavy"],
                   default="inelastic")
    s.add_argument("--d", type=int, default=3)
    s.add_argument("--gamma", type=float, default=-1.0)
    s.add_argument("--s", type=float, default=0.5)
    s.add_argument("--grid", type=str, default="0.55:0.95:9",
                   help="lo:hi:n sweep of beta (or mass ratio for mixtures)")

    s = sub.add_parser("spreading", parents=[common])
    s.add_argument("--beta", type=float, default=None)
    s.add_argument("--masses", type=str, default=None,
                   help="comma separated m_i,m_j for the mixture iteration")
    s.add_argument("--gamma", type=float, default=-1.0)
    s.add_argument("--s", type=float, default=0.5)
    s.add_argument("--d", type=int, default=3)
    s.add_argument("--t0", type=float, default=0.5)
    s.add_argument("--l0", type=float, default=0.1)
    s.add_argument("--K", type=float, default=1e-3)
    s.add_argument("--n-max", type=int, default=30)

    s = sub.add_parser("region", parents=[common])
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--d", type=int, default=3)
    s.add_argument("--R", type=float, default=1.0)
    s.add_argument("--eps-grid", type=str, default="0.01:0.2:8",
                   help="lo:hi:n geometric grid")
    s.add_argument("--samples", type=int, default=10**6)

    s = sub.add_parser("tails", parents=[common])
    s.add_argument("--snapshots", type=Path, required=True,
                   help="directory produced by the simulate subcommand")
    s.add_argument("--envelope", type=Path, required=True,
                   help="JSON file with keys a, b, p")
    s.add_argument("--t0", type=float, required=True)

    s = sub.add_parser("verify-geometry", parents=[common])
    s.add_argument("--d", type=int, default=3)
    s.add_argument("--samples", type=int, default=10**5)
    return p


def dispatch(argv):
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        if not argv:
            raise _UsageError("a subcommand is required")
        if not argv[0].startswith("-") and argv[0] not in SUBCOMMANDS:
            raise UnknownSubcommand(f"unknown subcommand {argv[0]!r}")
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise _UsageError("a subcommand is required")
        started = time.time()
        runner = _RUNNERS[args.subcommand]
        args.output_dir.mkdir(parents=True, exist_ok=True)
        config, outputs = runner(args)
        # the simulate runner may redirect output_dir from its config file
        _write_manifest(args.output_dir, args.subcommand, config, args.seed,
                        started, outputs)
        return 0
    except (_UsageError, UnknownSubcommand) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (ValidationError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    sys.exit(dispatch(sys.argv[1:] if argv is None else argv))


@functools.cache
def _environment():
    """Interpreter, library versions and host of this process, for manifests."""
    # the scipy version comes from its installed metadata: importing scipy
    # here would load it into every subcommand
    from importlib.metadata import version
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def _write_manifest(outdir, subcommand, config, seed, started, outputs):
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "version": __version__,
        "environment": _environment(),
        "started_unix": started,
        "finished_unix": time.time(),
        "outputs": [
            {"path": str(Path(p).name), "sha256": utils.sha256_file(p),
             "bytes": Path(p).stat().st_size}
            for p in outputs
        ],
    }
    path = outdir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([format_float(x) if isinstance(x, float) else x
                        for x in row])


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_grid(text, geometric=False):
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise _UsageError(f"bad grid spec {text!r}, want lo:hi:n") from exc
    if geometric:
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


# -- subcommand runners --------------------------------------------------------

def _run_spreading(args):
    if (args.beta is None) == (args.masses is None):
        raise ValidationError("give exactly one of --beta or --masses")
    masses = None
    if args.masses is not None:
        masses = tuple(float(x) for x in args.masses.split(","))
        if len(masses) != 2:
            raise ValidationError("--masses wants two comma separated values")
    if args.beta is not None and not 0.5 < args.beta < 1.0:
        raise ValidationError(f"beta must lie in (1/2, 1), got {args.beta}")
    cfg = spreading.SpreadingConfig(d=args.d, gamma=args.gamma, s=args.s,
                                    beta=args.beta, masses=masses, T0=args.t0,
                                    l0=args.l0, K=args.K, seed=args.seed)
    trace, env = spreading.run_iteration(cfg, args.n_max)
    out = args.output_dir / "spreading.json"
    _write_json(out, {
        "trace": [{"n": st.n, "T": st.T, "R": st.R, "eps": st.eps,
                   "l": st.l, "log_l": st.log_l} for st in trace],
        "envelope": {"a": env.a, "b": env.b, "p": env.p},
    })
    if not args.quiet:
        print(f"p = {env.p:.6f}, b = {env.b:.6g}, a = {env.a:.6g}")
    return vars_config(args, ["beta", "masses", "gamma", "s", "d", "t0", "l0",
                              "K", "n_max"]), [out]


def _run_region(args):
    eps_grid = _parse_grid(args.eps_grid, geometric=True)
    estimates = spreading.region_estimate_mc(args.R, eps_grid, args.beta, args.d,
                                             args.samples, seed=args.seed,
                                             threads=args.threads)
    rows = []
    for eps, (est, se) in zip(eps_grid, estimates):
        rows.append((float(eps), est, se))
        if not args.quiet:
            print(f"eps={eps:.5g}  estimate={est:.6g}  stderr={se:.3g}")
    out = args.output_dir / "region.csv"
    _write_csv(out, ["eps", "estimate", "stderr"], rows)
    return vars_config(args, ["beta", "d", "R", "eps_grid", "samples"]), [out]


def _run_kernel_scaling(args):
    f = DensityField.gaussian(args.d)
    spec = kernels.KernelSpec(gamma=args.gamma, d=args.d, s=args.s,
                              model="inelastic", moderately_soft=args.gamma < 0)
    p = RestitutionParams.from_beta(args.beta)
    decades_small = math.log10(1.0 / args.r_min)
    decades_large = math.log10(args.r_max / 2.0)
    r_grid = np.concatenate([
        np.geomspace(args.r_min, 1.0, max(4, int(args.points_per_decade * decades_small))),
        np.geomspace(2.0, args.r_max, max(4, int(args.points_per_decade * decades_large))),
    ])
    rep = kernels.verify_Kf_scaling(f, spec, p, np.zeros(args.d), r_grid)
    rows = []
    for r, inner, outer in zip(rep.r, rep.inner_second_moment, rep.outer_integral):
        regime = "small" if r <= 1.0 else "large"
        si = rep.slopes.get(f"inner_{regime}", (math.nan,))[0]
        so = rep.slopes.get(f"outer_{regime}", (math.nan,))[0]
        rows.append((float(r), float(inner), float(outer), si, so))
    out = args.output_dir / "kernel_scaling.csv"
    _write_csv(out, ["r", "inner_second_moment", "outer_integral",
                     "fitted_slope_inner", "fitted_slope_outer"], rows)
    if not args.quiet:
        for tag, (sl, ci) in rep.slopes.items():
            print(f"{tag}: {sl:+.4f} (ci {ci:.4f}, bound exponent "
                  f"{rep.expected[tag]:+.2f})")
    return vars_config(args, ["d", "gamma", "s", "beta", "r_min", "r_max",
                              "points_per_decade"]), [out]


def _run_cancellation(args):
    grid = _parse_grid(args.grid)
    kspec = kernels.KernelSpec(
        gamma=args.gamma, d=args.d, s=args.s,
        model="inelastic" if args.family == "inelastic" else "mixture",
        moderately_soft=args.gamma < 0 and 0 <= args.gamma + 2 * args.s <= 2)
    b = kspec.assembled_b
    elastic = canc.elastic_reference(args.d, args.gamma, b)
    rows = []
    for x in grid:
        x = float(x)
        if args.family == "inelastic":
            spec = canc.SFunctionSpec(model="inelastic", d=args.d,
                                      gamma=args.gamma, b=b, beta=x)
        elif args.family == "mixture-light":
            spec = canc.SFunctionSpec(model="mixture_light_on_heavy", d=args.d,
                                      gamma=args.gamma, b=b, masses=(1.0, x))
        else:
            spec = canc.SFunctionSpec(model="mixture_heavy_on_light", d=args.d,
                                      gamma=args.gamma, b=b, masses=(x, 1.0))
        rows.append((x, spec.s1, elastic.s1, spec.s1 / elastic.s1))
        if not args.quiet:
            print(f"param={x:.4f}  S1={spec.s1:.6g}  elastic={elastic.s1:.6g}")
    out = args.output_dir / "cancellation.csv"
    _write_csv(out, ["param", "S1", "S1_elastic", "ratio"], rows)
    return vars_config(args, ["family", "d", "gamma", "s", "grid"]), [out]


def _run_verify_geometry(args):
    report = geometry.verify_identities(args.seed, args.samples, args.d)
    out = args.output_dir / "geometry_report.json"
    _write_json(out, report)
    if not args.quiet:
        for k, val in report.items():
            print(f"{k}: {val}")
    if not report["pass"]:
        raise NumericalError("geometry identities exceeded tolerances; "
                             "see geometry_report.json")
    return vars_config(args, ["d", "samples"]), [out]


def _run_simulate(args):
    cfg_map = parse_config_file(args.config)
    cfg, extras = build_sim_config(cfg_map, seed=args.seed)
    outdir = Path(cfg_map.get("output_dir", args.output_dir))
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = run_simulation_to_dir(cfg, outdir, extras, quiet=args.quiet)
    args.output_dir = outdir
    return dict(cfg_map), outputs


def parse_config_file(path):
    """Flat key=value text; '#' starts a comment."""
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line without '=': {line!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


_CUTOFF_WORDS = ("iso", "h", "cutoff")


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _floats(text):
    return tuple(float(x) for x in text.split(","))


def _s_or_h(text):
    return text if text in _CUTOFF_WORDS else float(text)


_REQUIRED = object()
_AT_LEAST_0 = (lambda x: x >= 0, ">= 0")
_AT_LEAST_1 = (lambda x: x >= 1, ">= 1")
_POSITIVE = (lambda x: x > 0, "> 0")
# key: (parse, default, check); a check holds for each value of a comma
# separated list. output_dir is read by _run_simulate, the others by
# build_sim_config.
_SIM_SCHEMA = {
    "model": (str, _REQUIRED, None),
    "d": (int, _REQUIRED, None),
    "gamma": (float, _REQUIRED, None),
    "s_or_h": (_s_or_h, _REQUIRED, None),
    "particles": (_ints, _REQUIRED, _AT_LEAST_1),
    "dt": (float, _REQUIRED, _POSITIVE),
    "steps": (int, _REQUIRED, _AT_LEAST_1),
    "theta_min": (float, 1e-2, None),
    "alpha": (float, None, None),
    "masses": (_floats, None, None),
    "seed": (int, None, None),
    "init": (str, "gaussian", None),
    "moments_every": (int, 1, _AT_LEAST_1),
    "snapshot_every": (int, 0, _AT_LEAST_0),
    "tail_bins": (int, 50, _AT_LEAST_1),
    "output_dir": (str, None, None),
}
_SIM_REQUIRED_KEYS = tuple(k for k, row in _SIM_SCHEMA.items() if row[1] is _REQUIRED)
_SIM_OPTIONAL_KEYS = tuple(k for k, row in _SIM_SCHEMA.items() if row[1] is not _REQUIRED)


def _read_sim_keys(cfg_map):
    """Every _SIM_SCHEMA key parsed and checked, or its default."""
    missing = set(_SIM_REQUIRED_KEYS) - set(cfg_map)
    if missing:
        raise ValidationError(f"config missing keys: {sorted(missing)}")
    unknown = set(cfg_map) - set(_SIM_SCHEMA)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for key, (parse, default, check) in _SIM_SCHEMA.items():
        if key not in cfg_map:
            values[key] = default
            continue
        raw = cfg_map[key]
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ValidationError(
                f"config key {key!r}: cannot read {raw!r} ({exc})") from exc
        items = value if isinstance(value, tuple) else (value,)
        if check is not None and not all(check[0](x) for x in items):
            raise ValidationError(f"config key {key!r} must be {check[1]}, got {raw!r}")
        values[key] = value
    return values


def build_sim_config(cfg_map, seed=None):
    """SimConfig from the flat config mapping; returns (config, extras).

    A missing required key, a key outside _SIM_SCHEMA, or a value that does
    not parse or fails its check raises ValidationError naming the key.
    """
    c = _read_sim_keys(cfg_map)
    model, d, gamma, s_or_h = c["model"], c["d"], c["gamma"], c["s_or_h"]
    kmodel = "inelastic" if model == "inelastic" else "mixture"
    if s_or_h in _CUTOFF_WORDS:
        spec = kernels.KernelSpec(gamma=gamma, d=d, h=lambda t: 1.0, model=kmodel)
    else:
        spec = kernels.KernelSpec(gamma=gamma, d=d, s=s_or_h, model=kmodel,
                                  moderately_soft=(gamma < 0.0))
    cfg = simulator.SimConfig(
        model=model, kernel=spec, dt=c["dt"], steps=c["steps"],
        particles=c["particles"], alpha=c["alpha"], masses=c["masses"],
        seed=c["seed"] if c["seed"] is not None else
        (seed if seed is not None else DEFAULT_SEED),
        theta_min=c["theta_min"], init=c["init"])
    extras = {k: c[k] for k in ("moments_every", "snapshot_every", "tail_bins")}
    return cfg, extras


def run_simulation_to_dir(cfg, outdir, extras, quiet=True):
    """Drive the DSMC loop, writing moments.csv, snapshots and tail CSVs."""
    outdir = Path(outdir)
    ens = simulator.build_ensemble(cfg)
    moments_rows = []
    snapshot_index = []
    outputs = []

    def record_moments(e):
        mom = simulator.moments(e)
        row = [e.time] + [float(x) for x in mom["mass"]]
        row += [float(x) for x in mom["momentum"]]
        row += [0.0] * (3 - len(mom["momentum"]))
        row += [mom["energy"], mom["entropy_estimate"]]
        moments_rows.append(row)

    def record_snapshot(e, idx):
        files = []
        for k, s in enumerate(e.species):
            p = outdir / f"snapshot_{idx:04d}_species{k}.kten"
            simulator.write_snapshot(p, s.velocities)
            files.append(p)
            outputs.append(p)
            snapshot_index.append({"file": p.name, "t": e.time, "species": k,
                                   "mass": s.mass, "weight": s.weight})
        rows = []
        for k, s in enumerate(e.species):
            h = tails.tail_histogram(s.velocities, s.weight,
                                     n_bins=extras["tail_bins"])
            for lo, hi, c, dens in zip(h.bin_edges[:-1], h.bin_edges[1:],
                                       h.counts, h.densities):
                rows.append((k, float(lo), float(hi), int(c), float(dens)))
        p = outdir / f"tails_{idx:04d}.csv"
        _write_csv(p, ["species", "r_lo", "r_hi", "count", "density"], rows)
        outputs.append(p)

    record_moments(ens)
    snap_every = extras["snapshot_every"]
    n_snap = 0
    if snap_every:
        record_snapshot(ens, n_snap)
        n_snap += 1
    for k in range(cfg.steps):
        ens = simulator.step(ens, cfg)
        if (k + 1) % extras["moments_every"] == 0 or k + 1 == cfg.steps:
            record_moments(ens)
        if snap_every and ((k + 1) % snap_every == 0 or k + 1 == cfg.steps):
            record_snapshot(ens, n_snap)
            n_snap += 1
        if not quiet and (k + 1) % max(1, cfg.steps // 10) == 0:
            print(f"step {k + 1}/{cfg.steps}  t={ens.time:.4g}")
    d = ens.d
    header = (["t"] + [f"mass_{i}" for i in range(len(ens.species))]
              + ["px", "py", "pz"][:d] + ["pz"] * (3 - d) + ["energy", "entropy"])
    mout = outdir / "moments.csv"
    _write_csv(mout, header, moments_rows)
    outputs.insert(0, mout)
    if snapshot_index:
        sidx = outdir / "snapshots.json"
        _write_json(sidx, {"snapshots": snapshot_index})
        outputs.append(sidx)
    return outputs


def _run_tails(args):
    snapdir = Path(args.snapshots)
    index_path = snapdir / "snapshots.json"
    if not index_path.exists():
        raise ValidationError(f"no snapshots.json in {snapdir}")
    index = json.loads(index_path.read_text())["snapshots"]
    env_map = json.loads(Path(args.envelope).read_text())
    env = spreading.Envelope(a=float(env_map["a"]), b=float(env_map["b"]),
                             p=float(env_map["p"]))
    by_species = {}
    for item in index:
        by_species.setdefault(item["species"], []).append(item)
    report = {"t0": args.t0, "envelope": env_map, "species": [],
              "note": "domination is tested on the resolved speed range only"}
    for sp, items in sorted(by_species.items()):
        series = []
        entries = []
        for item in sorted(items, key=lambda x: x["t"]):
            v = simulator.read_snapshot(snapdir / item["file"])
            h = tails.tail_histogram(v, item["weight"])
            series.append((item["t"], h))
            try:
                fit = tails.fit_tail_exponent(h, tails.default_fit_window(v))
                fit_map = {"p_hat": fit.p_hat, "b_hat": fit.b_hat,
                           "a_hat": fit.a_hat, "r_squared": fit.r_squared}
            except InsufficientData as exc:
                fit_map = {"error": str(exc)}
            entries.append({"t": item["t"], "fit": fit_map})
        scan = tails.uniformity_scan(series, env, args.t0)
        by_time = dict(zip(scan.times, scan.reports))
        for entry in entries:
            rep = by_time.get(entry["t"])
            if rep is None:
                continue            # snapshot at or before t0, not scanned
            entry["violations"] = rep.violations
            entry["unresolved_bins"] = len(rep.unresolved)
            entry["resolved_range"] = list(rep.resolved_range)
        report["species"].append({
            "species": sp, "uniform": scan.uniform,
            "first_failing_t": scan.first_failing_t, "times": entries,
        })
    out = args.output_dir / "tails_report.json"
    _write_json(out, report)
    if not args.quiet:
        for spr in report["species"]:
            print(f"species {spr['species']}: uniform={spr['uniform']}")
    return {"snapshots": str(snapdir), "envelope": env_map, "t0": args.t0}, [out]


def vars_config(args, keys):
    return {k: (str(getattr(args, k)) if isinstance(getattr(args, k), Path)
                else getattr(args, k)) for k in keys if hasattr(args, k)}


_RUNNERS = {
    "simulate": _run_simulate,
    "kernel-scaling": _run_kernel_scaling,
    "cancellation": _run_cancellation,
    "spreading": _run_spreading,
    "region": _run_region,
    "tails": _run_tails,
    "verify-geometry": _run_verify_geometry,
}
