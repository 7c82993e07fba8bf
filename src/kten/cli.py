"""Command-line entry point.

One executable, seven subcommands:

    simulate         DSMC run from a flat key=value config file
    kernel-scaling   ball-integral scaling of the Carleman kernel (CSV)
    cancellation     angular integral S1 across a parameter sweep (CSV)
    spreading        lower-bound iteration and envelope (JSON)
    region           region integral over an eps grid, by quadrature (CSV)
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
from .errors import NumericalError, ValidationError
from .geometry import RestitutionParams
from .utils import DEFAULT_SEED, format_float


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract here is exit 1
    def error(self, message):
        raise _UsageError(message)


def _common_options(**defaults):
    """The options every subcommand takes, before or after its name.

    Only the top parser's copy has defaults; the subparsers' copies default
    to argparse.SUPPRESS, since a subparser's default would overwrite a
    value given before the subcommand.
    """
    common = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int,
                        help=f"RNG seed (default {DEFAULT_SEED}, never wall clock)")
    common.add_argument("--threads", type=_checked(int, _AT_LEAST_1),
                        help="worker threads; every subcommand runs on one thread "
                             "at present, and results never depend on it")
    common.add_argument("--output-dir", type=Path,
                        help="directory for outputs and manifest.json")
    common.add_argument("--quiet", action="store_true")
    common.set_defaults(**defaults)
    return common


@functools.cache
def _build_parser():
    p = _Parser(prog="kten", description=__doc__.splitlines()[0], parents=[
        _common_options(seed=DEFAULT_SEED, threads=1, output_dir=Path("."), quiet=False)])
    p.add_argument("--version", action="version", version=f"kten {__version__}")
    common = _common_options()
    sub = p.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("simulate", parents=[common], help="run a DSMC simulation")
    s.add_argument("--config", type=Path, required=True,
                   help="flat key=value config file")

    s = sub.add_parser("kernel-scaling", parents=[common])
    s.add_argument("--d", type=int, default=3)
    s.add_argument("--gamma", type=float, default=-1.0)
    s.add_argument("--s", type=float, default=0.5)
    s.add_argument("--beta", type=float, default=1.0 - 1e-3)
    s.add_argument("--r-min", type=_checked(float, _POSITIVE), default=1e-3)
    s.add_argument("--r-max", type=_checked(float, _POSITIVE), default=100.0)
    s.add_argument("--points-per-decade", type=_checked(int, _AT_LEAST_1), default=4)

    s = sub.add_parser("cancellation", parents=[common])
    s.add_argument("--family", choices=["inelastic", "mixture-light", "mixture-heavy"],
                   default="inelastic",
                   help="mixture-light and mixture-heavy write the same CSV: both "
                        "take lambda = 1/x for a mass ratio x")
    s.add_argument("--d", type=int, default=3)
    s.add_argument("--gamma", type=float, default=-1.0)
    s.add_argument("--s", type=float, default=0.5)
    s.add_argument("--grid", type=_grid_spec(), help="lo:hi:n sweep of beta (default "
                   "0.55:0.95:9), or of the mass ratio for mixtures (default 1.5:4:6)")

    s = sub.add_parser("spreading", parents=[common])
    s.add_argument("--beta", type=float, default=None)
    s.add_argument("--masses", type=str, default=None,
                   help="comma separated m_i,m_j: selects the mixture iteration, "
                        "which takes rho = sqrt 2 whatever the two masses are")
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
    s.add_argument("--eps-grid", type=_grid_spec(geometric=True), default="0.01:0.2:8",
                   help="lo:hi:n geometric grid")
    s.add_argument("--samples", type=_checked(int, _AT_LEAST_1), default=10**6,
                   help="not read: the integral is computed by quadrature; still "
                        "accepted and range-checked, so existing command lines run")

    s = sub.add_parser("tails", parents=[common])
    s.add_argument("--snapshots", type=Path, required=True,
                   help="directory produced by the simulate subcommand")
    s.add_argument("--envelope", type=Path, required=True,
                   help="JSON file with keys a, b, p")
    s.add_argument("--t0", type=float, required=True)

    s = sub.add_parser("verify-geometry", parents=[common])
    s.add_argument("--d", type=int, default=3)
    s.add_argument("--samples", type=_checked(int, _AT_LEAST_1), default=10**5)
    return p


def dispatch(argv):
    """Run one subcommand; returns the process exit code.

    One parser per process serves every call (in-process callers gain, a one-shot
    `kten` process nothing); each parse starts from a fresh Namespace, so no
    value carries over between calls.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.time()
        runner = _RUNNERS[args.subcommand]
        if args.subcommand != "simulate":   # simulate creates the directory it resolves
            _make_output_dir(args.output_dir)
        config, outputs = runner(args)
        # the simulate runner may take output_dir and seed from its config file
        _write_manifest(args.output_dir, args.subcommand, config, args.seed,
                        started, outputs)
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except ValidationError as exc:
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


def _make_output_dir(path):
    """Create the output directory; a path that cannot be one is a ValidationError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"output directory {path}: {exc.strerror}") from exc


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
    _write_json(outdir / "manifest.json", manifest)


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


def _checked(kind, check):
    """argparse type: a `kind` value passing `check`, a (predicate, wanted) pair.

    argparse names the option in the error, which dispatch turns into exit 1.
    """
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not check[0](value):
            raise argparse.ArgumentTypeError(f"must be {check[1]}, got {text!r}")
        return value
    return parse


def _parse_grid(text, geometric=False):
    """The lo:hi:n grid: finite lo and hi, n >= 1 points; a geometric one needs lo, hi > 0."""
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}, want lo:hi:n") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"grid {text!r} needs n >= 1 points")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"grid {text!r} needs finite lo and hi")
    if geometric:
        if not (lo > 0 and hi > 0):
            raise argparse.ArgumentTypeError(f"geometric grid {text!r} needs lo, hi > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _grid_spec(geometric=False):
    """argparse type: a grid checked by _parse_grid, kept as text for the manifest."""
    def parse(text):
        _parse_grid(text, geometric)
        return text
    return parse


# options the manifest records in fields of its own (subcommand, seed) or not at all
_COMMON_OPTIONS = ("subcommand", "seed", "threads", "output_dir", "quiet")


def _parsed_config(args):
    """The subcommand's own options as parsed, for the manifest's config."""
    return {k: v for k, v in vars(args).items() if k not in _COMMON_OPTIONS}


# -- subcommand runners --------------------------------------------------------

def _run_spreading(args):
    masses = None
    if args.masses is not None:
        try:
            masses = _floats(args.masses)
        except ValueError as exc:
            raise ValidationError(f"--masses: cannot read {args.masses!r} ({exc})") from exc
    cfg = spreading.SpreadingConfig(d=args.d, gamma=args.gamma, s=args.s,
                                    beta=args.beta, masses=masses, T0=args.t0,
                                    l0=args.l0, K=args.K)
    trace, env = spreading.run_iteration(cfg, args.n_max)
    out = args.output_dir / "spreading.json"
    _write_json(out, {
        "trace": [{"n": st.n, "T": st.T, "R": st.R, "eps": st.eps,
                   "l": st.l, "log_l": st.log_l} for st in trace],
        "envelope": {"a": env.a, "b": env.b, "p": env.p},
    })
    if not args.quiet:
        print(f"p = {env.p:.6f}, b = {env.b:.6g}, a = {env.a:.6g}")
    return _parsed_config(args), [out]


def _run_region(args):
    eps_grid = _parse_grid(args.eps_grid, geometric=True)
    values = spreading.region_integral(args.R, eps_grid, args.beta, args.d)
    rows = []
    for eps, (value, err) in zip(eps_grid, values):
        rows.append((float(eps), value, err))
        if not args.quiet:
            print(f"eps={eps:.5g}  estimate={value:.6g}  quad_error={err:.3g}")
    out = args.output_dir / "region.csv"
    _write_csv(out, ["eps", "estimate", "quad_error"], rows)
    return _parsed_config(args), [out]


def _run_kernel_scaling(args):
    spec = kernels.KernelSpec(gamma=args.gamma, d=args.d, s=args.s,
                              model="inelastic", moderately_soft=args.gamma < 0)
    p = RestitutionParams.from_beta(args.beta)
    f = DensityField.gaussian(args.d)
    decades_small = math.log10(1.0 / args.r_min)
    decades_large = math.log10(args.r_max / 2.0)
    for option, value, decades in (("--r-min", args.r_min, decades_small),
                                   ("--r-max", args.r_max, decades_large)):
        # 1/r_min overflows for r_min below about 5.6e-309, and r_max may be inf
        if not math.isfinite(decades):
            raise ValidationError(f"{option} {value!r}: the grid would span infinitely "
                                  "many decades")
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
    return _parsed_config(args), [out]


def _run_cancellation(args):
    args.grid = args.grid or ("0.55:0.95:9" if args.family == "inelastic" else "1.5:4:6")
    grid = _parse_grid(args.grid)
    kspec = kernels.KernelSpec(
        gamma=args.gamma, d=args.d, s=args.s,
        model="inelastic" if args.family == "inelastic" else "mixture")
    # light on heavy (1, x) and heavy on light (x, 1) have the one lambda 1/x
    if args.family == "inelastic":
        lam = canc.inelastic_lam
        try:
            for beta in grid:
                RestitutionParams.from_beta(float(beta))
        except ValidationError as exc:
            raise ValidationError(f"--grid {args.grid!r}: {exc}") from exc
    else:
        lam = functools.partial(canc.mixture_lam, 1.0)
        if not np.all(grid > 1.0):
            raise ValidationError(f"--grid {args.grid!r}: every mass ratio must be > 1")
    elastic = canc.SFunctionSpec(kernel=kspec, lam=1.0)
    rows = []
    for x in grid:
        x = float(x)
        spec = canc.SFunctionSpec(kernel=kspec, lam=lam(x))
        rows.append((x, spec.s1, elastic.s1, spec.s1 / elastic.s1))
        if not args.quiet:
            print(f"param={x:.4f}  S1={spec.s1:.6g}  elastic={elastic.s1:.6g}")
    out = args.output_dir / "cancellation.csv"
    _write_csv(out, ["param", "S1", "S1_elastic", "ratio"], rows)
    return _parsed_config(args), [out]


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
    return _parsed_config(args), [out]


def _run_simulate(args):
    cfg_map = parse_config_file(args.config)
    cfg, extras = build_sim_config(cfg_map, seed=args.seed)
    outdir = Path(cfg_map.get("output_dir", args.output_dir))
    _make_output_dir(outdir)
    outputs = run_simulation_to_dir(cfg, outdir, extras, quiet=args.quiet)
    args.output_dir, args.seed = outdir, cfg.seed
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


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _floats(text):
    return tuple(float(x) for x in text.split(","))


def _s_or_h(text):
    return text if text == "iso" else float(text)


_REQUIRED = object()
_AT_LEAST_0 = (lambda x: x >= 0, ">= 0")
_AT_LEAST_1 = (lambda x: x >= 1, ">= 1")
_POSITIVE = (lambda x: x > 0, "> 0")
# key: (parse, default, check). SimConfig checks the values of the keys it
# takes, so only the CLI's own keys carry a check here; output_dir is read
# by _run_simulate, the others by build_sim_config.
_SIM_SCHEMA = {
    "model": (str, _REQUIRED, None),
    "d": (int, _REQUIRED, None),
    "gamma": (float, _REQUIRED, None),
    "s_or_h": (_s_or_h, _REQUIRED, None),
    "particles": (_ints, _REQUIRED, None),
    "dt": (float, _REQUIRED, None),
    "steps": (int, _REQUIRED, _AT_LEAST_1),
    "theta_min": (float, simulator.SimConfig.theta_min, None),
    "alpha": (float, simulator.SimConfig.alpha, None),
    "masses": (_floats, simulator.SimConfig.masses, None),
    "seed": (int, None, None),
    "init": (str, simulator.SimConfig.init, None),
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
        if check is not None and not check[0](value):
            raise ValidationError(f"config key {key!r} must be {check[1]}, got {raw!r}")
        values[key] = value
    return values


def build_sim_config(cfg_map, seed=simulator.SimConfig.seed):
    """SimConfig from the flat config mapping; returns (config, extras).

    A missing required key, a key outside _SIM_SCHEMA, a value that does
    not parse, or a value that SimConfig or the CLI refuses raises
    ValidationError naming the key; `seed` is the seed of a file without one.
    """
    c = _read_sim_keys(cfg_map)
    if c["s_or_h"] == "iso":
        angular = {"h": lambda t: 1.0}
    else:
        angular = {"s": c["s_or_h"], "moderately_soft": c["gamma"] < 0.0}
    try:
        kernel = kernels.KernelSpec(gamma=c["gamma"], d=c["d"], model=c["model"], **angular)
        cfg = simulator.SimConfig(
            model=c["model"], kernel=kernel, dt=c["dt"], steps=c["steps"],
            particles=c["particles"], alpha=c["alpha"], masses=c["masses"],
            seed=seed if c["seed"] is None else c["seed"],
            theta_min=c["theta_min"], init=c["init"])
    except ValidationError as exc:
        # the messages quote the fields, each its config key but s, set by s_or_h
        raise ValidationError("config key " + str(exc).replace("'s'", "'s_or_h'")) from exc
    if "theta_min" in cfg_map and kernel.cutoff:
        raise ValidationError("config key 'theta_min' is not read by s_or_h = iso")
    extras = {k: c[k] for k in ("moments_every", "snapshot_every", "tail_bins")}
    return cfg, extras


def run_simulation_to_dir(cfg, outdir, extras, quiet=True):
    """Drive the DSMC loop, writing moments.csv, snapshots and tail CSVs.

    State 0 is the initial ensemble and state k one step after state k - 1.
    State k records a moments row when k % moments_every == 0 or k is the
    last step; when snapshot_every is set, the same rule on snapshot_every
    writes one snapshot per species and a tails CSV.
    """
    outdir = Path(outdir)
    snap_every = extras["snapshot_every"]
    moments_rows, snapshot_index, outputs = [], [], []
    for k in range(cfg.steps + 1):
        ens = simulator.build_ensemble(cfg) if k == 0 else simulator.step(ens, cfg)
        last = k == cfg.steps
        if k % extras["moments_every"] == 0 or last:
            mom = simulator.moments(ens)
            momentum = np.pad(mom["momentum"], (0, 3 - ens.d))      # pz = 0 at d = 2
            moments_rows.append([ens.time, *mom["mass"], *momentum,
                                 mom["energy"], mom["entropy_estimate"]])
        if snap_every and (k % snap_every == 0 or last):
            idx = math.ceil(k / snap_every)     # a last step off the grid is one more
            rows = []
            for sp, s in enumerate(ens.species):
                p = outdir / f"snapshot_{idx:04d}_species{sp}.kten"
                simulator.write_snapshot(p, s.velocities)
                outputs.append(p)
                snapshot_index.append({"file": p.name, "t": ens.time, "species": sp,
                                       "mass": s.mass, "weight": ens.weight})
                h = tails.tail_histogram(s.velocities, ens.weight,
                                         n_bins=extras["tail_bins"])
                rows += [(sp, float(lo), float(hi), int(c), float(dens))
                         for lo, hi, c, dens in zip(h.bin_edges[:-1], h.bin_edges[1:],
                                                    h.counts, h.densities)]
            p = outdir / f"tails_{idx:04d}.csv"
            _write_csv(p, ["species", "r_lo", "r_hi", "count", "density"], rows)
            outputs.append(p)
        if not quiet and k > 0 and k % max(1, cfg.steps // 10) == 0:
            print(f"step {k}/{cfg.steps}  t={ens.time:.4g}")
    header = (["t"] + [f"mass_{i}" for i in range(len(ens.species))]
              + ["px", "py", "pz", "energy", "entropy"])
    mout = outdir / "moments.csv"
    _write_csv(mout, header, moments_rows)
    outputs.insert(0, mout)
    if snapshot_index:
        sidx = outdir / "snapshots.json"
        _write_json(sidx, {"snapshots": snapshot_index})
        outputs.append(sidx)
    return outputs


def _read_json(path, what):
    """A JSON object from path; a missing, unreadable or malformed file names itself."""
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} {path}: want a JSON object, got {type(obj).__name__}")
    return obj


# the keys _run_tails reads from each snapshots.json entry: (JSON types, wanted)
_SNAPSHOT_ENTRY_KEYS = {"file": ((str,), "a string"), "species": ((int,), "an integer"),
                        "t": ((int, float), "a number"), "weight": ((int, float), "a number")}


def _read_snapshot_index(index_path):
    """The entries of a snapshots.json; a malformed index names the file."""
    index_map = _read_json(index_path, "snapshot index")
    if "snapshots" not in index_map:
        raise ValidationError(f"snapshot index {index_path}: missing key 'snapshots'")
    index = index_map["snapshots"]
    if not isinstance(index, list):
        raise ValidationError(f"snapshot index {index_path}: 'snapshots' must be a list, "
                              f"got {type(index).__name__}")
    if not index:
        raise ValidationError(f"snapshot index {index_path}: 'snapshots' lists no snapshot")
    for k, item in enumerate(index):
        if not isinstance(item, dict):
            raise ValidationError(f"snapshot index {index_path}: entry {k} is not an object")
        lacking = [key for key in _SNAPSHOT_ENTRY_KEYS if key not in item]
        if lacking:
            raise ValidationError(f"snapshot index {index_path}: entry {k} lacks "
                                  f"{', '.join(map(repr, lacking))}")
        for key, (kinds, wanted) in _SNAPSHOT_ENTRY_KEYS.items():
            # JSON true and false load as bool, a subclass of int
            if not isinstance(item[key], kinds) or isinstance(item[key], bool):
                raise ValidationError(f"snapshot index {index_path}: entry {k} {key!r} "
                                      f"must be {wanted}, got {item[key]!r}")
    return index


def _run_tails(args):
    snapdir = Path(args.snapshots)
    index_path = snapdir / "snapshots.json"
    if not index_path.exists():
        raise ValidationError(f"no snapshots.json in {snapdir}")
    index = _read_snapshot_index(index_path)
    missing = [item["file"] for item in index if not (snapdir / item["file"]).is_file()]
    if missing:
        raise ValidationError(f"snapshot {snapdir / missing[0]}: listed in {index_path} "
                              "but missing")
    env_map = _read_json(args.envelope, "envelope")
    try:
        env = spreading.Envelope(**{k: float(env_map[k]) for k in ("a", "b", "p")})
    except KeyError as exc:
        raise ValidationError(f"envelope {args.envelope}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"envelope {args.envelope}: {exc}") from exc
    # a generator: one snapshot is in memory at a time
    snapshots = ((item["species"], item["t"], item["weight"],
                  simulator.read_snapshot(snapdir / item["file"])) for item in index)
    report = tails.report(snapshots, env, args.t0)
    report["envelope"] = env_map
    out = args.output_dir / "tails_report.json"
    _write_json(out, report)
    if not args.quiet:
        for spr in report["species"]:
            print(f"species {spr['species']}: uniform={spr['uniform']}")
    return {"snapshots": str(snapdir), "envelope": env_map, "t0": args.t0}, [out]


_RUNNERS = {
    "simulate": _run_simulate,
    "kernel-scaling": _run_kernel_scaling,
    "cancellation": _run_cancellation,
    "spreading": _run_spreading,
    "region": _run_region,
    "tails": _run_tails,
    "verify-geometry": _run_verify_geometry,
}
