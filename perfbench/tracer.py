"""In-memory span recorder and the per-layer wrappers of the kten modules.

The program itself carries no tracing. `install` replaces the public
functions of each layer (module attributes, class methods and one property)
with wrappers that record a span around every call, so a traced run
measures the same code an untraced run executes. Spans are kept in memory
and written once, when the run ends.
"""

import functools
import json
import statistics
import time
from pathlib import Path


class Tracer:
    """Records spans (name, start, end, parent, run id) and per-span counts."""

    def __init__(self):
        self.run_id = None
        self.spans = []
        self._open = []

    def start_run(self, run_id):
        """Drop the spans of the previous run and label the next ones run_id."""
        self.run_id = run_id
        self.spans = []

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr with a spanned wrapper.

        `count(args, kwargs, result)` returns a dict of counts stored on the
        span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def wrap_property(self, cls, attr, name, count):
        getter = getattr(cls, attr).fget

        def traced(obj):
            span = self._begin(name)
            counts = count(obj)
            try:
                return getter(obj)
            finally:
                self._end(span)
                span["counts"] = counts

        setattr(cls, attr, property(traced))

    def _begin(self, name):
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._open[-1]["id"] if self._open else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span)
        return span

    def _end(self, span):
        span["end"] = time.perf_counter()
        self._open.pop()

    def write(self, path):
        """Write every span, with its self time, as one JSON list."""
        own = self_times(self.spans)
        Path(path).write_text(json.dumps(
            [{**s, "self": own[s["id"]]} for s in self.spans]) + "\n")


def self_times(spans):
    """Span id -> duration minus the time covered by its child spans."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _rows(x):
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _dispatch_counts(args, kwargs, result):
    argv = list(args[0])
    out = Path(argv[argv.index("--output-dir") + 1]) if "--output-dir" in argv else Path(".")
    manifest = out / "manifest.json"
    produced = 0
    if manifest.is_file():      # the manifest itself holds times, so its size varies
        produced = sum(o["bytes"] for o in json.loads(manifest.read_text())["outputs"])
    return {"subcommand": argv[0], "output_bytes": produced}


def _step_counts(args, kwargs, result):
    stats = result.last_step_stats or {}
    return {"candidates": int(stats.get("candidates", 0)),
            "accepted": int(stats.get("accepted", 0))}


def _kernel_profile_counts(args, kwargs, result):
    # (center, others, ls, f, spec, kappa, n_radial, n_angular): the plane
    # rule has n_radial radii times the circle rule's points per ray
    ls, spec, n_radial, n_angular = args[2], args[4], args[6], args[7]
    per_ring = n_angular if spec.d == 3 else 2
    return {"plane_evals": int(len(ls)) * int(n_radial) * per_ring}


GEOMETRY_FUNCTIONS = ("inelastic_post_sigma", "inelastic_post_n", "mixture_post_sigma",
                      "mixture_post_n", "aux_points_inelastic", "aux_points_mixture",
                      "half_angle", "make_collision_frame", "normal_from_collision")


def install(tracer):
    """Wrap the public calls of every measured layer of the kten package."""
    from kten import (cancellation, cli, density, geometry, kernels, simulator,
                      spreading, tails)

    tracer.wrap(cli, "dispatch", "cli.dispatch", _dispatch_counts)

    tracer.wrap(simulator, "build_ensemble", "simulator.build_ensemble")
    tracer.wrap(simulator, "step", "simulator.step", _step_counts)
    tracer.wrap(simulator, "moments", "simulator.moments")
    tracer.wrap(simulator, "write_snapshot", "simulator.snapshot_write",
                lambda a, k, r: {"bytes": 20 + 8 * int(a[1].size)})
    tracer.wrap(simulator, "read_snapshot", "simulator.snapshot_read",
                lambda a, k, r: {"bytes": 20 + int(r.nbytes)})

    for fn in ("tail_histogram", "fit_tail_exponent", "uniformity_scan"):
        tracer.wrap(tails, fn, f"tails.{fn}")

    tracer.wrap(spreading, "run_iteration", "spreading.run_iteration")
    tracer.wrap(spreading, "region_estimate_mc", "spreading.region_estimate_mc",
                lambda a, k, r: {"samples": int(k["samples"] if "samples" in k else a[4])})

    tracer.wrap_property(cancellation.SFunctionSpec, "s1", "cancellation.s1",
                         lambda spec: {"evals": int(spec._s1 is None)})

    for fn in ("verify_Kf_scaling", "Q_s_apply", "cutoff_loss_rate"):
        tracer.wrap(kernels, fn, f"kernels.{fn}")
    tracer.wrap(kernels, "_kernel_profile", "kernels.plane_profile", _kernel_profile_counts)
    tracer.wrap(kernels.KernelSpec, "__post_init__", "kernels.KernelSpec.init")

    for fn in GEOMETRY_FUNCTIONS:
        tracer.wrap(geometry, fn, f"geometry.{fn}", lambda a, k, r: {"pairs": _rows(a[0])})

    tracer.wrap(density.DensityField, "radial_moment", "density.radial_moment")


SUBCOMMANDS = ("simulate", "kernel-scaling", "cancellation", "spreading", "region",
               "tails", "verify-geometry")


def layer_metrics(spans, warning_counts):
    """Per-layer metrics of one traced run, from its spans and warning counts."""
    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(dur(s) for s in named(name))

    def total(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in named(name))

    def percentile(values, q):
        return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 \
            else sum(values)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    steps_ms = [1e3 * dur(s) for s in named("simulator.step")]
    candidates = total("simulator.step", "candidates")
    accepted = total("simulator.step", "accepted")
    region_s = busy("spreading.region_estimate_mc")
    plane_evals = total("kernels.plane_profile", "plane_evals")
    geometry = [s for s in spans if s["name"].startswith("geometry.")]
    geometry_s = sum(dur(s) for s in geometry)
    geometry_pairs = sum(s.get("counts", {}).get("pairs", 0) for s in geometry)

    own = self_times(spans)
    dispatch = named("cli.dispatch")

    m = {
        "simulator.step.calls": len(steps_ms),
        "simulator.step.busy_s": busy("simulator.step"),
        "simulator.step.ms_p50": percentile(steps_ms, 50),
        "simulator.step.ms_p90": percentile(steps_ms, 90),
        "simulator.step.first_ms": steps_ms[0] if steps_ms else 0.0,
        "simulator.candidates": candidates,
        "simulator.accepted": accepted,
        "simulator.acceptance_ratio": accepted / candidates if candidates else 0.0,
        "simulator.majorant_inflations": warning_counts["majorant_inflation"],
        "simulator.reduce_dt_warnings": warning_counts["reduce_dt"],
        "simulator.moments.busy_s": busy("simulator.moments"),
        "simulator.snapshot_write.bytes": total("simulator.snapshot_write", "bytes"),
        "simulator.snapshot_write.busy_s": busy("simulator.snapshot_write"),
        "simulator.snapshot_read.bytes": total("simulator.snapshot_read", "bytes"),
        "simulator.snapshot_read.busy_s": busy("simulator.snapshot_read"),
        "simulator.build_ensemble.busy_s": busy("simulator.build_ensemble"),
        "tails.tail_histogram.calls": len(named("tails.tail_histogram")),
        "tails.tail_histogram.busy_s": busy("tails.tail_histogram"),
        "tails.fit_tail_exponent.busy_s": busy("tails.fit_tail_exponent"),
        "tails.uniformity_scan.busy_s": busy("tails.uniformity_scan"),
        "spreading.region_estimate_mc.busy_s": region_s,
        "spreading.region.samples_per_s": rate(
            total("spreading.region_estimate_mc", "samples"), region_s),
        "spreading.run_iteration.busy_s": busy("spreading.run_iteration"),
        "cancellation.s1.evals": total("cancellation.s1", "evals"),
        "cancellation.s1.busy_s": busy("cancellation.s1"),
        "kernels.verify_Kf_scaling.busy_s": busy("kernels.verify_Kf_scaling"),
        "kernels.Q_s_apply.busy_s": busy("kernels.Q_s_apply"),
        "kernels.cutoff_loss_rate.busy_s": busy("kernels.cutoff_loss_rate"),
        "kernels.plane_evals": plane_evals,
        "kernels.plane_evals_per_s": rate(plane_evals, busy("kernels.plane_profile")),
        "kernels.KernelSpec.init_s": busy("kernels.KernelSpec.init"),
        "geometry.pairs": geometry_pairs,
        "geometry.busy_s": geometry_s,
        "geometry.pairs_per_s": rate(geometry_pairs, geometry_s),
        "density.radial_moment.calls": len(named("density.radial_moment")),
        "density.radial_moment.busy_s": busy("density.radial_moment"),
    }
    for sub in SUBCOMMANDS:
        m[f"cli.dispatch.{sub}.busy_s"] = sum(
            dur(s) for s in dispatch if s.get("counts", {}).get("subcommand") == sub)
    m["cli.self_s"] = sum(own[s["id"]] for s in dispatch)
    m["cli.output_bytes"] = total("cli.dispatch", "output_bytes")
    m["warnings.integration"] = warning_counts["integration"]
    m["warnings.quadrature_truncation"] = warning_counts["quadrature_truncation"]
    m["warnings.other"] = warning_counts["other"]
    return m
