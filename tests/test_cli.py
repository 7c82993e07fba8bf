import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kten
from kten import cli, geometry, simulator, spreading, tails
from kten.cli import dispatch, parse_config_file, build_sim_config
from kten.errors import InsufficientData, ValidationError
from kten.simulator import read_snapshot


def run_ok(argv):
    code = dispatch([str(a) for a in argv])
    assert code == 0
    return code


class TestDispatchBasics:
    def test_empty_argv_is_usage_error(self, capsys):
        assert dispatch([]) == 1
        err = capsys.readouterr().err
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_options_without_a_subcommand_are_a_usage_error(self, capsys):
        assert dispatch(["--quiet"]) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cancellation", "--grid", "0.6:0.9:3"],
        ["region", "--beta", "0.8", "--eps-grid", "0.01:0.2:3", "--samples", "20000"],
    ])
    def test_common_options_before_the_subcommand(self, tmp_path, argv):
        common = ["--seed", "3", "--threads", "2", "--quiet"]
        run_ok(common + ["--output-dir", tmp_path / "before"] + argv)
        run_ok(argv + common + ["--output-dir", tmp_path / "after"])
        before, after = (json.loads((tmp_path / k / "manifest.json").read_text())
                         for k in ("before", "after"))
        assert before["seed"] == after["seed"] == 3
        assert before["config"] == after["config"]
        assert [o["sha256"] for o in before["outputs"]] == \
            [o["sha256"] for o in after["outputs"]]

    @pytest.mark.parametrize("option,value", [("--seed", "x"), ("--threads", "1.5")])
    def test_bad_common_option_before_the_subcommand_names_it(self, capsys,
                                                              option, value):
        assert dispatch([option, value, "cancellation"]) == 1
        assert f"argument {option}: invalid int value: '{value}'" in capsys.readouterr().err

    def test_bad_beta_cites_range(self, tmp_path, capsys):
        code = dispatch(["spreading", "--beta", "1.2",
                         "--output-dir", str(tmp_path)])
        assert code == 1
        assert "(1/2, 1)" in capsys.readouterr().err


class TestParserReuse:
    # dispatch builds its parser once per process, so every call in this
    # process parses with the parser an earlier call used

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_a_seed_does_not_carry_over(self, tmp_path):
        run_ok(["--seed", "3", "cancellation", "--quiet", "--output-dir", tmp_path / "a"])
        run_ok(["cancellation", "--quiet", "--output-dir", tmp_path / "b"])
        seeds = [json.loads((tmp_path / k / "manifest.json").read_text())["seed"]
                 for k in ("a", "b")]
        assert seeds == [3, 20101]

    def test_a_usage_error_between_calls_leaves_nothing_behind(self, tmp_path):
        argv = ["cancellation", "--grid", "0.6:0.9:3", "--quiet"]
        run_ok(["--seed", "3", "cancellation", "--family", "mixture-light", "--d", "2",
                "--gamma", "-0.5", "--quiet", "--output-dir", tmp_path / "first"])
        # the error comes after --seed, --d and --s have been parsed
        assert dispatch(["--seed", "5", "cancellation", "--d", "2", "--s", "0.7",
                         "--grid", "0.6:0.9:0", "--output-dir", str(tmp_path / "bad")]) == 1
        run_ok(argv + ["--output-dir", tmp_path / "third"])
        _kten_in_fresh_process(argv + ["--output-dir", tmp_path / "fresh"])
        third, fresh = (json.loads((tmp_path / k / "manifest.json").read_text())
                        for k in ("third", "fresh"))
        assert (third["config"], third["seed"]) == (fresh["config"], fresh["seed"])
        assert third["outputs"] == fresh["outputs"]
        assert not (tmp_path / "bad").exists()

    def test_the_later_seed_wins_on_a_reused_parser(self, tmp_path):
        for k, (before, after) in enumerate([("3", "4"), ("4", "3"), ("3", "4")]):
            run_ok(["--seed", before, "verify-geometry", "--samples", "10", "--seed", after,
                    "--quiet", "--output-dir", tmp_path / str(k)])
            manifest = json.loads((tmp_path / str(k) / "manifest.json").read_text())
            assert manifest["seed"] == int(after)


def _env_with_src():
    """The environment for a fresh interpreter that imports this kten."""
    src = str(Path(kten.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_cli_import_leaves_scipy_unloaded():
    # kten imports no scipy module but scipy.special, and that only inside
    # its three call sites (two Gaussian closed forms in density, the
    # Poisson bound in tails), so subcommands that never reach one start
    # without it
    out = subprocess.run(
        [sys.executable, "-c", "import sys, kten.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=_env_with_src(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_readme_library_example_runs(tmp_path):
    # the README's "Library example" block, in a fresh interpreter: it builds
    # DensityField.gaussian, evaluates a pair kernel and prints the tail exponent
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    code = code.split("```", 1)[0]
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_env_with_src(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) == spreading.growth_exponent(0.8)


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter holds after running `code`."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys, json; " + code + "; print(json.dumps("
         "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"],
        env=_env_with_src(), capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _kten_in_fresh_process(argv):
    return _scipy_modules_after("from kten.cli import dispatch; "
                                f"assert dispatch({[str(a) for a in argv]!r}) == 0")


@pytest.mark.parametrize("s_or_h", ["iso", "0.3"])
def test_simulate_loads_no_scipy(tmp_path, s_or_h):
    # the cutoff wave draws its normal without a table, and the noncutoff
    # grazing weight is a series, so neither kernel needs scipy
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = mixture\nd = 3\ngamma = 0\ns_or_h = {s_or_h}\n"
                   "masses = 1,2\nparticles = 300,200\ndt = 0.001\nsteps = 3\n"
                   f"snapshot_every = 1\noutput_dir = {tmp_path / 'sim'}\n")
    assert _kten_in_fresh_process(["simulate", "--config", cfg, "--quiet"]) == []


def test_tails_loads_only_scipy_special(tmp_path):
    outdir = simulate_golden(tmp_path, "mixture_d3_cutoff")
    env = tmp_path / "env.json"
    env.write_text('{"a": 0.03, "b": 0.5, "p": 2.0}\n')
    loaded = _kten_in_fresh_process(["tails", "--snapshots", outdir, "--envelope", env,
                                     "--t0", "0.25",
                                     "--output-dir", tmp_path / "tails", "--quiet"])
    assert "scipy.special" in loaded
    assert set(loaded) <= set(_scipy_modules_after("import scipy.special"))


def test_benchmark_tracer_finds_every_wrapped_name():
    # perfbench/tracer.py wraps kten functions by module and name; a rename
    # or a move breaks every traced benchmark run
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = ['perfbench', 'src']; "
         "import tracer; tracer.install(tracer.Tracer())"],
        cwd=root, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


_TRACED_RUN = """
import json, sys
sys.path[:0] = ['perfbench', 'src']
import tracer
from kten.cli import dispatch
out, cfg = sys.argv[1], sys.argv[2]
t = tracer.Tracer()
tracer.install(t)
assert dispatch(['simulate', '--config', cfg, '--quiet']) == 0
assert dispatch(['cancellation', '--output-dir', out + '/canc', '--quiet']) == 0
m = tracer.layer_metrics(t.spans, dict.fromkeys(
    ['majorant_inflation', 'reduce_dt', 'integration', 'quadrature_truncation', 'other'], 0))
print(json.dumps({k: m[k] for k in
                  ('simulator.step.calls', 'simulator.candidates', 'cancellation.s1.evals')}))
"""


def test_benchmark_tracer_measures_a_simulate_and_a_cancellation(tmp_path):
    # the benchmark's own runs do not trace; a wrapper that stops seeing its
    # function (a rename, a call that bypasses the module attribute) shows
    # as a zero count here instead of in a later traced run
    root = Path(__file__).resolve().parents[1]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(["model = inelastic", "d = 3", "gamma = 0", "s_or_h = iso",
                              "alpha = 0.5", "particles = 400", "dt = 0.05", "steps = 2",
                              f"output_dir = {tmp_path / 'sim'}"]) + "\n")
    out = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(tmp_path), str(cfg)],
                         cwd=root, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    m = json.loads(out.stdout)
    assert m["simulator.step.calls"] == 2
    assert m["simulator.candidates"] > 0 and m["cancellation.s1.evals"] > 0


_TRACED_LOWER_BOUND = """
import json, sys
sys.path[:0] = ['perfbench', 'src']
import numpy as np
import tracer
from kten import kernels
from kten.cli import dispatch
from kten.density import DensityField
from kten.geometry import RestitutionParams
out = sys.argv[1]
t = tracer.Tracer()
tracer.install(t)
assert dispatch(['kernel-scaling', '--r-min', '0.1', '--r-max', '10',
                 '--output-dir', out + '/scaling', '--quiet']) == 0
assert dispatch(['verify-geometry', '--samples', '200',
                 '--output-dir', out + '/geometry', '--quiet']) == 0
f = DensityField.gaussian(3)
soft = kernels.KernelSpec(gamma=-1.0, d=3, s=0.5, model='inelastic', moderately_soft=True)
kernels.Q_s_apply(f, kernels.gaussian_bump(np.array([0.1, -0.3, 0.2]), 1.0),
                  np.array([0.3, 0.4, 0.0]), soft, RestitutionParams.from_beta(0.8))
cutoff = kernels.KernelSpec(gamma=1.0, d=3, h=lambda t: 1.0, model='inelastic')
kernels.cutoff_loss_rate(f, np.array([1.0, 2.0, 2.0]) / 3.0, cutoff)
m = tracer.layer_metrics(t.spans, dict.fromkeys(
    ['majorant_inflation', 'reduce_dt', 'integration', 'quadrature_truncation', 'other'], 0))
print(json.dumps({k: m[k] for k in
                  ('kernels.verify_Kf_scaling.busy_s', 'kernels.Q_s_apply.busy_s',
                   'kernels.plane_evals', 'density.radial_moment.calls',
                   'geometry.pairs')}))
"""


def test_benchmark_tracer_measures_the_lower_bound_layer(tmp_path):
    # the same guard for the kernels, density and geometry wrappers, on the
    # benchmark's lower-bound operations
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _TRACED_LOWER_BOUND, str(tmp_path)],
                         cwd=root, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    m = json.loads(out.stdout)
    assert all(value > 0 for value in m.values()), m


def test_parser_runners_and_benchmark_tracer_name_the_same_subcommands():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("tracer", root / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert len(sub.choices) == 7
    assert set(sub.choices) == set(cli._RUNNERS) == set(tracer.SUBCOMMANDS)


def test_manifest_records_the_environment(tmp_path):
    # run in a fresh process: reading the scipy version must not load scipy
    subprocess.run(
        [sys.executable, "-c", "import sys; from kten.cli import dispatch; "
         "code = dispatch(['verify-geometry', '--samples', '200', '--quiet', "
         f"'--output-dir', {str(tmp_path)!r}]); "
         "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules); "
         "sys.exit(code)"],
        env=_env_with_src(), check=True)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"subcommand", "config", "seed", "version", "environment",
                             "started_unix", "finished_unix", "outputs"}
    environment = manifest["environment"]
    assert set(environment) == {"python", "numpy", "scipy", "cpu_count", "platform"}
    assert environment["python"] == platform.python_version()
    assert environment["numpy"] == np.__version__
    assert environment["cpu_count"] == os.cpu_count()
    assert environment["platform"] == platform.platform()
    assert environment["scipy"] == importlib.metadata.version("scipy")


class TestSpreadingCommand:
    def test_envelope_exponent_from_formula(self, tmp_path):
        run_ok(["spreading", "--beta", "0.8", "--gamma", "-1", "--s", "0.5",
                "--d", "3", "--t0", "0.5", "--l0", "0.1", "--K", "1e-3",
                "--n-max", "30", "--output-dir", tmp_path, "--quiet"])
        out = json.loads((tmp_path / "spreading.json").read_text())
        expected_p = math.log(2.0) / (0.5 * math.log(1.64))
        assert out["envelope"]["p"] == pytest.approx(expected_p, rel=1e-12)
        assert len(out["trace"]) == 31
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "spreading"
        assert manifest["outputs"][0]["path"] == "spreading.json"

    def test_mixture_envelope_is_gaussian(self, tmp_path):
        run_ok(["spreading", "--masses", "1.0,2.0", "--output-dir", tmp_path,
                "--quiet"])
        out = json.loads((tmp_path / "spreading.json").read_text())
        assert out["envelope"]["p"] == 2.0

    def test_unreadable_masses_name_the_option(self, tmp_path, capsys):
        assert dispatch(["spreading", "--masses", "1,x",
                         "--output-dir", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: --masses: cannot read '1,x'")
        assert not (tmp_path / "spreading.json").exists()

    def test_three_masses_are_a_validation_error(self, tmp_path, capsys):
        assert dispatch(["spreading", "--masses", "1,2,3",
                         "--output-dir", str(tmp_path), "--quiet"]) == 1
        assert "two values" in capsys.readouterr().err
        assert not (tmp_path / "spreading.json").exists()


# the manifest config of each subcommand at its defaults, recorded before the
# runners took it from the parsed options. A change here changes the manifests.
DEFAULT_CONFIGS = {
    "spreading": (["--beta", "0.8"], {
        "K": 0.001, "beta": 0.8, "d": 3, "gamma": -1.0, "l0": 0.1, "masses": None,
        "n_max": 30, "s": 0.5, "t0": 0.5}),
    "region": (["--beta", "0.8"], {
        "R": 1.0, "beta": 0.8, "d": 3, "eps_grid": "0.01:0.2:8", "samples": 1000000}),
    "kernel-scaling": ([], {
        "beta": 0.999, "d": 3, "gamma": -1.0, "points_per_decade": 4, "r_max": 100.0,
        "r_min": 0.001, "s": 0.5}),
    "cancellation": ([], {
        "d": 3, "family": "inelastic", "gamma": -1.0, "grid": "0.55:0.95:9", "s": 0.5}),
    "verify-geometry": ([], {"d": 3, "samples": 100000}),
}


@pytest.mark.parametrize("subcommand", sorted(DEFAULT_CONFIGS))
def test_manifest_config_at_defaults(tmp_path, subcommand):
    argv, config = DEFAULT_CONFIGS[subcommand]
    run_ok([subcommand] + argv + ["--seed", "5", "--threads", "2", "--quiet",
                                  "--output-dir", tmp_path])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"] == config
    assert manifest["subcommand"] == subcommand and manifest["seed"] == 5


class TestRegionCommand:
    def test_csv_columns_and_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_ok(["region", "--beta", "0.8", "--eps-grid", "0.05:0.2:3",
                    "--samples", "50000", "--seed", "7",
                    "--output-dir", out, "--quiet"])
        ca, cb = (a / "region.csv").read_text(), (b / "region.csv").read_text()
        assert ca == cb
        assert ca.splitlines()[0] == "eps,estimate,quad_error"

    def test_rows_are_the_quadrature_whatever_samples_and_seed(self, tmp_path):
        # --samples and the seed are accepted but not read
        grid = np.geomspace(0.05, 0.2, 3)
        texts = []
        for k, (samples, seed) in enumerate([("50000", "7"), ("10", "8")]):
            out = tmp_path / str(k)
            run_ok(["region", "--beta", "0.8", "--d", "2", "--R", "1.5", "--eps-grid",
                    "0.05:0.2:3", "--samples", samples, "--seed", seed,
                    "--output-dir", out, "--quiet"])
            texts.append((out / "region.csv").read_text())
        assert texts[0] == texts[1]
        rows = [[float(x) for x in line.split(",")] for line in texts[0].splitlines()[1:]]
        assert rows == [[e, *pair] for e, pair in
                        zip(grid, spreading.region_integral(1.5, grid, 0.8, 2))]

    def test_thread_count_invariance(self, tmp_path):
        outs = []
        for k, threads in enumerate((1, 4, 8)):
            out = tmp_path / f"t{threads}"
            run_ok(["region", "--beta", "0.8", "--eps-grid", "0.05:0.2:3",
                    "--samples", "50000", "--seed", "7", "--threads", threads,
                    "--output-dir", out, "--quiet"])
            outs.append((out / "region.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestCancellationCommand:
    def test_sweep_with_elastic_reference(self, tmp_path):
        run_ok(["cancellation", "--grid", "0.6:0.9:3", "--output-dir", tmp_path,
                "--quiet"])
        lines = (tmp_path / "cancellation.csv").read_text().splitlines()
        assert lines[0] == "param,S1,S1_elastic,ratio"
        assert len(lines) == 4
        for line in lines[1:]:
            _, s1, ref, ratio = (float(x) for x in line.split(","))
            assert s1 > 0 and ref > 0

    @pytest.mark.parametrize("family,grid", [
        ("inelastic", "0.6:1.0:3"), ("inelastic", "0.5:0.9:3"),
        ("mixture-light", "1:3:3"), ("mixture-light", "0.5:3:3"),
        ("mixture-heavy", "1:3:3"), ("mixture-heavy", "0.5:3:3"),
    ])
    def test_grid_value_outside_the_family_range_names_the_option(self, tmp_path, capsys,
                                                                  family, grid):
        code = dispatch(["cancellation", "--family", family, "--grid", grid,
                         "--output-dir", str(tmp_path), "--quiet"])
        assert code == 1
        assert "--grid" in capsys.readouterr().err
        assert not (tmp_path / "cancellation.csv").exists()

    @pytest.mark.parametrize("family", ["mixture-light", "mixture-heavy"])
    def test_mixture_family_runs_at_its_own_default_grid(self, tmp_path, family):
        # the inelastic default, a beta grid below 1, holds no mass ratio > 1
        run_ok(["cancellation", "--family", family, "--output-dir", tmp_path / "default",
                "--quiet"])
        run_ok(["cancellation", "--family", family, "--grid", "1.5:4:6",
                "--output-dir", tmp_path / "given", "--quiet"])
        csv_default, csv_given = ((tmp_path / run / "cancellation.csv").read_bytes()
                                  for run in ("default", "given"))
        assert csv_default == csv_given
        manifest = json.loads((tmp_path / "default" / "manifest.json").read_text())
        assert manifest["config"]["grid"] == "1.5:4:6"


class TestVerifyGeometryCommand:
    def test_passes_and_reports(self, tmp_path):
        run_ok(["verify-geometry", "--samples", "20000",
                "--output-dir", tmp_path, "--quiet"])
        rep = json.loads((tmp_path / "geometry_report.json").read_text())
        assert rep["pass"] is True
        assert rep["momentum_residual"] < 1e-12

    def test_failed_identities_exit_2_with_report(self, tmp_path, monkeypatch):
        def failing(seed, n, d):
            return {"samples": n, "d": d, "pass": False}

        monkeypatch.setattr(geometry, "verify_identities", failing)
        assert dispatch(["verify-geometry", "--samples", "10",
                         "--output-dir", str(tmp_path), "--quiet"]) == 2
        rep = json.loads((tmp_path / "geometry_report.json").read_text())
        assert rep == {"samples": 10, "d": 3, "pass": False}


# (d, count, rows written, start of the message) of snapshot headers that
# read_snapshot refuses; tests/test_simulator.py reads the same files
BAD_SNAPSHOT_HEADERS = [
    (7, 4, 4, "'d' must be 2 or 3, got 7"),
    (0, 4, 0, "'d' must be 2 or 3, got 0"),
    (3, 2 ** 40, 1, "payload holds 24 bytes, header promises 1099511627776 x 3"),
    (3, 2 ** 61, 1, "payload holds 24 bytes, header promises 2305843009213693952 x 3"),
]


def write_raw_snapshot(path, d, count, rows):
    """A snapshot whose header says d and count, holding `rows` rows of d ones."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIQ", simulator.SNAPSHOT_MAGIC, simulator.SNAPSHOT_VERSION,
                             d, count))
        fh.write(np.ones(rows * d, dtype="<f8").tobytes())


class TestSimulateAndTails:
    def write_config(self, tmp_path, outdir, steps=40, seed=321):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join([
            "model = mixture",
            "d = 3",
            "gamma = 0",
            "s_or_h = iso",
            "masses = 1.0",
            "particles = 5000",
            "dt = 0.1",
            f"steps = {steps}",
            f"seed = {seed}",
            "init = gaussian",
            f"output_dir = {outdir}",
            "moments_every = 10",
            "snapshot_every = 20",
        ]) + "\n")
        return cfg

    def test_simulate_outputs_and_formats(self, tmp_path):
        outdir = tmp_path / "sim"
        cfg = self.write_config(tmp_path, outdir)
        run_ok(["simulate", "--config", cfg, "--quiet"])
        moments = (outdir / "moments.csv").read_text().splitlines()
        assert moments[0].startswith("t,mass_0,px,py,pz,energy,entropy")
        snaps = sorted(outdir.glob("snapshot_*.kten"))
        assert snaps
        v = read_snapshot(snaps[0])
        assert v.shape == (5000, 3)
        index = json.loads((outdir / "snapshots.json").read_text())
        assert len(index["snapshots"]) == len(snaps)
        tails_files = sorted(outdir.glob("tails_*.csv"))
        assert len(tails_files) == len(snaps)
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert {o["path"] for o in manifest["outputs"]} >= \
            {"moments.csv", snaps[0].name}

    def test_simulate_byte_identical_rerun(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cfg1 = self.write_config(tmp_path, out1)
        cfg2 = tmp_path / "run2.cfg"
        cfg2.write_text(cfg1.read_text().replace(str(out1), str(out2)))
        run_ok(["simulate", "--config", cfg1, "--quiet"])
        run_ok(["simulate", "--config", cfg2, "--quiet"])
        for name in ["moments.csv"] + [p.name for p in out1.glob("*.kten")]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_tails_report(self, tmp_path):
        outdir = tmp_path / "sim"
        cfg = self.write_config(tmp_path, outdir, steps=40)
        run_ok(["simulate", "--config", cfg, "--quiet"])
        env = tmp_path / "env.json"
        env.write_text('{"a": 1e-9, "b": 0.5, "p": 2.0}\n')
        run_ok(["tails", "--snapshots", outdir, "--envelope", env,
                "--t0", "0.5", "--output-dir", tmp_path, "--quiet"])
        rep = json.loads((tmp_path / "tails_report.json").read_text())
        assert rep["species"][0]["uniform"] is True
        assert "resolved" in rep["note"]

    def short_run_tails_argv(self, tmp_path):
        outdir = tmp_path / "sim"
        run_ok(["simulate", "--config", self.write_config(tmp_path, outdir, steps=2),
                "--quiet"])
        env = tmp_path / "env.json"
        env.write_text('{"a": 1e-9, "b": 0.5, "p": 2.0}\n')
        return ["tails", "--snapshots", str(outdir), "--envelope", str(env),
                "--t0", "0.1", "--output-dir", str(tmp_path), "--quiet"]

    def test_tails_insufficient_data_is_reported(self, tmp_path, monkeypatch):
        argv = self.short_run_tails_argv(tmp_path)

        def starved(hist, window):
            raise InsufficientData("window holds 3 bins, need 8")

        monkeypatch.setattr(tails, "fit_tail_exponent", starved)
        run_ok(argv)
        rep = json.loads((tmp_path / "tails_report.json").read_text())
        fits = [entry["fit"] for entry in rep["species"][0]["times"]]
        assert fits == [{"error": "window holds 3 bins, need 8"}] * 2

    def test_tails_other_fit_errors_propagate(self, tmp_path, monkeypatch):
        argv = self.short_run_tails_argv(tmp_path)

        def broken(hist, window):
            raise ZeroDivisionError("bug in the fit")

        monkeypatch.setattr(tails, "fit_tail_exponent", broken)
        with pytest.raises(ZeroDivisionError):
            dispatch(argv)

    def test_tails_truncated_snapshot_names_file(self, tmp_path, capsys):
        argv = self.short_run_tails_argv(tmp_path)
        snap = sorted((tmp_path / "sim").glob("snapshot_*.kten"))[-1]
        snap.write_bytes(snap.read_bytes()[:-8])
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and str(snap) in err

    @pytest.mark.parametrize("d, count, rows, message", BAD_SNAPSHOT_HEADERS,
                             ids=["d7", "d0", "count-2^40", "count-2^61"])
    def test_tails_snapshot_header_refused_naming_file(self, tmp_path, capsys, d, count,
                                                       rows, message):
        # d = 7 gave exit 0 and a report; d = 0 a traceback, and the two
        # counts MemoryError and OverflowError
        argv = self.short_run_tails_argv(tmp_path)
        snap = sorted((tmp_path / "sim").glob("snapshot_*.kten"))[-1]
        write_raw_snapshot(snap, d, count, rows)
        assert dispatch(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"validation error: snapshot {snap}: {message}")
        assert not (tmp_path / "tails_report.json").exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_tails_snapshot_not_finite_names_file(self, tmp_path, capsys, bad):
        # one NaN velocity gave exit 0, "uniform": true and NaN in the JSON
        argv = self.short_run_tails_argv(tmp_path)
        snap = sorted((tmp_path / "sim").glob("snapshot_*.kten"))[-1]
        v = read_snapshot(snap)
        v[7, 1] = bad
        simulator.write_snapshot(snap, v)
        assert dispatch(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"validation error: snapshot {snap}: needs one velocity or more, all finite")
        assert not (tmp_path / "tails_report.json").exists()

    def test_tails_missing_envelope_names_file(self, tmp_path, capsys):
        argv = self.short_run_tails_argv(tmp_path)
        missing = tmp_path / "no_such_env.json"
        argv[argv.index("--envelope") + 1] = str(missing)
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: cannot read envelope") and str(missing) in err
        assert not (tmp_path / "tails_report.json").exists()

    @pytest.mark.parametrize("key", ["a", "b", "p"])
    def test_tails_envelope_without_key_names_file_and_key(self, tmp_path, capsys, key):
        argv = self.short_run_tails_argv(tmp_path)
        env = tmp_path / "env.json"
        env.write_text(json.dumps({k: v for k, v in {"a": 1e-9, "b": 0.5, "p": 2.0}.items()
                                   if k != key}) + "\n")
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: envelope {env}: missing key {key!r}")
        assert not (tmp_path / "tails_report.json").exists()

    @pytest.mark.parametrize("text, message", [
        ("a = 1e-9\n", "cannot read envelope {env}: Expecting value"),
        ("[1e-9, 0.5, 2.0]\n", "envelope {env}: want a JSON object, got list"),
    ], ids=["not-json", "not-an-object"])
    def test_tails_malformed_envelope_names_file(self, tmp_path, capsys, text, message):
        argv = self.short_run_tails_argv(tmp_path)
        env = tmp_path / "env.json"
        env.write_text(text)
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: " + message.format(env=env))
        assert not (tmp_path / "tails_report.json").exists()

    def test_tails_listed_snapshot_missing_names_file(self, tmp_path, capsys):
        argv = self.short_run_tails_argv(tmp_path)
        snap = sorted((tmp_path / "sim").glob("snapshot_*.kten"))[-1]
        snap.unlink()
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: snapshot {snap}: listed in "
                              f"{tmp_path / 'sim' / 'snapshots.json'} but missing")
        assert not (tmp_path / "tails_report.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda index: {}, "missing key 'snapshots'"),
        (lambda index: {"snapshots": 5}, "'snapshots' must be a list, got int"),
        (lambda index: {"snapshots": []}, "'snapshots' lists no snapshot"),
        (lambda index: {"snapshots": index["snapshots"] + [7]}, "entry 2 is not an object"),
        (lambda index: {"snapshots": [{**index["snapshots"][0], "file": 3}]},
         "entry 0 'file' must be a string, got 3"),
    ] + [
        (lambda index, key=key: {"snapshots": [
            {k: v for k, v in item.items() if not (i == 1 and k == key)}
            for i, item in enumerate(index["snapshots"])]}, f"entry 1 lacks {key!r}")
        for key in ("file", "species", "t", "weight")
    ] + [
        (lambda index, key=key, value=value: {"snapshots": [
            {**item, key: value} if i == 1 else item
            for i, item in enumerate(index["snapshots"])]},
         f"entry 1 {key!r} must be {wanted}, got {value!r}")
        for key, value, wanted in (("weight", "x", "a number"), ("t", None, "a number"),
                                   ("weight", True, "a number"),
                                   ("species", 0.0, "an integer"),
                                   ("species", False, "an integer"))
    ], ids=["no-snapshots-key", "snapshots-not-a-list", "no-snapshot", "entry-not-object",
            "file-not-a-string",
            "entry-without-file", "entry-without-species", "entry-without-t",
            "entry-without-weight", "weight-not-a-number", "t-null", "weight-bool",
            "species-float", "species-bool"])
    def test_tails_malformed_index_names_file(self, tmp_path, capsys, edit, message):
        argv = self.short_run_tails_argv(tmp_path)
        index_path = tmp_path / "sim" / "snapshots.json"
        index_path.write_text(json.dumps(edit(json.loads(index_path.read_text()))))
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: snapshot index {index_path}: {message}")
        assert not (tmp_path / "tails_report.json").exists()

    @pytest.mark.parametrize("file_seed", [None, 7])
    def test_manifest_records_the_seed_that_drove_the_run(self, tmp_path, file_seed):
        outdir = tmp_path / "sim"
        cfg = self.write_config(tmp_path, outdir, steps=1, seed=file_seed)
        if file_seed is None:
            cfg.write_text("".join(ln for ln in cfg.read_text().splitlines(True)
                                   if not ln.startswith("seed")))
        run_ok(["simulate", "--config", cfg, "--seed", "99", "--quiet"])
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["seed"] == (99 if file_seed is None else file_seed)

    def test_missing_config_key_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model = mixture\n")
        assert dispatch(["simulate", "--config", str(cfg)]) == 1
        assert "missing keys" in capsys.readouterr().err

    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        outdir = tmp_path / "sim"
        cfg = self.write_config(tmp_path, outdir, steps=1)
        cfg.write_text(cfg.read_text() + "theta_mn = 0.5\n")
        assert dispatch(["simulate", "--config", str(cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and "theta_mn" in err
        assert not (outdir / "moments.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("d", "three"), ("moments_every", "0"), ("snapshot_every", "-1"),
        ("steps", "0"), ("particles", "5000,0"), ("particles", "5e3"), ("dt", "0"),
        ("dt", "nan"), ("tail_bins", "0"), ("s_or_h", "half"), ("s_or_h", "cutoff"),
        ("masses", "1,x"), ("model", "inelstic"), ("init", "foo")])
    def test_bad_config_value_is_validation_error_naming_key(self, tmp_path, capsys,
                                                             key, value):
        outdir = tmp_path / "sim"
        cfg = self.write_config(tmp_path, outdir, steps=1)
        lines = [ln for ln in cfg.read_text().splitlines()
                 if ln.split("=", 1)[0].strip() != key]
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        assert dispatch(["simulate", "--config", str(cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error") and f"config key {key!r}" in err
        assert not (outdir / "moments.csv").exists()

    # (the model's lines, two species unless they set particles; the
    # message after "config key")
    @pytest.mark.parametrize("lines, fragment", [
        (["model = mixture", "masses = 4.0,1.0"], "'masses' must be strictly increasing"),
        (["model = mixture", "masses = 1.0,1.0"], "'masses' must be strictly increasing"),
        (["model = mixture", "masses = -1.0,1.0"], "'masses' must be > 0"),
        # failed in the first step naming neither the config key nor masses
        (["model = mixture", "masses = 1.0,inf"], "'masses' must be > 0 and finite"),
        (["model = mixture", "masses = 1.0"], "'masses' must hold one mass per species"),
        (["model = mixture"], "'masses' is required by model = mixture"),
        (["model = mixture", "masses = 1.0,2.0", "alpha = 0.5"],
         "'alpha' is not read by model = mixture"),
        (["model = inelastic", "alpha = 0.5", "masses = 1.0,2.0"],
         "'masses' is not read by model = inelastic"),
        (["model = inelastic", "alpha = 0.5"], "'particles' must hold one count"),
        (["model = inelastic", "particles = 100"], "'alpha' is required by model = inelastic"),
        (["model = inelastic", "particles = 100", "alpha = 1.5"], "'alpha' must be in (0, 1)"),
        (["model = mixture", "masses = 1.0,2.0", "theta_min = 0.05"],
         "'theta_min' is not read by s_or_h = iso"),
        (["model = mixture", "masses = 1.0,2.0", "theta_min = -3"],
         "'theta_min' must be > 0"),
        (["model = mixture", "masses = 1.0,2.0", "theta_min = 1.0"],
         "'theta_min' must be > 0 and < 0.5, got 1.0"),
        (["model = mixture", "masses = 1.0,2.0", "theta_min = 4.0"],
         "'theta_min' must be > 0 and < 0.5, got 4.0"),
    ], ids=["masses-decreasing", "masses-equal", "masses-negative", "masses-inf", "masses-count",
            "masses-missing", "alpha-under-mixture", "masses-under-inelastic",
            "inelastic-two-species", "alpha-missing", "alpha-range", "theta-min-under-iso",
            "theta-min-negative", "theta-min-one", "theta-min-four"])
    def test_model_and_kernel_keys_are_checked_naming_the_key(self, tmp_path, capsys,
                                                              lines, fragment):
        outdir = tmp_path / "sim"
        if not any(ln.startswith("particles") for ln in lines):
            lines = lines + ["particles = 100,100"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines + [
            "d = 3", "gamma = 0", "s_or_h = iso", "dt = 0.01", "steps = 1",
            f"output_dir = {outdir}"]) + "\n")
        assert dispatch(["simulate", "--config", str(cfg), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"validation error: config key {fragment}")
        assert not outdir.exists()

    @pytest.mark.parametrize("changes, fragment", [
        ({"d": "4"}, "'d' must be 2 or 3, got 4"),
        ({"s_or_h": "1.5"}, "'s_or_h' must lie in (0, 1), got 1.5"),
        ({"gamma": "2"}, "'gamma' must lie in [0, 1] (cutoff), got 2.0"),
        ({"gamma": "-1", "s_or_h": "0.2"}, "'gamma' and 's_or_h' must satisfy"),
        # int() of a NaN candidate count raised a bare ValueError in the first step
        ({"gamma": "nan", "s_or_h": "0.2"}, "'gamma' must be finite, got nan"),
        ({"gamma": "inf", "s_or_h": "0.2"}, "'gamma' must be finite, got inf"),
    ], ids=["d", "s", "cutoff-gamma", "moderately-soft", "gamma-nan", "gamma-inf"])
    def test_kernel_error_names_its_config_key(self, tmp_path, capsys, changes, fragment):
        # d = 4 printed "only d = 2 and d = 3 are supported", s_or_h = 1.5
        # "noncutoff spec needs s in (0, 1)"
        outdir = tmp_path / "sim"
        cfg = self.write_config(tmp_path, outdir, steps=1)
        lines = [ln for ln in cfg.read_text().splitlines()
                 if ln.split("=", 1)[0].strip() not in changes]
        cfg.write_text("\n".join(lines + [f"{k} = {v}" for k, v in changes.items()]) + "\n")
        assert dispatch(["simulate", "--config", str(cfg), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"validation error: config key {fragment}")
        assert not outdir.exists()

    # gamma = 800 overflowed the majorant (a RuntimeWarning) and int() of the
    # infinite count raised OverflowError; the count at dt = 1e300 made
    # rng.integers raise "Maximum allowed dimension exceeded"
    @pytest.mark.parametrize("lines", [
        ["model = mixture", "masses = 1,2", "particles = 100,100", "gamma = 800",
         "s_or_h = 0.2", "dt = 0.01"],
        ["model = inelastic", "alpha = 0.5", "particles = 100", "gamma = 0",
         "s_or_h = iso", "dt = 1e300"],
    ], ids=["gamma-800", "dt-1e300"])
    def test_uncountable_candidate_count_is_a_numerical_failure(self, tmp_path, capsys,
                                                                lines):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines + ["d = 3", "steps = 1",
                                          f"output_dir = {tmp_path / 'sim'}"]) + "\n")
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            assert dispatch(["simulate", "--config", str(cfg), "--quiet"]) == 2
        assert [str(w.message) for w in rec] == []
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: step with dt = ") and err.count("\n") == 1

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Simulation config", 1)[1].split("```ini", 1)[1]
        listed = {line.split("=", 1)[0].strip()
                  for line in block.split("```", 1)[0].splitlines() if "=" in line}
        assert listed == set(cli._SIM_REQUIRED_KEYS) | set(cli._SIM_OPTIONAL_KEYS)


# sha256 of every `simulate` output except manifest.json (which holds
# times), for small runs of both collision rules, cutoff and noncutoff
# (x86-64, numpy 2.4). The three cutoff runs were re-recorded when the
# cutoff wave began to draw its impact normal uniform on the sphere instead
# of through an angle table and a tangent frame, and the three noncutoff
# runs when the noncutoff wave began to commit through the impact normal,
# built in the `utils.tangent_basis` frame, instead of through sigma on a
# cross-product frame (the same laws, new draws). A change here is a change
# of computed numbers.
GOLDEN_CONFIGS = {
    "inelastic_d3_gamma0": [
        "model = inelastic", "d = 3", "gamma = 0", "s_or_h = iso",
        "alpha = 0.5", "particles = 4000", "dt = 0.05", "steps = 20",
        "seed = 2024", "init = gaussian", "moments_every = 1",
        "snapshot_every = 10"],
    "inelastic_d2_gamma1": [
        "model = inelastic", "d = 2", "gamma = 1", "s_or_h = iso",
        "alpha = 0.6", "particles = 3000", "dt = 0.02", "steps = 20",
        "seed = 77", "init = two_bump", "moments_every = 1",
        "snapshot_every = 10"],
    "mixture_d3_cutoff": [
        "model = mixture", "d = 3", "gamma = 0", "s_or_h = iso",
        "masses = 1,3", "particles = 2000,1000", "dt = 0.05", "steps = 20",
        "seed = 31", "init = gaussian", "moments_every = 1",
        "snapshot_every = 10"],
    "mixture_d2_noncutoff": [
        "model = mixture", "d = 2", "gamma = 0.5", "s_or_h = 0.3",
        "masses = 1,2", "particles = 1500,1500", "dt = 0.005", "steps = 20",
        "seed = 5", "init = two_bump", "moments_every = 1",
        "snapshot_every = 10"],
    "inelastic_d3_noncutoff": [
        "model = inelastic", "d = 3", "gamma = 1", "s_or_h = 0.5",
        "theta_min = 0.05", "alpha = 0.7", "particles = 3000", "dt = 0.0002",
        "steps = 20", "seed = 11", "init = shell", "moments_every = 1",
        "snapshot_every = 10"],
    # the moderately soft case; the majorant is inflated three times, so steps re-run
    "inelastic_d3_soft_noncutoff": [
        "model = inelastic", "d = 3", "gamma = -1", "s_or_h = 0.5",
        "theta_min = 0.05", "alpha = 0.7", "particles = 3000", "dt = 0.0005",
        "steps = 20", "seed = 19", "init = gaussian", "moments_every = 1",
        "snapshot_every = 10"],
}
GOLDEN_DIGESTS = {
    "inelastic_d3_gamma0": {
        "moments.csv": "83784e529edc5853176e299138811be9d2faae23b7255277b0507dcba286f07b",
        "snapshot_0000_species0.kten": "d2fc7122f127a704d479417636a46378a6884ffb5f87d0062b096dc130299e94",
        "snapshot_0001_species0.kten": "8fa4fdb0eba484f00728b0e41d33725323c2fa1093d2b0fe4dc45f8250c15859",
        "snapshot_0002_species0.kten": "ee12841e25588f0deb40c304ac88c90331b53ad144160374e095dfb5ad268835",
        "snapshots.json": "7d7ef3cc9e5bf03b42c78173fadcdae38f67ef1e7d58fb959f61604b2922042f",
        "tails_0000.csv": "51f503c42b251882f21d1075dd47dc87356506e5454f8ae4f2b5cc0bdd61359f",
        "tails_0001.csv": "c6d19cfb0ab61313736df7b4d0eb03d3d314434b27e94acaca7629adb8df8da6",
        "tails_0002.csv": "b2aa988573cb6fb8929f9638b874e50adf5079c7bae664fcbb27e484eab1bcc3",
    },
    "inelastic_d2_gamma1": {
        "moments.csv": "b5bdcb514add8b5d6fa55c474035c34402c1eab1833813cb6f51c4a6cf6fb830",
        "snapshot_0000_species0.kten": "a87a022e71ce577f6ef71539c2fe0fd4b15c00725ea18ebacaf8f4e1abd143d3",
        "snapshot_0001_species0.kten": "362bb89cc087c4aca69649f2b6c8d825272a7e5bb7af7d3bbb5a6a5fe1c2e81e",
        "snapshot_0002_species0.kten": "416773a677b0061888e362eb15c76a7309897adc587fe1dae161570e590bc920",
        "snapshots.json": "1d9b0f59ff3e1893d80e0a30368a688693b95fa7964f015f7543ba601ac27679",
        "tails_0000.csv": "a6c9cafe72c4bf8cdf9c54f296a73bf4dbd6541d7886714f39d7d9002451a064",
        "tails_0001.csv": "9b939be634637dcd82226c5513e642b2af689d6d922438bb7aa0983a51f15fbe",
        "tails_0002.csv": "f428ce40e39478d6abc08accb3e81ae1a549c1c95c618c8d5bad0520b697245c",
    },
    "mixture_d3_cutoff": {
        "moments.csv": "5d26b1728e3b9f6628b9dcb124d9256bd7d3ba44d2ed66c40cc81e838706283b",
        "snapshot_0000_species0.kten": "39d14764f4d642563ceae43697bb89384ab15172ca5f74f891d372e274c9407a",
        "snapshot_0000_species1.kten": "6d140b4e014398e0c0e8feba6ec41b2ea878d952cfa1898169390cf5d0383bee",
        "snapshot_0001_species0.kten": "bd94a20998d26aaac479477f45932a1e134a9214116fdfbccb8da27187d5f81c",
        "snapshot_0001_species1.kten": "5965ee1310944fffc49770fe18e294621719c938a3e90c7f337ff98c2fab0772",
        "snapshot_0002_species0.kten": "f75b4d4fc3ce31133bd9db143e8e463693c19ebbc7912a4399352f09d94b4eef",
        "snapshot_0002_species1.kten": "414ea96b768d51afae85bb255698a6fdb3a6decc8bb262b3dcd6f11288b523b5",
        "snapshots.json": "b5d5ec82495012e7ce5ebba6d1d0c6310d52dcc0380445ff67cb6453f688535b",
        "tails_0000.csv": "c2032fbb40a86a88d53c3d22b04cbdea1dbdc0e1e22596b7606dff3245082d19",
        "tails_0001.csv": "69e563bceb29faec9a029e81c0fb12c65d1413a4ae73d9bffe045582b16e8766",
        "tails_0002.csv": "b25cc8edc5ccdcb2817015a6284bfe17422b1414170b6e4d424fba6fbc553b06",
    },
    "mixture_d2_noncutoff": {
        "moments.csv": "fa6fc08fe65caf76bee245e725b6a73ec43a25cd2dced6fb2166086b24daf1e0",
        "snapshot_0000_species0.kten": "454b1d53057d74ac3153ee8003507271a7df2ee14c76edf8d50bdbd3b2a6fc3b",
        "snapshot_0000_species1.kten": "e0e018d2c3aa5b564b64ef8410831251cfd64f638e33cf017eb84e8f5acb186d",
        "snapshot_0001_species0.kten": "b02ff652b81b4d43bd55110c71ee5a52476e331f012d6259126fe5a886f115f6",
        "snapshot_0001_species1.kten": "a624931f9147aa3063cc76724455d66ee9cb291bc748c4f477f8a7c6d1ed716b",
        "snapshot_0002_species0.kten": "81b5c34cbf816c4a97f378d42d96ef374bf4a9775e5b3318a194476202469498",
        "snapshot_0002_species1.kten": "fc2a82778bed7a5b32fa564c9898700007a293c8919947e04ca2ba61199c8370",
        "snapshots.json": "4d24e11937fbfde3defe7075115cc2b3b6c541a373ab24dac8409b3b8acc7ecf",
        "tails_0000.csv": "82ed93d3336e4648b3be8f09997f5e658378a1a94c292e681f5169b8689aece5",
        "tails_0001.csv": "e4536c33ed6a2371d132b20d69145f3aead2dce8ce2b4b77762c423fc023a8e8",
        "tails_0002.csv": "7df51d61842d938a2511d0dcab344c35f440584e1e74effa87f2fa83b68c3210",
    },
    "inelastic_d3_noncutoff": {
        "moments.csv": "4af2b315c2cd0e9af3c141e4abb7f483ed13506404522bbc78a2359fe98f6a7c",
        "snapshot_0000_species0.kten": "b2f40d2991345c9660a6a19202e5e5036877b67187812252b7e704cdb19c2ddf",
        "snapshot_0001_species0.kten": "ecac5c1a526ec5dca3207b1af90918a7b92c22d21023d3c5f5dbda101ecc8183",
        "snapshot_0002_species0.kten": "b2f0d2abe6ac69c19ac59379b6355c409a2a44b8a7762750fff3b92b099d3459",
        "snapshots.json": "15f30a5d9d63d1b22b9493531ff39b9a248f6c118cadc9b4d4fb7ea094562504",
        "tails_0000.csv": "e0157a4fde85cea5f5e355f9c938a4d67a2a01578df68d6335940cc35c48f1c8",
        "tails_0001.csv": "4c00d405a83fce8f055a6ad15f82125ea766176b32edb648401ad6c2d7cfab2f",
        "tails_0002.csv": "d6ce393298c82996c4f02f696a6b3c48ed5784e5db2a7362da6376fae5fae634",
    },
    "inelastic_d3_soft_noncutoff": {
        "moments.csv": "608d6fb978f408f87c7c8178a1e3678c1a68ada7430079a58a541c7a5754c2bc",
        "snapshot_0000_species0.kten": "9bd9a9ddf3c6c627557b5c4e36383a8c11174a14da6c7e9591e2753b7925ba1b",
        "snapshot_0001_species0.kten": "3e4caa0350c1b05274c3354f1f78f55b0febb04b567a16881fe146fd6a133416",
        "snapshot_0002_species0.kten": "b47efb30a61c06d0e2b184a902cc9cfa5d00d36871517734b51aa0a5427a86c4",
        "snapshots.json": "09ebe7d42fde2683af93d2155af555ee032e6eb6af2d848e67ee43f3ba8821d8",
        "tails_0000.csv": "831582a428f7853cc03572317e18866bb045e94d2240f73c0758223af1423d41",
        "tails_0001.csv": "d03fcd055354e863f0714187fdf2e6658ac0d4eaa93ece5de51815a8ea54be6d",
        "tails_0002.csv": "40b9bdfe034b2d3e178462f409b252f8891f41166e3986db23c00bf4ad3fc660",
    },
}


def simulate_golden(tmp_path, name):
    """Run GOLDEN_CONFIGS[name] into tmp_path/sim and return that directory."""
    outdir = tmp_path / "sim"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(GOLDEN_CONFIGS[name]
                             + [f"output_dir = {outdir}"]) + "\n")
    run_ok(["simulate", "--config", cfg, "--quiet"])
    return outdir


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_simulate_golden_digests(tmp_path, name):
    outdir = simulate_golden(tmp_path, name)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(outdir.iterdir()) if p.name != "manifest.json"}
    assert digests == GOLDEN_DIGESTS[name]


# sha256 of `tails_report.json` for the two-species mixture_d3_cutoff run,
# re-recorded with that run's golden digests (x86-64, numpy 2.4). t0 falls
# between the snapshots at t = 0 and 0.5, so the t = 0 entries carry a fit
# but no scan keys; species 0 is dominated at every scanned time, species 1
# first fails at t = 0.5, and every fit is an InsufficientData error.
TAILS_REPORT_DIGEST = "5c1136e79e58acf359f5729d720c01100d032e5fa38d29911993ff2e2e33b5e4"


def test_tails_report_golden_digest(tmp_path):
    outdir = simulate_golden(tmp_path, "mixture_d3_cutoff")
    env = tmp_path / "env.json"
    env.write_text('{"a": 0.03, "b": 0.5, "p": 2.0}\n')
    run_ok(["tails", "--snapshots", outdir, "--envelope", env, "--t0", "0.25",
            "--output-dir", tmp_path / "tails", "--quiet"])
    report = (tmp_path / "tails" / "tails_report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == TAILS_REPORT_DIGEST


# sha256 of one output of each lower-bound sweep, recorded before the sweeps
# shared their quadrature rules, tangent bases and Monte Carlo draws
# (x86-64, numpy 2.4); kernel-scaling re-recorded when Gaussian ring sums
# became closed forms (scipy 1.17); region and cancellation-inelastic re-recorded
# when the region Monte Carlo moved onto u.a and |u|^2 and the cancellation
# angle onto its atan2 closed form (rounding only: at most 7.7e-15 and 2.6e-16
# relative); region re-recorded when it became the quadrature with the
# columns eps,estimate,quad_error (its Monte Carlo digest was 3e864b5c...);
# verify-geometry re-recorded when the restitution residual moved onto the
# n-rule's outputs (it was ea38e851...).
# A change here is a change of computed numbers. Both mixture families take
# lambda = 1/x, so they write the same CSV.
LOWERBOUND_RUNS = {
    "region": (["region", "--beta", "0.8", "--eps-grid", "0.01:0.2:4",
                "--samples", "200000", "--seed", "13"], "region.csv"),
    "cancellation-inelastic": (["cancellation"], "cancellation.csv"),
    "cancellation-mixture-light": (["cancellation", "--family", "mixture-light",
                                    "--grid", "1.5:4:6"], "cancellation.csv"),
    "cancellation-mixture-heavy": (["cancellation", "--family", "mixture-heavy",
                                    "--grid", "1.5:4:6"], "cancellation.csv"),
    "kernel-scaling": (["kernel-scaling", "--points-per-decade", "2"],
                       "kernel_scaling.csv"),
    "verify-geometry": (["verify-geometry", "--seed", "13"], "geometry_report.json"),
}
LOWERBOUND_DIGESTS = {
    "region": "138fe6adf12fdcf3b2db7e352db2d8df43e50164aa5ca9dc1a702c8661014d17",
    "cancellation-inelastic": "5afe6e7f480b169374baea747e9de14896febb9bcca99cbcc72a6cc833eb7642",
    "cancellation-mixture-light": "7cf79cd4cf6415d6a7b0c1de759805cf2ea619feb481c524407fef80d4f792ad",
    "cancellation-mixture-heavy": "7cf79cd4cf6415d6a7b0c1de759805cf2ea619feb481c524407fef80d4f792ad",
    "kernel-scaling": "c938027841dabef86d34a5cd5c2e6d3e0db365433c425a198d3ff6424e57b84d",
    "verify-geometry": "2b9fd5b303522da7b4fb19efa560a34a398b9f9718d3ee9911d20438ee580c6b",
}


def test_lowerbound_golden_digests(tmp_path):
    digests = {}
    for name, (argv, output) in LOWERBOUND_RUNS.items():
        out = tmp_path / name
        run_ok(argv + ["--quiet", "--output-dir", out])
        digests[name] = hashlib.sha256((out / output).read_bytes()).hexdigest()
    assert digests == LOWERBOUND_DIGESTS


# exit code and sha256 of geometry_report.json from `kten verify-geometry --d D
# --seed S` at the default 1e5 samples, recorded before the identities ran on
# one (3, n, d) draw with row_dot sums (x86-64, numpy 2.4), and re-recorded
# when the restitution residual moved onto the n-rule's outputs: d = 2 seeds
# 3, 6 and 10, which exceeded the restitution tolerance before, now pass.
GEOMETRY_REPORT_DIGESTS = {
    (2, 1): (0, "ddd07085482cab542aae0dce22cbe0967a1ff826d8feaef83c4013a83ec54f18"),
    (2, 2): (0, "503d03b479b6e0c34406f8a50804a6d1df205106275e58fa1f2938a62f38033e"),
    (2, 3): (0, "f446520a3a7eb83c15fa203340d44e7e6305f3e463e2d5111f717c92a4c70770"),
    (2, 4): (0, "2c61f71f935527cd62933090b2704324e4db617517a3d9cbaf30f4cd5d6177ee"),
    (2, 5): (0, "07207838722b7cb68f6e7007c391de568d31a84fa63ef396406a09bcf456a602"),
    (2, 6): (0, "17efe5b37aaafe8f73413430f32429ccc7f6ef0d7251922bf962cdd7dd9e6966"),
    (2, 7): (0, "c89fecc0f38a3747117ec84113f6f33536b38897afa10831a7ab0a5123912a63"),
    (2, 8): (0, "88c1e49aafde9384255a5cc32009cae8dd9d540a5e07de1ffc3774c00ce2f2aa"),
    (2, 9): (0, "ef1b94e6a1218ca0160c728c03c82149f8a97d9e06ff7e1f9894a30f17988f06"),
    (2, 10): (0, "bbb7595e046319967c0429184b49f34451e0fa3b22f225350e855c709045bf50"),
    (3, 1): (0, "a49362501fc8272ccc4d390a1c9147386f0b9009cc7be3773c269ca496babfa7"),
    (3, 2): (0, "42625c9a6616f0380d46af0ab4d33991c9d4f5fce70b9a4e74df81786d92ce76"),
    (3, 3): (0, "6200fa48408aa14a5b4dad9508ac31d93ae36436945c3a0e712c6275148b885e"),
    (3, 4): (0, "06f4b378059eea826407eec85b0c7805ae11a7be26be9f0648f4f5da8bdadf04"),
    (3, 5): (0, "d8758e5ade573be8e7a33cd6566bd9df483d17bd347ace0b055996ee81325c28"),
    (3, 6): (0, "d39ac67c5d3ebd7b99118fa24799d29cb6389e8041ab19ed21325429dcd64108"),
    (3, 7): (0, "a298a23146605d0f2c2ab7fae4027dc27baf4171aa4cf57dd9d555a8de4e4ad2"),
    (3, 8): (0, "d3f2a2db8f48c3e9c4ee63ac5afff723c7f6f4e577e9df3ed2f929930d61db0c"),
    (3, 9): (0, "91383dc61f49cf8f2970d3f0fd9e0972158d46b6134c3ff9754500e4cf406f97"),
    (3, 10): (0, "4a19f28c18fbeb283dc14f7df91911f084fcb5c8c28a1fe558983613bbffefc3"),
}


def test_geometry_report_digests(tmp_path):
    found = {}
    for d, seed in GEOMETRY_REPORT_DIGESTS:
        out = tmp_path / f"{d}-{seed}"
        code = dispatch(["verify-geometry", "--d", str(d), "--seed", str(seed),
                         "--quiet", "--output-dir", str(out)])
        report = (out / "geometry_report.json").read_bytes()
        found[d, seed] = (code, hashlib.sha256(report).hexdigest())
    assert found == GEOMETRY_REPORT_DIGESTS


@pytest.mark.parametrize("argv, option, message", [
    (["region", "--beta", "0.8", "--samples", "0"], "--samples", "must be >= 1, got '0'"),
    (["region", "--beta", "0.8", "--samples", "-5"], "--samples", "must be >= 1, got '-5'"),
    (["region", "--beta", "0.8", "--eps-grid", "0.01:0.2:0"], "--eps-grid",
     "grid '0.01:0.2:0' needs n >= 1 points"),
    (["region", "--beta", "0.8", "--eps-grid", "0:0.2:4"], "--eps-grid",
     "geometric grid '0:0.2:4' needs lo, hi > 0"),
    (["kernel-scaling", "--r-min", "0"], "--r-min", "must be > 0, got '0'"),
    (["kernel-scaling", "--r-max", "-1"], "--r-max", "must be > 0, got '-1'"),
    (["kernel-scaling", "--points-per-decade", "0"], "--points-per-decade",
     "must be >= 1, got '0'"),
    (["cancellation", "--grid", "0.6:0.9:0"], "--grid", "grid '0.6:0.9:0' needs n >= 1 points"),
    (["cancellation", "--grid", "0.55:inf:3"], "--grid",
     "grid '0.55:inf:3' needs finite lo and hi"),
    (["region", "--beta", "0.8", "--eps-grid", "0.01:inf:3"], "--eps-grid",
     "grid '0.01:inf:3' needs finite lo and hi"),
    (["verify-geometry", "--samples", "0"], "--samples", "must be >= 1, got '0'"),
    (["cancellation", "--threads", "0"], "--threads", "must be >= 1, got '0'"),
    (["--threads", "0", "cancellation"], "--threads", "must be >= 1, got '0'"),
], ids=["region-samples-0", "region-samples-neg", "region-eps-grid-n0",
        "region-eps-grid-lo0", "kernel-scaling-r-min", "kernel-scaling-r-max",
        "kernel-scaling-points-per-decade", "cancellation-grid-n0",
        "cancellation-grid-inf", "region-eps-grid-inf",
        "verify-geometry-samples", "threads-after", "threads-before"])
def test_numeric_option_out_of_range_is_a_usage_error_naming_it(tmp_path, capsys,
                                                                argv, option, message):
    # an infinite grid end made numpy warn before the refusal
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        assert dispatch(argv + ["--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
    assert [str(w.message) for w in rec] == []
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {option}: {message}") and "usage" in err
    assert not (tmp_path / "out").exists()


def _tails_inputs(tmp_path):
    """A snapshot directory with one snapshot at t = 1, an empty directory, a
    good envelope, one with p < 0 and one with a = NaN."""
    snaps, empty = tmp_path / "snaps", tmp_path / "empty"
    snaps.mkdir()
    empty.mkdir()
    simulator.write_snapshot(snaps / "s.kten", np.random.default_rng(0).normal(size=(500, 3)))
    (snaps / "snapshots.json").write_text(json.dumps({"snapshots": [
        {"file": "s.kten", "t": 1.0, "species": 0, "weight": 1.0}]}))
    env, badenv, nanenv = (tmp_path / f"{k}.json" for k in ("env", "badenv", "nanenv"))
    env.write_text('{"a": 1e-9, "b": 0.5, "p": 2.0}\n')
    badenv.write_text('{"a": 1e-9, "b": 0.5, "p": -1.0}\n')
    nanenv.write_text('{"a": NaN, "b": 0.5, "p": 2.0}\n')
    return {"snaps": snaps, "empty": empty, "env": env, "badenv": badenv, "nanenv": nanenv}


# one bad value for each option of the six subcommands other than simulate
# that argparse reads without a range check, and what the message names;
# the options argparse range-checks are in the usage-error table above
BAD_OPTION_VALUES = {
    "kernel-scaling-d4": (["kernel-scaling", "--d", "4"], "'d'"),
    "kernel-scaling-d1": (["kernel-scaling", "--d", "1"], "'d'"),
    "kernel-scaling-gamma": (["kernel-scaling", "--gamma", "-2"], "'gamma'"),
    "kernel-scaling-s": (["kernel-scaling", "--s", "1.5"], "'s'"),
    "kernel-scaling-beta": (["kernel-scaling", "--beta", "0.3"], "'beta'"),
    # int() of an infinite decade count raised a bare OverflowError
    "kernel-scaling-r-max-inf": (["kernel-scaling", "--r-max", "inf"], "--r-max inf"),
    "kernel-scaling-r-min-subnormal": (["kernel-scaling", "--r-min", "1e-310"],
                                       "--r-min 1e-310"),
    # a non-finite gamma exited 2 as a numerical failure
    "kernel-scaling-gamma-nan": (["kernel-scaling", "--gamma", "nan"], "'gamma'"),
    "kernel-scaling-gamma-inf": (["kernel-scaling", "--gamma", "inf"], "'gamma'"),
    "cancellation-d": (["cancellation", "--d", "4"], "'d'"),
    "cancellation-gamma": (["cancellation", "--gamma", "-3"], "gamma"),
    "cancellation-gamma-nan": (["cancellation", "--gamma", "nan"], "'gamma'"),
    "cancellation-gamma-inf": (["cancellation", "--gamma", "inf"], "'gamma'"),
    "cancellation-s": (["cancellation", "--s", "0"], "'s'"),
    "cancellation-grid-beta": (["cancellation", "--grid", "0.3:0.9:4"], "--grid"),
    "cancellation-grid-ratio": (["cancellation", "--family", "mixture-light",
                                 "--grid", "0.5:3:3"], "--grid"),
    "spreading-beta": (["spreading", "--beta", "0.3"], "'beta'"),
    "spreading-masses": (["spreading", "--masses", "1,-2"], "'masses'"),
    # a mass that is not finite exited 0
    "spreading-masses-inf": (["spreading", "--masses", "1,inf"], "'masses'"),
    "spreading-masses-nan": (["spreading", "--masses", "1,nan"], "'masses'"),
    "spreading-gamma": (["spreading", "--beta", "0.8", "--gamma", "0.5"], "'gamma'"),
    "spreading-s": (["spreading", "--beta", "0.8", "--s", "1.5"], "'s'"),
    "spreading-d": (["spreading", "--beta", "0.8", "--d", "4"], "'d'"),
    "spreading-t0": (["spreading", "--beta", "0.8", "--t0", "2"], "'T0'"),
    "spreading-l0": (["spreading", "--beta", "0.8", "--l0", "0"], "'l0'"),
    "spreading-K": (["spreading", "--beta", "0.8", "--K", "0"], "'K'"),
    # a K that is not finite exited 2 with eps^q R^(d+gamma) l = nan
    "spreading-K-nan": (["spreading", "--beta", "0.8", "--K", "nan"], "'K'"),
    "spreading-K-inf": (["spreading", "--beta", "0.8", "--K", "inf"], "'K'"),
    "spreading-n-max": (["spreading", "--beta", "0.8", "--n-max", "1"], "'n_max'"),
    "region-beta": (["region", "--beta", "0.3"], "'beta'"),
    "region-d": (["region", "--beta", "0.8", "--d", "4"], "'d'"),
    "region-R-negative": (["region", "--beta", "0.8", "--R", "-1"], "'R'"),
    "region-R-zero": (["region", "--beta", "0.8", "--R", "0"], "'R'"),
    "region-eps-grid": (["region", "--beta", "0.8", "--eps-grid", "0.3:0.5:3"], "'eps'"),
    "tails-snapshots": (["tails", "--snapshots", "{empty}", "--envelope", "{env}",
                         "--t0", "0.5"], "{empty}"),
    "tails-envelope": (["tails", "--snapshots", "{snaps}", "--envelope", "{badenv}",
                        "--t0", "0.5"], "{badenv}"),
    # a NaN envelope gave exit 0, "uniform": true and NaN in the report
    "tails-envelope-nan": (["tails", "--snapshots", "{snaps}", "--envelope", "{nanenv}",
                            "--t0", "0.5"], "{nanenv}"),
    "tails-t0": (["tails", "--snapshots", "{snaps}", "--envelope", "{env}",
                  "--t0", "5"], "t0 = 5.0"),
    "verify-geometry-d1": (["verify-geometry", "--d", "1"], "'d'"),
    "verify-geometry-d4": (["verify-geometry", "--d", "4"], "'d'"),
}


@pytest.mark.parametrize("argv, named", BAD_OPTION_VALUES.values(),
                         ids=BAD_OPTION_VALUES.keys())
def test_bad_option_value_is_one_validation_error_line_naming_it(tmp_path, capsys,
                                                                 argv, named):
    paths = _tails_inputs(tmp_path)
    argv = [a.format(**paths) for a in argv]
    out = tmp_path / "out"
    # dispatch returns instead of raising: nothing reaches a traceback; a
    # gamma = inf cancellation made numpy warn before it failed
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        assert dispatch(argv + ["--output-dir", str(out), "--quiet"]) == 1
    assert [str(w.message) for w in rec] == []
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1, err
    assert named.format(**paths) in err
    assert list(out.iterdir()) == []


def test_bare_value_error_from_a_library_call_propagates(tmp_path, monkeypatch):
    # a ValueError that is not a ValidationError is a bug, not bad input: it
    # keeps its traceback instead of printing as a validation error
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(geometry, "normal_from_collision", broken)
    with pytest.raises(ValueError, match="broadcast") as err:
        dispatch(["verify-geometry", "--samples", "10", "--output-dir", str(tmp_path),
                  "--quiet"])
    assert not isinstance(err.value, ValidationError)


def test_spreading_envelope_overflow_is_a_numerical_failure(tmp_path, capsys):
    # R^p overflowed in the envelope fit: a bare OverflowError traceback
    assert dispatch(["spreading", "--masses", "1,2", "--n-max", "1030",
                     "--output-dir", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: no finite b fits the envelope to n = 1030")
    assert not (tmp_path / "spreading.json").exists()


class TestOutputDirectoryThatIsAFile:
    # mkdir raised a bare FileExistsError
    def test_output_dir_option(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        assert dispatch(["verify-geometry", "--samples", "10", "--output-dir", str(taken),
                         "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == f"validation error: output directory {taken}: File exists\n"
        assert taken.read_text() == "keep\n"

    def test_simulate_config_output_dir(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("model = mixture\nd = 3\ngamma = 0\ns_or_h = iso\nmasses = 1.0\n"
                       f"particles = 30\ndt = 0.1\nsteps = 1\noutput_dir = {taken}\n")
        assert dispatch(["simulate", "--config", str(cfg), "--quiet",
                         "--output-dir", str(tmp_path / "cli")]) == 1
        err = capsys.readouterr().err
        assert err == f"validation error: output directory {taken}: File exists\n"
        assert taken.read_text() == "keep\n"
        # the config's output_dir wins, so --output-dir is not created
        assert not (tmp_path / "cli").exists()


class TestKernelScalingCommand:
    def test_overflowing_integrals_are_a_numerical_failure(self, tmp_path, capsys):
        # r from 1e-300 overflows the kernel near u': 1206 nan cells were
        # written with exit 0
        assert dispatch(["kernel-scaling", "--r-min", "1e-300", "--output-dir",
                         str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ball integrals are not finite")
        assert not (tmp_path / "kernel_scaling.csv").exists()

    def test_small_grid_csv(self, tmp_path):
        run_ok(["kernel-scaling", "--r-min", "0.01", "--r-max", "20",
                "--points-per-decade", "3", "--output-dir", tmp_path, "--quiet"])
        lines = (tmp_path / "kernel_scaling.csv").read_text().splitlines()
        assert lines[0] == ("r,inner_second_moment,outer_integral,"
                            "fitted_slope_inner,fitted_slope_outer")
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert np.all(rows[:, 1] > 0)


class TestConfigParsing:
    def test_comments_and_spacing(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# header\nmodel = inelastic  # trailing\n"
                       "d=3\ngamma = 0\ns_or_h = iso\nalpha = 0.5\n"
                       "particles = 100\ndt = 0.1\nsteps = 2\n")
        parsed = parse_config_file(cfg)
        assert parsed["model"] == "inelastic"
        sim_cfg, extras = build_sim_config(parsed)
        assert sim_cfg.alpha == 0.5
        assert sim_cfg.particles == (100,)

    def test_noncutoff_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("model = inelastic\nd = 3\ngamma = -1\ns_or_h = 0.5\n"
                       "alpha = 0.5\nparticles = 50\ndt = 0.01\nsteps = 1\n"
                       "theta_min = 0.05\n")
        sim_cfg, _ = build_sim_config(parse_config_file(cfg))
        assert not sim_cfg.kernel.cutoff
        assert sim_cfg.kernel.s == 0.5

    @pytest.mark.parametrize("model, own", [("inelastic", "alpha = 0.5\nparticles = 50"),
                                            ("mixture", "masses = 1,2\nparticles = 50,50")])
    def test_kernel_is_built_in_the_run_model(self, tmp_path, model, own):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"model = {model}\nd = 3\ngamma = 0\ns_or_h = 0.3\n{own}\n"
                       "dt = 0.01\nsteps = 1\n")
        sim_cfg, _ = build_sim_config(parse_config_file(cfg))
        assert sim_cfg.kernel.model == model

    def test_unset_keys_take_simconfig_defaults(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("model = inelastic\nd = 3\ngamma = -1\ns_or_h = 0.5\n"
                       "alpha = 0.5\nparticles = 50\ndt = 0.01\nsteps = 1\n")
        sim_cfg, _ = build_sim_config(parse_config_file(cfg))
        assert (sim_cfg.theta_min, sim_cfg.init) == (simulator.SimConfig.theta_min,
                                                     simulator.SimConfig.init)
