import hashlib
import importlib.metadata
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kten
from kten import cli, geometry, tails
from kten.cli import dispatch, parse_config_file, build_sim_config
from kten.errors import InsufficientData
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

    def test_bad_beta_cites_range(self, tmp_path, capsys):
        code = dispatch(["spreading", "--beta", "1.2",
                         "--output-dir", str(tmp_path)])
        assert code == 1
        assert "(1/2, 1)" in capsys.readouterr().err


def _env_with_src():
    """The environment for a fresh interpreter that imports this kten."""
    src = str(Path(kten.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported inside its three call sites, so subcommands that
    # never reach one start without it
    out = subprocess.run(
        [sys.executable, "-c", "import sys, kten.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=_env_with_src(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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


class TestRegionCommand:
    def test_csv_columns_and_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_ok(["region", "--beta", "0.8", "--eps-grid", "0.05:0.2:3",
                    "--samples", "50000", "--seed", "7",
                    "--output-dir", out, "--quiet"])
        ca, cb = (a / "region.csv").read_text(), (b / "region.csv").read_text()
        assert ca == cb
        assert ca.splitlines()[0] == "eps,estimate,stderr"

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

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Simulation config", 1)[1].split("```ini", 1)[1]
        listed = {line.split("=", 1)[0].strip()
                  for line in block.split("```", 1)[0].splitlines() if "=" in line}
        assert listed == set(cli._SIM_REQUIRED_KEYS) | set(cli._SIM_OPTIONAL_KEYS)


# sha256 of every `simulate` output except manifest.json (which holds
# times), for small runs of both collision rules, cutoff and noncutoff.
# The two inelastic cutoff runs were recorded with the greedy-wave
# candidate scheduler, the other three with the simulator's own copy of the
# post-collision formulas (x86-64, numpy 2.4); the current code reproduces
# them all. A change here is a change of computed numbers.
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
}
GOLDEN_DIGESTS = {
    "inelastic_d3_gamma0": {
        "moments.csv": "55eb3f7b00b0114604ee97599897b7531f2681d351716e991b05a60d415bc7df",
        "snapshot_0000_species0.kten": "d2fc7122f127a704d479417636a46378a6884ffb5f87d0062b096dc130299e94",
        "snapshot_0001_species0.kten": "cf0058e4a6c2db76901ae1d0e91b38ed7e9341d66240dc9d8465a4ec491cab76",
        "snapshot_0002_species0.kten": "039c5476c432742d019ab61e5b8f1abec9aee729e91722c42d502ef3df8ea396",
        "snapshots.json": "7d7ef3cc9e5bf03b42c78173fadcdae38f67ef1e7d58fb959f61604b2922042f",
        "tails_0000.csv": "51f503c42b251882f21d1075dd47dc87356506e5454f8ae4f2b5cc0bdd61359f",
        "tails_0001.csv": "2568fa6b0fd33f00ccd384545203239eeac5089f113058df56cf3b883a6e9302",
        "tails_0002.csv": "43d6e5b9a1b0a07ec773ad2ec6880c1d79a7a8b19be4ea83fc818abf2c5c18b9",
    },
    "inelastic_d2_gamma1": {
        "moments.csv": "ffca2f0393437acc02480f394e0d73fec2ff53c9ec8575f03c146357a7cb078e",
        "snapshot_0000_species0.kten": "a87a022e71ce577f6ef71539c2fe0fd4b15c00725ea18ebacaf8f4e1abd143d3",
        "snapshot_0001_species0.kten": "d8b0549ad81cea5d135e00434e03498e7e015bad127cde5cbbb4123e9f6220d7",
        "snapshot_0002_species0.kten": "78cb8a2c55ba9e77617470121fc8e57e14ba8dc6fa5d9668707485fc8eaea9f6",
        "snapshots.json": "1d9b0f59ff3e1893d80e0a30368a688693b95fa7964f015f7543ba601ac27679",
        "tails_0000.csv": "a6c9cafe72c4bf8cdf9c54f296a73bf4dbd6541d7886714f39d7d9002451a064",
        "tails_0001.csv": "20f236b8e4ce818f3dbc3bd353c990ec90dbc5bb36b562ae1b6f81c27999b5dd",
        "tails_0002.csv": "2be95d176ee0ff4c775c37af3142bfa5cdbeac6f9f7cc390832c89712f38efa2",
    },    "mixture_d3_cutoff": {
        "moments.csv": "832d437d8d236332ec96b6c2c8063a1e9de83a80afac0fe311706d9858ecf1ed",
        "snapshot_0000_species0.kten": "39d14764f4d642563ceae43697bb89384ab15172ca5f74f891d372e274c9407a",
        "snapshot_0000_species1.kten": "6d140b4e014398e0c0e8feba6ec41b2ea878d952cfa1898169390cf5d0383bee",
        "snapshot_0001_species0.kten": "0546499984f4315aca6c2bda60e5c7f9a07cb2e2d26ab5d04532cadbb39dd06a",
        "snapshot_0001_species1.kten": "3fb79918df486e0f2de75ff121fda119672b278771749270eaf72ba98626390f",
        "snapshot_0002_species0.kten": "c68274280a2ab19c1ff0a95bdd3afaebefd848d50a8326d14742235833113e71",
        "snapshot_0002_species1.kten": "577c4741bd231f42baaed9efc07ca07eec8f1bcb47f2920a4c91bc34e3bada29",
        "snapshots.json": "b5d5ec82495012e7ce5ebba6d1d0c6310d52dcc0380445ff67cb6453f688535b",
        "tails_0000.csv": "c2032fbb40a86a88d53c3d22b04cbdea1dbdc0e1e22596b7606dff3245082d19",
        "tails_0001.csv": "b647beb7a17d1cf5d708a279dd93e53c00c049963111393a35b1a7483b76b222",
        "tails_0002.csv": "078db19768180d8f635f06454c219d782c75533621294e0f632b683b107d9bf7",
    },
    "mixture_d2_noncutoff": {
        "moments.csv": "7c5b478c5d97f421456867c0689a58c9bdae847ca46874b5e26b05d6c3ee3337",
        "snapshot_0000_species0.kten": "454b1d53057d74ac3153ee8003507271a7df2ee14c76edf8d50bdbd3b2a6fc3b",
        "snapshot_0000_species1.kten": "e0e018d2c3aa5b564b64ef8410831251cfd64f638e33cf017eb84e8f5acb186d",
        "snapshot_0001_species0.kten": "31dce243496a74fa4f1422cd29060da9d5f279c7912c4f9c35ed07feb4cdb6a9",
        "snapshot_0001_species1.kten": "6f6b08a46c80c75e8a59c3ef15847608c1d3217fe3e28d3a0a8d5be70542cfd8",
        "snapshot_0002_species0.kten": "068c4a845e2f8eec2d4f441734cebaff828e2647159248b08a5a52b17be59997",
        "snapshot_0002_species1.kten": "10c671b309cf2d8dd589b60c5520113cd9d748991f5d8688193d555c542b63a8",
        "snapshots.json": "4d24e11937fbfde3defe7075115cc2b3b6c541a373ab24dac8409b3b8acc7ecf",
        "tails_0000.csv": "82ed93d3336e4648b3be8f09997f5e658378a1a94c292e681f5169b8689aece5",
        "tails_0001.csv": "ddfc2521e87e6873f06fa3226d475377fb76f7bb58474db1750e956546a8faba",
        "tails_0002.csv": "969f75019dd068ca27de5945f8b86a8066435d6e8ec549ef670f954d7d866ce8",
    },
    "inelastic_d3_noncutoff": {
        "moments.csv": "033b2c9bc64497ed8c2663c9bb4ee7e77965dc9f3cdeb1eee4543f0aea979f07",
        "snapshot_0000_species0.kten": "b2f40d2991345c9660a6a19202e5e5036877b67187812252b7e704cdb19c2ddf",
        "snapshot_0001_species0.kten": "777fabfcac8cc8dd654223f56b1d319123b7bd50dd981e4de0eafe9117c9ab6e",
        "snapshot_0002_species0.kten": "48d53c144db493572f492fed13eb2bc24b2a5d4ac1789ee4b1b921addc0df397",
        "snapshots.json": "15f30a5d9d63d1b22b9493531ff39b9a248f6c118cadc9b4d4fb7ea094562504",
        "tails_0000.csv": "e0157a4fde85cea5f5e355f9c938a4d67a2a01578df68d6335940cc35c48f1c8",
        "tails_0001.csv": "3e7651a387d2ac96e10b2a45167efd84d4ef03f4d922bfe22195d4c2ea71eee3",
        "tails_0002.csv": "9a03ff4db7a9be2aa6db2c08b697504551af7fe7156f533d4a373c9437202620",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_simulate_golden_digests(tmp_path, name):
    outdir = tmp_path / "sim"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(GOLDEN_CONFIGS[name]
                             + [f"output_dir = {outdir}"]) + "\n")
    run_ok(["simulate", "--config", cfg, "--quiet"])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(outdir.iterdir()) if p.name != "manifest.json"}
    assert digests == GOLDEN_DIGESTS[name]


# sha256 of one output of each lower-bound sweep, recorded before the sweeps
# shared their quadrature rules, tangent bases and Monte Carlo draws
# (x86-64, numpy 2.4). A change here is a change of computed numbers.
LOWERBOUND_RUNS = {
    "region": (["region", "--beta", "0.8", "--eps-grid", "0.01:0.2:4",
                "--samples", "200000", "--seed", "13"], "region.csv"),
    "cancellation-inelastic": (["cancellation"], "cancellation.csv"),
    "cancellation-mixture-light": (["cancellation", "--family", "mixture-light",
                                    "--grid", "1.5:4:6"], "cancellation.csv"),
    "kernel-scaling": (["kernel-scaling", "--points-per-decade", "2"],
                       "kernel_scaling.csv"),
    "verify-geometry": (["verify-geometry", "--seed", "13"], "geometry_report.json"),
}
LOWERBOUND_DIGESTS = {
    "region": "119f47b54be6f4bd723ac82e7121970edeb29a96179a93120ba49790f97e62ee",
    "cancellation-inelastic": "cad04d62dbe234946f3174d824064025c4cfc6b3e1dd8f3453d8cbcccc1043c9",
    "cancellation-mixture-light": "7cf79cd4cf6415d6a7b0c1de759805cf2ea619feb481c524407fef80d4f792ad",
    "kernel-scaling": "af43a1bc49076ce7f5cfe38ae1ce5fad232430795a2753e0ffe28358d1732e56",
    "verify-geometry": "ea38e8515c83f8c267ea8c6731a8553f693f8db6921a121c4e44ff38614f22b8",
}


def test_lowerbound_golden_digests(tmp_path):
    digests = {}
    for name, (argv, output) in LOWERBOUND_RUNS.items():
        out = tmp_path / name
        run_ok(argv + ["--quiet", "--output-dir", out])
        digests[name] = hashlib.sha256((out / output).read_bytes()).hexdigest()
    assert digests == LOWERBOUND_DIGESTS


class TestKernelScalingCommand:
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
