import hashlib
import json
import math

import numpy as np
import pytest

from kten.cli import dispatch, parse_config_file, build_sim_config
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

    def test_missing_config_key_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model = mixture\n")
        assert dispatch(["simulate", "--config", str(cfg)]) == 1
        assert "missing keys" in capsys.readouterr().err


# sha256 of every `simulate` output except manifest.json (which holds
# times), for two small inelastic runs. Recorded with the greedy-wave
# candidate scheduler (x86-64, numpy 2.4); the dependency-level scheduler
# reproduces them. A change here is a change of computed numbers.
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
