"""Command line behavior: exit codes, output schemas, byte determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from atomchain import cli
from atomchain.cli import CheckResult, main
from atomchain.ensemble import _ConfigRunner


BASE = {
    "n_atoms": 12,
    "lattice_const": 0.125,
    "delta_shift": 10.0 / 3.0,
    "mixing_angle": 0.0,
    "control_wavevector": 2.0 * np.pi * 0.1,
    "detuning": 0.0,
    "seed": 7,
}


def write_cfg(path, **overrides):
    entries = dict(BASE)
    entries.update(overrides)
    lines = []
    for key, value in entries.items():
        if value is None:
            continue
        lines.append(f"{key} = {repr(value) if isinstance(value, float) else value}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "atomchain", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def read_manifest(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)


def table_bytes(outdir, skip=("manifest.json",)):
    found = {}
    for name in sorted(os.listdir(outdir)):
        if name in skip:
            continue
        with open(os.path.join(outdir, name), "rb") as fh:
            found[name] = fh.read()
    return found


# ------------------------------------------------------------- happy paths


def test_dispersion_writes_bands_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg")
    out = tmp_path / "out"
    rc = main(["dispersion", "--config", cfg, "--out", str(out), "--n-k", "64"])
    assert rc == 0
    assert (out / "bands.csv").exists()
    manifest = read_manifest(out)
    assert manifest["subcommand"] == "dispersion"
    assert manifest["outputs"] == ["bands.csv"]
    assert manifest["seed"] == 7
    assert manifest["config"]["n_atoms"] == 12
    assert set(manifest["conventions"]) >= {"units", "flattening", "momentum_transform"}
    assert manifest["extras"]["transparency_window"] > 0
    names = {c["name"] for c in manifest["self_checks"]}
    assert {"bands_non_amplifying", "bands_even_in_k"} <= names
    assert all(c["passed"] for c in manifest["self_checks"])
    header = (out / "bands.csv").read_text().splitlines()[0]
    assert header == "k,re_upper,im_upper,re_lower,im_lower,pol_weight_upper"


def test_dispersion_json_format(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg")
    out = tmp_path / "out"
    rc = main(
        ["dispersion", "--config", cfg, "--out", str(out), "--n-k", "32", "--format", "json"]
    )
    assert rc == 0
    with open(out / "bands.json") as fh:
        table = json.load(fh)
    assert table["columns"][0] == "k"
    assert len(table["rows"]) == 32
    assert all(len(row) == len(table["columns"]) for row in table["rows"])
    assert read_manifest(out)["format"] == "json"


def test_transmit_reciprocal_checks(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg")
    out = tmp_path / "out"
    rc = main(
        ["transmit", "--config", cfg, "--out", str(out), "--n-e", "40", "--e-min", "-2",
         "--e-max", "6"]
    )
    assert rc == 0
    manifest = read_manifest(out)
    names = {c["name"] for c in manifest["self_checks"]}
    assert {"unitarity", "direction_symmetry"} <= names
    assert all(c["passed"] for c in manifest["self_checks"])
    assert manifest["extras"]["reciprocity_defect"] < 1e-12
    body = (out / "transmit.csv").read_text().splitlines()
    assert body[0].startswith("energy,t_forward,t_backward")
    assert len(body) == 41


def test_evolve_outputs_and_checks(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg", mixing_angle=np.pi / 4)
    out = tmp_path / "out"
    rc = main(
        ["evolve", "--config", cfg, "--out", str(out), "--times", "0.4,0.9",
         "--n-angles", "90", "--width-sq", "4.0", "--n0", "6"]
    )
    assert rc == 0
    manifest = read_manifest(out)
    expected = {"populations.csv", "momentum.csv", "norms.csv", "intensity_0.csv",
                "intensity_1.csv"}
    assert expected == set(manifest["outputs"])
    for name in expected:
        assert (out / name).exists()
    names = {c["name"] for c in manifest["self_checks"]}
    assert {"norm_non_increasing", "norm_loss_rate", "composition"} <= names
    assert all(c["passed"] for c in manifest["self_checks"])
    assert manifest["extras"]["snapshot_times"] == [0.4, 0.9]


def test_disorder_paired_outputs(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg", n_atoms=10, mixing_angle=np.pi / 4)
    out = tmp_path / "out"
    rc = main(
        ["disorder", "--config", cfg, "--out", str(out), "--sqrt-w", "0,0.7",
         "--realizations", "4", "--time", "2.0"]
    )
    assert rc == 0
    manifest = read_manifest(out)
    assert manifest["extras"]["paired"] is True
    assert (out / "paired_diff.csv").exists()
    assert (out / "aggregate.csv").exists()
    assert (out / "survival_base.csv").exists()
    assert (out / "survival_twin.csv").exists()
    spread = [c for c in manifest["self_checks"] if c["name"] == "zero_disorder_spread"]
    assert spread and spread[0]["passed"] and spread[0]["value"] == 0.0
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "config,observable,sqrt_w,mean,sem,n"
    assert any(line.startswith("twin,") for line in agg[1:])


def test_near_zero_mixing_angle_bands_are_even(tmp_path):
    # the gauge frame and the self-check must agree on which chains are reciprocal
    cfg = write_cfg(tmp_path / "chain.cfg", n_atoms=24, mixing_angle=1e-13)
    out = tmp_path / "out"
    assert main(["dispersion", "--config", cfg, "--out", str(out), "--n-k", "64"]) == 0
    checks = {c["name"]: c for c in read_manifest(out)["self_checks"]}
    assert checks["bands_even_in_k"]["passed"]


def test_json_tables_are_strict(tmp_path):
    # the W = 0 paired z-scores are undefined; JSON has no NaN token, so they read null
    cfg = write_cfg(tmp_path / "chain.cfg", n_atoms=10, mixing_angle=np.pi / 4)
    out = tmp_path / "out"
    rc = main(
        ["disorder", "--config", cfg, "--out", str(out), "--sqrt-w", "0,0.7",
         "--realizations", "3", "--time", "1.0", "--format", "json"]
    )
    assert rc == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    tables = {}
    for name in read_manifest(out)["outputs"]:
        with open(out / name) as fh:
            tables[name] = json.load(fh, parse_constant=reject)
    z = [row[4] for row in tables["paired_diff.json"]["rows"] if row[1] == 0.0]
    assert z and all(value is None for value in z)


def test_disorder_single_mode(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg", n_atoms=10)
    out = tmp_path / "out"
    rc = main(
        ["disorder", "--config", cfg, "--out", str(out), "--sqrt-w", "0,0.5",
         "--realizations", "3", "--time", "1.5", "--single"]
    )
    assert rc == 0
    manifest = read_manifest(out)
    assert manifest["extras"]["paired"] is False
    assert (out / "survival.csv").exists()
    assert not (out / "paired_diff.csv").exists()
    assert manifest["extras"]["transparency_window"] > 0


def test_disorder_partial_ensemble_is_honest(tmp_path, monkeypatch):
    # one cell of the driven config fails; its twin cell succeeds
    run_cell = _ConfigRunner.run_cell

    def flaky(self, disorder):
        if (
            disorder is not None
            and disorder.seed.spawn_key == (1, 0)
            and self.vc.mixing_angle != 0.0
        ):
            raise RuntimeError("synthetic cell failure")
        return run_cell(self, disorder)

    monkeypatch.setattr(_ConfigRunner, "run_cell", flaky)
    cfg = write_cfg(tmp_path / "chain.cfg", n_atoms=24, mixing_angle=np.pi / 4)
    out = tmp_path / "out"
    rc = main(
        ["disorder", "--config", cfg, "--out", str(out), "--realizations", "21",
         "--time", "2.0"]
    )
    assert rc == 0
    manifest = read_manifest(out)
    assert manifest["extras"]["failures_base"] == [[1, 0, "RuntimeError: synthetic cell failure"]]
    assert manifest["extras"]["failures_twin"] == []

    def rows(name):
        lines = (out / name).read_text().splitlines()[1:]
        return [line.split(",") for line in lines]

    agg = {(r[0], r[1], r[2]): (float(r[3]), float(r[4]), int(r[5])) for r in rows("aggregate.csv")}
    for obs in ("survival", "realspace_ipr"):
        mean, sem, n = agg[("base", obs, "0.625")]
        assert n == 20 and np.isfinite(mean) and np.isfinite(sem) and sem > 0
        assert agg[("twin", obs, "0.625")][2] == 21
        assert agg[("base", obs, "1.0")][2] == 21
        base = np.array([float(r[2]) for r in rows(f"{obs}_base.csv") if r[0] == "0.625"])
        twin = np.array([float(r[2]) for r in rows(f"{obs}_twin.csv") if r[0] == "0.625"])
        assert np.isnan(base[0]) and np.isfinite(base[1:]).all()
        paired = [r for r in rows("paired_diff.csv") if r[0] == obs and r[1] == "0.625"]
        diff_mean, diff_sem, z = (float(v) for v in paired[0][2:])
        assert np.isfinite([diff_mean, diff_sem, z]).all()
        diff = base[1:] - twin[1:]
        assert diff_mean == pytest.approx(diff.mean(), rel=1e-12)
        assert diff_sem == pytest.approx(diff.std(ddof=1) / np.sqrt(20), rel=1e-12)


def test_verify_passes_on_default_config(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg")
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--out", str(out)])
    assert rc == 0
    manifest = read_manifest(out)
    assert manifest["outputs"] == []
    assert len(manifest["self_checks"]) >= 10
    assert all(c["passed"] for c in manifest["self_checks"])


def test_seed_precedence(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg", seed=7)
    out_a = tmp_path / "a"
    assert main(["dispersion", "--config", cfg, "--out", str(out_a), "--n-k", "16"]) == 0
    assert read_manifest(out_a)["seed"] == 7

    out_b = tmp_path / "b"
    args = ["dispersion", "--config", cfg, "--out", str(out_b), "--n-k", "16", "--seed", "3"]
    assert main(args) == 0
    assert read_manifest(out_b)["seed"] == 3

    cfg_no_seed = write_cfg(tmp_path / "noseed.cfg", seed=None)
    out_c = tmp_path / "c"
    assert main(["dispersion", "--config", cfg_no_seed, "--out", str(out_c), "--n-k", "16"]) == 0
    assert read_manifest(out_c)["seed"] == 0


def test_seed_changes_disordered_values(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg", n_atoms=8)
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        rc = main(
            ["disorder", "--config", cfg, "--out", str(out), "--sqrt-w", "0.6",
             "--realizations", "3", "--time", "1.0", "--single", "--seed", seed]
        )
        assert rc == 0
        outs.append((out / "survival.csv").read_bytes())
    assert outs[0] != outs[1]


# --------------------------------------------------------------- exit codes


def test_exit_2_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("n_atoms = 5\nlattice_const = 0.125\nwavelength = 2\n")
    rc = main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_exit_2_missing_required_key(tmp_path, capsys):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("n_atoms = 5\n")
    rc = main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_exit_2_bad_times_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "chain.cfg")
    rc = main(
        ["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--times", "1,zebra"]
    )
    assert rc == 2
    assert "comma separated" in capsys.readouterr().err


def test_exit_2_negative_time(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg")
    rc = main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--times", "-1"])
    assert rc == 2


def test_exit_2_source_site_out_of_range(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "chain.cfg")
    rc = main(
        ["transmit", "--config", cfg, "--out", str(tmp_path / "o"), "--source", "99",
         "--n-e", "5"]
    )
    assert rc == 2
    assert "--source" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, flag",
    [
        ("transmit", ["--n-e", "0"], "--n-e"),
        ("dispersion", ["--n-k", "0"], "--n-k"),
        ("disorder", ["--time", "-1"], "--time"),
        ("disorder", ["--realizations", "0"], "--realizations"),
        ("transmit", ["--e-min", "1", "--e-max", "1", "--n-e", "5"], "--e-max"),
        ("transmit", ["--e-min", "3", "--e-max", "1", "--smoothing", "1.0"], "--e-max"),
        ("transmit", ["--smoothing", "-0.5"], "--smoothing"),
        ("transmit", ["--target", "12", "--n-e", "5"], "--target"),
    ],
)
def test_exit_2_bad_grid_size_or_time(tmp_path, capsys, monkeypatch, command, flags, flag):
    cfg = write_cfg(tmp_path / "chain.cfg")

    def setup_reached(*args, **kwargs):
        raise AssertionError("set-up ran before the flag was checked")

    for name in ("build_couplings", "bloch_bands", "run_ensemble", "compare_configs"):
        monkeypatch.setattr(cli, name, setup_reached)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o"), *flags])
    assert rc == 2
    assert flag in capsys.readouterr().err


def test_exit_2_missing_required_flag():
    with pytest.raises(SystemExit) as exc:
        main(["dispersion", "--out", "somewhere"])
    assert exc.value.code == 2


def test_exit_4_nonexistent_config(tmp_path, capsys):
    rc = main(
        ["dispersion", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o")]
    )
    assert rc == 4
    assert "cannot read config" in capsys.readouterr().err


def test_exit_4_outdir_under_file(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg")
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    rc = main(["dispersion", "--config", cfg, "--out", str(blocker / "sub")])
    assert rc == 4


def test_exit_3_runtime_error(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path / "chain.cfg")

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic breakage")

    monkeypatch.setitem(cli.COMMANDS, "dispersion", boom)
    rc = main(["dispersion", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "runtime error" in capsys.readouterr().err


def test_exit_3_failed_self_check(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path / "chain.cfg")

    def fake(args, vc, seed, outdir, fmt):
        return [], [CheckResult("synthetic", False, 1.0, 0.0)], {}

    monkeypatch.setitem(cli.COMMANDS, "dispersion", fake)
    rc = main(["dispersion", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    captured = capsys.readouterr()
    assert "[FAIL] synthetic" in captured.out
    assert "self-check" in captured.err
    # manifest still written so the failure is inspectable
    assert (tmp_path / "o" / "manifest.json").exists()


# ------------------------------------------------------------- determinism


def test_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg", mixing_angle=np.pi / 4)
    args = ["evolve", "--config", cfg, "--times", "0.3,0.8", "--n-angles", "60",
            "--width-sq", "4.0", "--n0", "6"]
    results = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        proc = run_cli(args + ["--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        results.append((table_bytes(out), read_manifest(out)))
    assert results[0][0] == results[1][0]
    m0, m1 = results[0][1], results[1][1]
    m0.pop("wall_clock_seconds")
    m1.pop("wall_clock_seconds")
    assert m0 == m1


def test_thread_count_does_not_change_tables(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg", n_atoms=10, mixing_angle=np.pi / 4)
    args = ["disorder", "--config", cfg, "--sqrt-w", "0,0.7", "--realizations", "4",
            "--time", "1.5"]
    results = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}"
        proc = run_cli(args + ["--out", str(out), "--threads", threads])
        assert proc.returncode == 0, proc.stderr
        results.append((table_bytes(out), read_manifest(out)))
    assert results[0][0] == results[1][0]
    m0, m1 = results[0][1], results[1][1]
    for m in (m0, m1):
        m.pop("wall_clock_seconds")
        m.pop("threads")
    assert m0 == m1


def test_tables_use_unix_newlines(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg")
    out = tmp_path / "out"
    assert main(["dispersion", "--config", cfg, "--out", str(out), "--n-k", "16"]) == 0
    data = (out / "bands.csv").read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
