"""Command line behavior: exit codes, output schemas, byte determinism."""

import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from atomchain import cli
from atomchain.chain_model import read_config, validate
from atomchain.cli import CheckResult, main
from atomchain.collective_couplings import build_couplings
from atomchain.ensemble import _ConfigRunner, realization_seed
from atomchain.hamiltonian import disorder_sample
from atomchain.spectrum import transparency_window


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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
    assert 0.0 <= manifest["extras"]["worst_resolvent_residual"] < 1e-6
    unitarity = {c["name"]: c for c in manifest["self_checks"]}["unitarity"]
    assert manifest["extras"]["worst_unitarity"]["defect"] == unitarity["value"]
    # the manifest names the decay channels that carried the scan
    rates = np.linalg.eigvalsh(build_couplings(read_config(cfg)[0]).decay)
    floor = manifest["extras"]["decay_rate_floor"]
    assert floor == pytest.approx(4 * np.finfo(float).eps * rates[-1], rel=1e-12)
    assert manifest["extras"]["decay_channels"] == np.count_nonzero(rates > floor)
    body = (out / "transmit.csv").read_text().splitlines()
    assert body[0].startswith("energy,t_forward,t_backward")
    assert len(body) == 41


def test_unitarity_failure_names_the_nearest_pole(tmp_path):
    # the real part of the reciprocal chain's narrowest resonance, -0.57626 - 1.32e-7 i:
    # the defect there (1.406e-8) sits in the double-precision data, over the 1e-8 limit
    energy = "-0.5762645585049386"
    out = tmp_path / "out"
    rc = main(["transmit", "--config", str(CONFIGS / "reciprocal.cfg"), "--out", str(out),
               "--n-e", "1", "--e-min", energy, "--e-max", energy])
    assert rc == 3
    manifest = read_manifest(out)
    unitarity = {c["name"]: c for c in manifest["self_checks"]}["unitarity"]
    assert not unitarity["passed"] and unitarity["limit"] == 1e-8
    worst = manifest["extras"]["worst_unitarity"]
    assert worst["energy"] == float(energy)
    assert worst["defect"] == unitarity["value"]
    pole_re, pole_im = worst["nearest_eigenvalue"]
    assert pole_re == pytest.approx(-0.57626, abs=1e-5)
    assert pole_im == pytest.approx(-1.32e-7, rel=1e-2)
    assert worst["offset_in_widths"] == abs(float(energy) - pole_re) / abs(pole_im) < 1.0


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


@pytest.mark.parametrize(
    "mixing_angle, fraction, expect",
    [(0.0, "0.2", "symmetric"), (np.pi / 4, "0.2", "flipped"), (0.0, "0", "empty")],
)
def test_evolve_mirror_ratio_flip(tmp_path, mixing_angle, fraction, expect):
    cfg = write_cfg(tmp_path / "chain.cfg", mixing_angle=mixing_angle)
    out = tmp_path / "out"
    rc = main(
        ["evolve", "--config", cfg, "--out", str(out), "--times", "0.4,0.9",
         "--n-angles", "12", "--width-sq", "4.0", "--n0", "4", "--excited-fraction", fraction]
    )
    assert rc == 0
    manifest = read_manifest(out)
    flip = manifest["extras"]["mirror_ratio_flip"]
    checks = {c["name"]: c for c in manifest["self_checks"]}
    if expect == "symmetric":
        assert checks["mirror_symmetry"]["passed"]
        assert checks["mirror_symmetry"]["value"] == flip
        assert flip < 1e-9
    elif expect == "flipped":
        assert "mirror_symmetry" not in checks
        assert flip > 0.05
    else:
        # an empty state has no emission ratio: null, no check, still a clean run
        assert flip is None
        assert "mirror_symmetry" not in checks


@pytest.mark.parametrize("n_atoms, propagator", [(24, "spectral"), (40, "taylor")])
def test_evolve_names_its_propagator(tmp_path, n_atoms, propagator):
    # 3 steps(0.9) = 3 Taylor steps in all: over N^2 / 200 = 2.88 at N = 24, within 8 at N = 40
    cfg = write_cfg(tmp_path / "chain.cfg", n_atoms=n_atoms, mixing_angle=np.pi / 4)
    out = tmp_path / "out"
    rc = main(["evolve", "--config", cfg, "--out", str(out), "--times", "0.4,0.9",
               "--n-angles", "12"])
    assert rc == 0
    extras = read_manifest(out)["extras"]
    assert extras["taylor_steps"] == 3
    assert extras["propagator"] == propagator


# leading key columns of each evolve table; the rest hold values
EVOLVE_KEYS = {"populations": 2, "momentum": 2, "norms": 1, "intensity": 2}


def evolve_tables(tmp_path, monkeypatch, cfg, taylor):
    """Tables of one evolve run with the propagator rule forced to one branch."""
    monkeypatch.setattr(cli, "taylor_pays", lambda steps, n_atoms: taylor)
    out = tmp_path / ("taylor" if taylor else "spectral")
    rc = main(["evolve", "--config", str(cfg), "--out", str(out),
               "--times", "0.5,3.0,6.5,13.0,26.0"])
    assert rc == 0
    manifest = read_manifest(out)
    assert manifest["extras"]["propagator"] == out.name
    assert all(c["passed"] for c in manifest["self_checks"])
    return {name: np.loadtxt(out / name, delimiter=",", skiprows=1) for name in manifest["outputs"]}


@pytest.mark.parametrize("chain", ["dir24", "rec24", "directional", "reciprocal"])
def test_chained_taylor_evolve_matches_the_propagator_path(tmp_path, monkeypatch, chain):
    if chain in ("dir24", "rec24"):
        angle = np.pi / 4 if chain == "dir24" else 0.0
        cfg = write_cfg(tmp_path / "chain.cfg", n_atoms=24, mixing_angle=angle)
    else:
        cfg = CONFIGS / f"{chain}.cfg"
    taylor = evolve_tables(tmp_path, monkeypatch, cfg, True)
    spectral = evolve_tables(tmp_path, monkeypatch, cfg, False)
    assert taylor.keys() == spectral.keys()
    for name, want in spectral.items():
        keys = EVOLVE_KEYS[name.split("_")[0].removesuffix(".csv")]
        got = taylor[name]
        assert np.array_equal(got[:, :keys], want[:, :keys]), name
        # measured 2.3e-13 of the table's largest value on the shipped chains
        scale = np.abs(want[:, keys:]).max()
        assert np.abs(got[:, keys:] - want[:, keys:]).max() <= 1e-10 * scale, name


def read_strict_manifest(outdir):
    """The manifest parsed as strict JSON, which has no NaN or Infinity."""

    def reject(token):
        raise ValueError(f"manifest.json holds the non-JSON constant {token}")

    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.loads(fh.read(), parse_constant=reject)


def decayed_flip(tmp_path, mixing_angle, time):
    cfg = write_cfg(tmp_path / "decay.cfg", n_atoms=24, mixing_angle=mixing_angle)
    out = tmp_path / f"t{time}"
    rc = main(["evolve", "--config", cfg, "--out", str(out), "--times", time, "--n-angles", "12"])
    return rc, read_strict_manifest(out)


@pytest.mark.parametrize("time", ["6000000", "7000000"])
def test_decayed_state_keeps_its_emission_ratio(tmp_path, time):
    # the largest amplitude is ~5e-181 at t = 7e6: every probe intensity of the
    # raw amplitudes underflows (to subnormals at 6e6, to 0 at 7e6)
    rc_ref, reference = decayed_flip(tmp_path, np.pi / 4, "300000")
    rc, manifest = decayed_flip(tmp_path, np.pi / 4, time)
    assert rc == rc_ref == 0
    # millions of Taylor steps against N^2 / 200 = 2.88: the spectral Propagator runs
    assert manifest["extras"]["propagator"] == reference["extras"]["propagator"] == "spectral"
    flip = manifest["extras"]["mirror_ratio_flip"]
    assert flip == pytest.approx(reference["extras"]["mirror_ratio_flip"], rel=1e-12)


def test_state_decayed_to_zero_has_no_emission_ratio(tmp_path):
    # on the reciprocal chain every amplitude is exactly 0 by t = 3e7
    rc, manifest = decayed_flip(tmp_path, 0.0, "30000000")
    assert rc == 0
    assert manifest["extras"]["mirror_ratio_flip"] is None
    assert "mirror_symmetry" not in {c["name"] for c in manifest["self_checks"]}


def test_manifest_writes_non_finite_values_as_null(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path / "chain.cfg")

    def fake(args, vc, seed):
        return {}, [CheckResult("synthetic", True, float("nan"), 1.0)], {"x": [float("inf")]}

    monkeypatch.setitem(cli.COMMANDS, "dispersion", fake)
    assert main(["dispersion", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    manifest = read_strict_manifest(tmp_path / "o")
    assert manifest["extras"] == {"x": [None]}
    assert manifest["self_checks"][0]["value"] is None


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
    # each window is that of its config: the chain and its zero-angle twin
    vc = validate(read_config(cfg)[0])
    windows = {s: manifest["extras"]["transparency_window_" + s] for s in ("base", "twin")}
    assert windows == {
        "base": transparency_window(vc),
        "twin": transparency_window(replace(vc, mixing_angle=0.0)),
    }
    assert windows["base"] != windows["twin"]


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


def is_draw(runner, disorder, w_index, realization):
    """Whether disorder is the documented draw of cell (w_index, realization) in runner's spec."""
    spec = runner.spec
    seed = realization_seed(spec.master_seed, w_index, realization)
    draw = disorder_sample(seed, spec.w_values[w_index], runner.vc.n_atoms)
    return disorder is not None and np.array_equal(disorder.energies, draw.energies)


def test_disorder_partial_ensemble_is_honest(tmp_path, monkeypatch):
    # one cell of the driven config fails; its twin cell succeeds
    run_cell = _ConfigRunner.run_cell

    def flaky(self, disorder):
        if is_draw(self, disorder, 1, 0) and self.vc.mixing_angle != 0.0:
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


def test_dead_ensemble_worker_exits_3_and_writes_no_table(tmp_path, monkeypatch):
    run_cell = _ConfigRunner.run_cell

    def dies(self, disorder):
        if is_draw(self, disorder, 1, 2):
            os._exit(1)  # only ever reached in a forked worker
        return run_cell(self, disorder)

    monkeypatch.setattr(_ConfigRunner, "run_cell", dies)
    # two usable CPUs on any host, so --threads 2 forks and os._exit stays in a worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = write_cfg(tmp_path / "chain.cfg", mixing_angle=np.pi / 4)
    out = tmp_path / "out"
    rc = main(
        ["disorder", "--config", cfg, "--out", str(out), "--realizations", "4",
         "--time", "1", "--threads", "2"]
    )
    assert rc == 3
    assert multiprocessing.active_children() == []
    manifest = read_strict_manifest(out)
    assert manifest["error"].startswith("RuntimeError: an ensemble worker process died")
    assert manifest["outputs"] == [] and manifest["extras"] == {}
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_zero_disorder_row_with_no_data_fails_its_check(tmp_path, monkeypatch):
    # both W = 0 slots fail: 2 of 42 slots, under the failure limit, but the
    # W = 0 rows hold no data, so their spread is unknown, not zero
    run_cell = _ConfigRunner.run_cell

    def flaky(self, disorder):
        if disorder is None:
            raise RuntimeError("synthetic W = 0 failure")
        return run_cell(self, disorder)

    monkeypatch.setattr(_ConfigRunner, "run_cell", flaky)
    cfg = write_cfg(tmp_path / "chain.cfg", mixing_angle=np.pi / 4)
    out = tmp_path / "out"
    sqrt_w = ",".join(str(i / 20) for i in range(21))
    rc = main(
        ["disorder", "--config", cfg, "--out", str(out), "--single", "--sqrt-w", sqrt_w,
         "--realizations", "2", "--time", "1"]
    )
    assert rc == 3
    manifest = read_strict_manifest(out)
    assert len(manifest["extras"]["failures"]) == 2
    spread = [c for c in manifest["self_checks"] if c["name"] == "zero_disorder_spread"]
    assert spread == [{"name": "zero_disorder_spread", "passed": False, "value": None,
                       "limit": 0.0}]
    zero_rows = [line for line in (out / "aggregate.csv").read_text().splitlines()
                 if line.split(",")[2] == "0.0"]
    assert zero_rows and all(line.endswith(",nan,nan,0") for line in zero_rows)


def test_verify_passes_on_default_config(tmp_path):
    cfg = write_cfg(tmp_path / "chain.cfg")
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--out", str(out)])
    assert rc == 0
    manifest = read_manifest(out)
    assert manifest["outputs"] == []
    assert len(manifest["self_checks"]) >= 10
    assert all(c["passed"] for c in manifest["self_checks"])
    names = {c["name"] for c in manifest["self_checks"]}
    assert {"reciprocal_schur_matches_lu", "directional_schur_matches_lu"} <= names


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
        ("evolve", ["--n-angles", "0"], "--n-angles"),
        ("evolve", ["--n-angles", "-1"], "--n-angles"),
        ("evolve", ["--times", ","], "--times"),
        ("disorder", ["--sqrt-w", ","], "--sqrt-w"),
        ("disorder", ["--seed", "-1"], "--seed"),
        ("disorder", ["--threads", "-3"], "--threads"),
        ("disorder", ["--threads", "0"], "--threads"),
        ("disorder", ["--time", "nan"], "--time"),
        ("disorder", ["--sqrt-w", "nan,0"], "--sqrt-w"),
        ("transmit", ["--smoothing", "nan"], "--smoothing"),
        ("transmit", ["--e-min", "nan", "--e-max", "nan", "--n-e", "1"], "--e-min"),
        ("evolve", ["--width-sq", "nan"], "--width-sq"),
        ("evolve", ["--k-carrier", "inf"], "--k-carrier"),
        ("evolve", ["--times", "nan"], "--times"),
        ("transmit", ["--n-e", "3", "--e-min", "0", "--e-max", "1e-12"], "--smoothing"),
        ("transmit", ["--n-e", "3", "--e-min", "0", "--e-max", "1e-300"], "--smoothing"),
        ("disorder", ["--sqrt-w", "0,1e200"], "--sqrt-w"),
        ("disorder", ["--sqrt-w", "1e154"], "--sqrt-w"),
    ],
)
def test_exit_2_bad_grid_size_or_time(tmp_path, capsys, monkeypatch, command, flags, flag):
    cfg = write_cfg(tmp_path / "chain.cfg")

    def setup_reached(*args, **kwargs):
        raise AssertionError("set-up ran before the flag was checked")

    for name in ("build_couplings", "bloch_bands", "guided_group_velocity", "Propagator",
                 "run_ensemble"):
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
    # the manifest still records the run, and names the error instead of files
    manifest = read_strict_manifest(tmp_path / "o")
    assert manifest["error"] == "RuntimeError: synthetic breakage"
    assert manifest["outputs"] == [] and manifest["self_checks"] == []
    assert manifest["extras"] == {}
    assert os.listdir(tmp_path / "o") == ["manifest.json"]


def test_exit_3_failed_self_check(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path / "chain.cfg")

    def fake(args, vc, seed):
        return {}, [CheckResult("synthetic", False, 1.0, 0.0)], {}

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
