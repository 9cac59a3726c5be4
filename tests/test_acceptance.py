"""End-to-end acceptance suite.

Each test covers one headline behavior of the package on the full-size
chain (205 atoms, lattice constant 1/8) and prints a single PASS/FAIL
line with the measured values; run with `pytest tests/test_acceptance.py -s`
to see all lines.  Thresholds are fixed here and must not be loosened to
make a failing build pass.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import find_peaks

from atomchain.chain_model import ChainConfig, validate
from atomchain.collective_couplings import build_couplings
from atomchain.dynamics import (
    Propagator,
    mirror_ratio_flip,
    populations,
    propagate_to,
    spin_wave,
)
from atomchain.ensemble import EnsembleSpec, run_ensemble
from atomchain.hamiltonian import assemble, disorder_sample
from atomchain.scattering import (
    KMatrixScattering,
    gamma_sqrt,
    reciprocity_defect,
    representation_equivalence_check,
    s_matrix,
    spectrum_scan,
    t_matrix,
    transmittance,
)
from atomchain.spectrum import (
    bloch_bands,
    decay_modes,
    default_k_grid,
    lattice_sum,
    transparency_window,
)

N_FULL = 205
LATTICE = 0.125


def report(label, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {label}: {detail}")
    assert passed, f"{label}: {detail}"


def full_config(mixing_angle):
    return validate(
        ChainConfig(n_atoms=N_FULL, lattice_const=LATTICE, mixing_angle=mixing_angle)
    )


@pytest.fixture(scope="module")
def chains(hermitian_part):
    out = {}
    for tag, angle in (("rec", 0.0), ("dir", np.pi / 4)):
        vc = full_config(angle)
        couplings = build_couplings(vc)
        h = assemble(vc, couplings)
        modes = decay_modes(couplings)
        out[tag] = {
            "vc": vc,
            "couplings": couplings,
            "h": h,
            "modes": modes,
            "half": gamma_sqrt(modes),
            "scattering": KMatrixScattering(hermitian_part(h.matrix), modes),
        }
    return out


@pytest.fixture(scope="module")
def scans(chains):
    energies = np.linspace(-4.0, 10.0, 500)
    return {
        "energies": energies,
        "rec": spectrum_scan(chains["rec"]["scattering"], energies, 0, N_FULL - 1),
        "dir": spectrum_scan(chains["dir"]["scattering"], energies, 0, N_FULL - 1),
    }


def test_smatrix_unitary_across_sizes_angles_disorder(chains, lu_transmittances, hermitian_part):
    worst = 0.0
    case = 0
    for n in (2, 20, N_FULL):
        for tag, angle in (("rec", 0.0), ("dir", np.pi / 4)):
            if n == N_FULL:
                base = chains[tag]
                vc, couplings, modes = base["vc"], base["couplings"], base["modes"]
            else:
                vc = validate(
                    ChainConfig(n_atoms=n, lattice_const=LATTICE, mixing_angle=angle)
                )
                couplings = build_couplings(vc)
                modes = decay_modes(couplings)
            for w in (0.0, 1.0):
                case += 1
                if w == 0.0 and n == N_FULL:
                    scattering = base["scattering"]
                else:
                    disorder = (
                        disorder_sample(np.random.SeedSequence(2026 + case), w, n) if w else None
                    )
                    h = assemble(vc, couplings, disorder).matrix
                    scattering = KMatrixScattering(hermitian_part(h), modes)
                energies = np.random.default_rng(1000 + case).uniform(-4.0, 10.0, 100)
                for energy in energies:
                    worst = max(worst, scattering.s_matrix(float(energy)).unitarity_defect)
    # a long dense chain whose H has badly conditioned eigenvectors (1-norm
    # condition number 5.6e6): the scan reads eigh of H's Hermitian part, so
    # neither its unitarity nor its T against the LU reference depends on it
    vc = validate(ChainConfig(n_atoms=600, lattice_const=0.25, mixing_angle=np.pi / 4))
    couplings = build_couplings(vc)
    h = assemble(vc, couplings).matrix
    modes = decay_modes(couplings)
    scattering = KMatrixScattering(hermitian_part(h), modes)
    half = gamma_sqrt(modes)
    long_worst, long_lu = 0.0, 0.0
    # end to end T is 4e-7 to 7e-5 here; a three-site hop carries 0.015 to 0.13
    pairs = ((0, vc.n_atoms - 1), (vc.n_atoms - 1, 0), (0, 3), (3, 0))
    for energy in (-1.0, 1.5, 4.0):
        result = scattering.s_matrix(energy)
        reference = lu_transmittances(energy, h, half, pairs)
        long_worst = max(long_worst, result.unitarity_defect)
        for (source, target), want in zip(pairs, reference):
            long_lu = max(long_lu, abs(result.transmittance(source, target) - want))
    report(
        "scattering matrix unitarity",
        max(worst, long_worst) < 1e-8 and long_lu < 1e-11,
        f"worst ||S^dag S - 1|| = {worst:.3e} over {case} chain/disorder cases "
        f"x 100 energies, {long_worst:.3e} at 600 atoms x 3 energies (limit 1e-8); "
        f"max |dT| against LU at 600 atoms {long_lu:.3e} (limit 1e-11)",
    )


LU_ENERGIES = np.linspace(-0.75, 4.25, 64)


END_TO_END = ((0, N_FULL - 1), (N_FULL - 1, 0))


@pytest.fixture(scope="module")
def lu_reference(chains, lu_transmittances):
    """(T_fwd, T_bwd) end to end on each chain at LU_ENERGIES, from LU solves."""
    out = {}
    for tag in ("rec", "dir"):
        h, half = chains[tag]["h"].matrix, chains[tag]["half"]
        references = [lu_transmittances(float(e), h, half, END_TO_END) for e in LU_ENERGIES]
        out[tag] = tuple(np.array(references).T)
    return out


def test_lu_reference_matches_the_full_lu_s_matrix(chains, lu_transmittances):
    # the endpoint-column LU reference against T read from the whole LU S
    # matrix (scattering.s_matrix) on the shipped directional chain
    h, half = chains["dir"]["h"].matrix, chains["dir"]["half"]
    pairs = END_TO_END + ((0, 3), (3, 0), (7, 7))
    worst = 0.0
    for energy in LU_ENERGIES[::4]:
        full = s_matrix(float(energy), h, half)
        got = lu_transmittances(float(energy), h, half, pairs)
        want = [transmittance(full, source, target) for source, target in pairs]
        worst = max(worst, np.abs(got - want).max())
    report(
        "endpoint-column LU reference against the full LU S matrix",
        worst < 1e-13,
        f"max |dT| = {worst:.3e} over 16 energies and {len(pairs)} site pairs (limit 1e-13)",
    )


def test_scan_matches_lu_reference(chains, lu_reference):
    worst = 0.0
    for tag in ("rec", "dir"):
        scan = spectrum_scan(chains[tag]["scattering"], LU_ENERGIES, 0, N_FULL - 1)
        forward, backward = lu_reference[tag]
        worst = max(
            worst, np.abs(scan.forward - forward).max(), np.abs(scan.backward - backward).max()
        )
    report(
        "K-matrix scan against the LU reference",
        worst < 1e-11,
        f"max |dT| = {worst:.3e} over 64 energies on both chains (limit 1e-11)",
    )


@pytest.mark.parametrize("basis", ["schur", "spectral"])
def test_schur_scan_matches_lu_reference(
    chains, basis, change_basis, lu_reference, hermitian_part
):
    # the K-matrix scan run on both chains written in H's Schur basis (H
    # upper triangular) or in the eigenbasis of H's Hermitian part, its
    # channels turned back to sites, against the site-basis LU reference
    worst = 0.0
    for tag in ("rec", "dir"):
        q, h, modes = change_basis(chains[tag]["h"].matrix, chains[tag]["modes"], basis)
        scattering = KMatrixScattering(hermitian_part(h), modes)
        channels = q @ scattering.channels
        for energy, *reference in zip(LU_ENERGIES, *lu_reference[tag]):
            result = replace(scattering.s_matrix(float(energy)), channels=channels)
            for (source, target), want in zip(END_TO_END, reference):
                worst = max(worst, abs(result.transmittance(source, target) - want))
    report(
        f"K-matrix scan in the {basis} basis against the LU reference",
        worst < 1e-11,
        f"max |dT| = {worst:.3e} over 64 energies on both chains (limit 1e-11)",
    )


def test_decay_channel_representations_agree(chains):
    normal_worst = 0.0
    for tag in ("rec", "dir"):
        rep = representation_equivalence_check(chains[tag]["vc"], chains[tag]["couplings"])
        normal_worst = max(normal_worst, rep.normal_mode_defect)
    vc2 = validate(ChainConfig(n_atoms=2, lattice_const=LATTICE, mixing_angle=0.0))
    rep2 = representation_equivalence_check(vc2, build_couplings(vc2))
    passed = normal_worst < 1e-10 and rep2.detector_defect < 1e-4
    report(
        "decay-channel representation equivalence",
        passed,
        f"normal-mode defect {normal_worst:.3e} (limit 1e-10), two-atom detector "
        f"defect {rep2.detector_defect:.3e} (limit 1e-4)",
    )


def test_reciprocity_dichotomy(chains, scans):
    defect_rec = reciprocity_defect(chains["rec"]["vc"], chains["rec"]["couplings"])
    defect_dir = reciprocity_defect(chains["dir"]["vc"], chains["dir"]["couplings"])
    sym = float(np.max(np.abs(scans["rec"].forward - scans["rec"].backward)))
    fwd, bwd = scans["dir"].forward, scans["dir"].backward
    big = np.maximum(fwd, bwd)
    mask = big > 1e-12
    asym = float(np.max(np.abs(fwd - bwd)[mask] / big[mask]))
    passed = defect_rec < 1e-12 and sym < 1e-10 and defect_dir > 1e-3 and asym > 0.10
    report(
        "reciprocity dichotomy",
        passed,
        f"zero-angle commutator {defect_rec:.3e} (<1e-12) and direction asymmetry "
        f"{sym:.3e} (<1e-10); driven commutator {defect_dir:.3e} (>1e-3) and peak "
        f"relative asymmetry {asym:.3f} (>0.10)",
    )


def test_window_scales_cubically_with_spacing():
    w8 = transparency_window(full_config(np.pi / 4))
    vc6 = validate(
        ChainConfig(n_atoms=N_FULL, lattice_const=1.0 / 6.0, mixing_angle=np.pi / 4)
    )
    w6 = transparency_window(vc6)
    ratio = w8 / w6
    cubic = (6.0 * LATTICE) ** -3
    rel = abs(ratio - cubic) / cubic
    report(
        "window cubic scaling",
        rel < 0.20,
        f"window(1/8)/window(1/6) = {ratio:.4f} vs (8/6)^3 = {cubic:.4f}, "
        f"rel. deviation {rel:.3f} (limit 0.20)",
    )


def test_window_magnitude():
    w8 = transparency_window(full_config(np.pi / 4))
    rel = abs(w8 - 2.5) / 2.5
    report(
        "window magnitude",
        rel < 0.25,
        f"window = {w8:.4f} vs 2.5 expected, rel. deviation {rel:.4f} (limit 0.25)",
    )


def test_transmission_peaks_inside_guided_bands(chains, scans):
    vc = chains["dir"]["vc"]
    bands = bloch_bands(vc, default_k_grid(vc, 1024))
    re_all = np.concatenate([bands.upper.real, bands.lower.real])
    lo, hi = float(re_all.min()) - 0.1, float(re_all.max()) + 0.1
    peaks, _ = find_peaks(scans["dir"].forward_smoothed, prominence=0.02)
    peak_energies = scans["energies"][peaks]
    inside = bool(np.all((peak_energies >= lo) & (peak_energies <= hi)))
    halfwidths = -np.linalg.eigvals(chains["dir"]["h"].matrix).imag
    darkest = float(halfwidths.min())
    passed = inside and len(peak_energies) > 0 and darkest < 1e-3
    report(
        "transmission peaks inside guided bands",
        passed,
        f"{len(peak_energies)} smoothed peaks all within [{lo:.3f}, {hi:.3f}] padded "
        f"band union: {inside}; darkest modal halfwidth {darkest:.3e} (limit 1e-3)",
    )


def test_propagation_self_consistency():
    vc = validate(ChainConfig(n_atoms=24, lattice_const=LATTICE, mixing_angle=np.pi / 4))
    couplings = build_couplings(vc)
    propagator = Propagator(assemble(vc, couplings))
    state0 = spin_wave(vc, n0=12, width_sq=8.0)

    t, dt = 3.0, 1e-4
    probe = propagate_to(state0, propagator, t)
    before = propagate_to(state0, propagator, t - dt)
    after = propagate_to(state0, propagator, t + dt)
    fd_rate = (after.norm - before.norm) / (2 * dt)
    expected = -float(np.real(probe.amps.conj() @ (couplings.decay @ probe.amps)))
    rate_rel = abs(fd_rate - expected) / abs(expected)

    half = propagate_to(state0, propagator, t / 2)
    composed = propagate_to(half, propagator, t)
    comp = float(np.linalg.norm(composed.amps - probe.amps))

    vc1 = validate(ChainConfig(n_atoms=1, lattice_const=LATTICE, mixing_angle=0.0))
    prop1 = Propagator(assemble(vc1, build_couplings(vc1)))
    s1 = spin_wave(vc1, n0=0, width_sq=1.0, excited_fraction=0.2)
    single_err = 0.0
    for t1 in (0.7, 2.3, 5.0, 9.0):
        evolved = propagate_to(s1, prop1, t1)
        pop = float(sum(p.sum() for p in populations(evolved)))
        single_err = max(single_err, abs(pop - 0.2 * math.exp(-t1)))

    passed = rate_rel < 1e-4 and comp < 1e-9 and single_err < 1e-10
    report(
        "propagation self-consistency",
        passed,
        f"norm-loss rate rel. err {rate_rel:.3e} (<1e-4), composition defect "
        f"{comp:.3e} (<1e-9), single-atom decay err {single_err:.3e} (<1e-10)",
    )


def test_mirror_ratio_flip_dichotomy(chains):
    values = {}
    for tag in ("rec", "dir"):
        vc = chains[tag]["vc"]
        propagator = Propagator(chains[tag]["h"])
        state = spin_wave(vc, n0=100, width_sq=60.0)
        evolved = propagate_to(state, propagator, 13.0)
        values[tag] = mirror_ratio_flip(state, evolved, propagator, vc)
    passed = values["rec"] < 1e-9 and values["dir"] > 0.3
    report(
        "mirror ratio flip",
        passed,
        f"|log10 ratio product|: zero-angle {values['rec']:.3e} (<1e-9), "
        f"driven {values['dir']:.4f} (>0.3)",
    )


def test_disorder_localization_ordering():
    base = ChainConfig(n_atoms=N_FULL, lattice_const=LATTICE, mixing_angle=np.pi / 4)
    spec = EnsembleSpec(
        configs=(base, replace(base, mixing_angle=0.0)),
        w_values=(0.0, 0.625**2, 1.0),
        n_realizations=50,
        master_seed=20260815,
        observation_time=13.0,
        max_workers=4,
    )
    result_a, result_b = run_ensemble(spec)
    ipr_a = result_a.scalars["realspace_ipr"]
    ipr_b = result_b.scalars["realspace_ipr"]
    n = spec.n_realizations
    z_scores = []
    for wi in (1, 2):
        diff = (ipr_a[wi] - ipr_a[0]) - (ipr_b[wi] - ipr_b[0])
        sem = diff.std(ddof=1) / np.sqrt(n)
        z_scores.append(float(diff.mean() / sem))
    surv_a = float(result_a.scalars["survival"][2].mean())
    surv_b = float(result_b.scalars["survival"][2].mean())
    passed = all(z < -2.0 for z in z_scores) and surv_a <= surv_b
    report(
        "disorder localization ordering",
        passed,
        f"driven-minus-undriven localization growth z = "
        f"{z_scores[0]:.2f}, {z_scores[1]:.2f} (both < -2); strongest-disorder "
        f"survival {surv_a:.6f} <= {surv_b:.6f}",
    )


def test_numerical_anchors():
    # 1e7-term compensated partial sum for the p = 3 lattice series
    phi = 1.0
    total_re, total_im = [], []
    for start in range(1, 10_000_001, 1_000_000):
        m = np.arange(start, min(start + 1_000_000, 10_000_001), dtype=float)
        terms = np.exp(1j * m * phi) / m**3
        total_re.append(math.fsum(terms.real))
        total_im.append(math.fsum(terms.imag))
    brute = complex(math.fsum(total_re), math.fsum(total_im))
    series_err = abs(lattice_sum(3, phi) - brute)

    vc = validate(ChainConfig(n_atoms=20, lattice_const=LATTICE, mixing_angle=np.pi / 4))
    couplings = build_couplings(vc)
    h = assemble(vc, couplings)
    half = gamma_sqrt(decay_modes(couplings))
    energy = 1.7
    vals, vecs = np.linalg.eig(h.matrix)
    resolvent = vecs @ np.diag(1.0 / (energy - vals)) @ np.linalg.inv(vecs)
    t_spectral = half @ resolvent @ half
    t_err = float(np.max(np.abs(t_matrix(energy, h.matrix, half) - t_spectral)))

    vc2 = validate(ChainConfig(n_atoms=2, lattice_const=LATTICE, mixing_angle=0.0))
    c2 = build_couplings(vc2)
    h2 = assemble(vc2, c2)
    pair = c2.shift[0, 2] - 0.5j * c2.decay[0, 2]
    closed = []
    for branch_index in (0, 1):
        onsite = h2.matrix[branch_index, branch_index]
        closed.extend([onsite + pair, onsite - pair])
    got = np.sort_complex(np.linalg.eigvals(h2.matrix))
    pair_err = float(np.max(np.abs(got - np.sort_complex(np.array(closed)))))

    passed = series_err < 1e-8 and t_err < 1e-9 and pair_err < 1e-10
    report(
        "numerical anchors",
        passed,
        f"lattice series vs 1e7-term sum {series_err:.3e} (<1e-8), scattering kernel "
        f"vs spectral resolvent {t_err:.3e} (<1e-9), two-atom closed form "
        f"{pair_err:.3e} (<1e-10)",
    )


def test_cli_byte_determinism(tmp_path):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text(
        "\n".join(
            [
                "n_atoms = 24",
                "lattice_const = 0.125",
                f"delta_shift = {10.0 / 3.0!r}",
                f"mixing_angle = {np.pi / 4!r}",
                f"control_wavevector = {np.pi / 5!r}",
                "detuning = 0.0",
                "seed = 20260815",
            ]
        )
        + "\n"
    )
    runs = {}
    for tag, threads in (("one", "1"), ("two", "1"), ("threaded", "3")):
        out = tmp_path / tag
        proc = subprocess.run(
            [
                sys.executable, "-m", "atomchain", "disorder",
                "--config", str(cfg), "--out", str(out),
                "--sqrt-w", "0,1", "--realizations", "6", "--time", "3.0",
                "--threads", threads,
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        tables = {}
        for name in sorted(os.listdir(out)):
            if name == "manifest.json":
                continue
            tables[name] = (out / name).read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        manifest.pop("wall_clock_seconds")
        manifest.pop("threads")
        runs[tag] = (tables, manifest)
    rerun_same = runs["one"] == runs["two"]
    threads_same = runs["one"] == runs["threaded"]
    n_tables = len(runs["one"][0])
    report(
        "command line determinism",
        rerun_same and threads_same,
        f"{n_tables} tables byte-identical across rerun ({rerun_same}) and across "
        f"--threads 1 vs 3 ({threads_same}); manifests match up to wall clock",
    )
