import warnings
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.ndimage import uniform_filter1d

from atomchain.chain_model import GAMMA0, ChainConfig, read_config, validate
from atomchain.collective_couplings import build_couplings
from atomchain.hamiltonian import assemble, disorder_sample
from atomchain.scattering import (
    KMatrixScattering,
    ResolventSingularity,
    _boxcar,
    gamma_sqrt,
    reciprocity_defect,
    representation_equivalence_check,
    s_matrix,
    spectrum_scan,
    t_matrix,
    transmittance,
)
from atomchain.spectrum import NormalModes, decay_modes

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _machinery(vc):
    couplings = build_couplings(vc)
    h = assemble(vc, couplings).matrix
    half = gamma_sqrt(decay_modes(couplings))
    return couplings, h, half


def test_gamma_sqrt_squares_back(dir24_couplings):
    half = gamma_sqrt(decay_modes(dir24_couplings))
    assert np.abs(half - half.conj().T).max() < 1e-12
    assert np.abs(half @ half - dir24_couplings.decay).max() < 1e-12


def test_transmittance_matches_exact_decay_square_root(dir24, dir24_couplings, hermitian_part):
    # Reference: endpoint rows of the square root of the same float64 decay
    # matrix from a 30-digit eigendecomposition, then the same float64 solve.
    # decay_modes zeroes the rates at or below 4 eps max(rate), eigh's own
    # absolute error: every rate it drops is within 2.8e-16 of zero at 30
    # digits, and the smallest it keeps is 8.3e-15 at 30 digits, twice the
    # floor (eigh puts it at 1.7 times).  The usual rank tolerance
    # dim eps max(rate) is 12 times higher here: it drops resolved rates and
    # moves T by 1.9e-10 from this reference.
    n2 = 2 * dir24.n_atoms
    ends = [0, 1, n2 - 2, n2 - 1]
    with mp.workdps(30):
        rates, q = mp.eigsy(mp.matrix(dir24_couplings.decay.tolist()))
        roots = [mp.sqrt(r) if r > 0 else mp.mpf(0) for r in rates]
        rows = np.array(
            [
                [float(mp.fsum(q[i, k] * roots[k] * q[j, k] for k in range(n2))) for j in range(n2)]
                for i in ends
            ]
        )
    h = assemble(dir24, dir24_couplings).matrix
    modes = decay_modes(dir24_couplings)
    half = gamma_sqrt(modes)
    scattering = KMatrixScattering(hermitian_part(h), modes)
    for energy in (-0.1, 0.5, 1.647, 2.5, 3.6):
        a = energy * np.eye(n2) - h
        lu = lu_factor(a)
        b = rows[:2].T.astype(complex)
        x = lu_solve(lu, b)
        x += lu_solve(lu, b - a @ x)
        reference = np.sum(np.abs(rows[2:] @ x) ** 2)
        got = transmittance(s_matrix(energy, h, half), 0, dir24.n_atoms - 1)
        assert abs(got - reference) < 5e-11, energy
        got = scattering.s_matrix(energy).transmittance(0, dir24.n_atoms - 1)
        assert abs(got - reference) < 5e-11, energy


def test_single_atom_scattering_is_unitary_lorentzian_phase():
    vc = validate(ChainConfig(n_atoms=1, lattice_const=0.125, delta_shift=0.0))
    _, h, half = _machinery(vc)
    for energy in (-2.0, 0.0, 0.5, 3.0):
        result = s_matrix(energy, h, half)
        # one atom, uncoupled branches: diagonal pure-phase S
        diag = np.diag(result.matrix)
        expected = (energy - 0.5j * GAMMA0) / (energy + 0.5j * GAMMA0)
        assert np.abs(diag - expected).max() < 1e-12
        assert result.unitarity_defect < 1e-12


def test_t_matrix_matches_spectral_resolvent():
    vc = validate(ChainConfig(n_atoms=20, lattice_const=0.125, mixing_angle=np.pi / 4))
    _, h, half = _machinery(vc)
    vals, vecs = np.linalg.eig(h)
    vinv = np.linalg.inv(vecs)
    for energy in (0.5, 2.0, 5.0):
        direct = t_matrix(energy, h, half)
        spectral = half @ ((vecs / (energy - vals)) @ vinv) @ half
        assert np.abs(direct - spectral).max() < 1e-9


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_t_matrix_residual_guard(hermitian_part):
    # singular linear system: energy exactly on a lossless eigenvalue
    h = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ResolventSingularity):
        t_matrix(0.0, h, np.eye(2, dtype=complex))
    # unit-rate modes describe the decay part -(i/2) 1
    modes = NormalModes(rates=np.ones(2), vectors=np.eye(2))
    tiny = np.diag([1e-310, 1.0]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # a doubly degenerate level of H_R exactly at E: one is split off,
        # the other's 1 / (E - eps) is infinite, and the scan says so
        with pytest.raises(ResolventSingularity):
            KMatrixScattering(hermitian_part(h - 0.5j * np.eye(2)), modes).s_matrix(0.0)
        # a subnormal level at E: the split never divides by E - eps_j, and
        # S is the single-level phase (E - eps - i/2) / (E - eps + i/2) = -1
        result = KMatrixScattering(hermitian_part(tiny - 0.5j * np.eye(2)), modes).s_matrix(0.0)
        assert np.all(np.isfinite(result.matrix))
        assert result.unitarity_defect < 1e-15
        assert result.matrix[0, 0] == pytest.approx(-1.0, abs=1e-15)
        assert result.pole == pytest.approx(-0.5j, abs=1e-15)
        # H at an exceptional point, defective with the double eigenvalue
        # -i/4: its Hermitian part is not, and scatters unitarily
        exceptional = np.array([[-0.5j, 0.25], [0.25, 0.0]])
        result = KMatrixScattering(
            hermitian_part(exceptional), NormalModes(np.array([0.0, 1.0]), np.eye(2)[:, ::-1])
        ).s_matrix(0.0)
        assert result.unitarity_defect < 1e-14


@pytest.mark.parametrize("w", [0.0, 1.0])
def test_channel_s_matrix_matches_lu(dir24, dir24_couplings, w, hermitian_part):
    disorder = disorder_sample(5, w, dir24.n_atoms) if w else None
    h = assemble(dir24, dir24_couplings, disorder).matrix
    modes = decay_modes(dir24_couplings)
    half = gamma_sqrt(modes)
    scattering = KMatrixScattering(hermitian_part(h), modes)
    u = scattering.channels
    eye = np.eye(h.shape[0])
    for energy in (-1.0, 0.5, 1.647, 3.0, 6.0):
        channel = scattering.s_matrix(energy)
        full = eye - u @ u.conj().T + u @ channel.matrix @ u.conj().T
        reference = s_matrix(energy, h, half)
        assert np.abs(full - reference.matrix).max() <= 1e-12, energy
        full_defect = np.linalg.norm(full.conj().T @ full - eye)
        assert abs(channel.unitarity_defect - full_defect) <= 1e-13, energy
        for source, target in ((0, dir24.n_atoms - 1), (dir24.n_atoms - 1, 0), (3, 3)):
            assert channel.transmittance(source, target) == pytest.approx(
                transmittance(reference, source, target), abs=1e-12
            )


@pytest.mark.parametrize("w", [0.0, 1.0])
@pytest.mark.parametrize("basis", ["schur", "spectral"])
def test_schur_channel_s_matrix_matches_lu(
    dir24, dir24_couplings, w, basis, change_basis, hermitian_part
):
    # the same chain written in H's Schur basis (H upper triangular) or in
    # the eigenbasis of H's Hermitian part: S agrees with the LU reference
    # entry by entry there, and turned back to sites gives the site T
    disorder = disorder_sample(5, w, dir24.n_atoms) if w else None
    site_h = assemble(dir24, dir24_couplings, disorder).matrix
    site_modes = decay_modes(dir24_couplings)
    q, h, modes = change_basis(site_h, site_modes, basis)
    half = gamma_sqrt(modes)
    scattering = KMatrixScattering(hermitian_part(h), modes)
    u = scattering.channels
    eye = np.eye(h.shape[0])
    for energy in (-1.0, 0.5, 1.647, 3.0, 6.0):
        channel = scattering.s_matrix(energy)
        full = eye - u @ u.conj().T + u @ channel.matrix @ u.conj().T
        reference = s_matrix(energy, h, half)
        assert np.abs(full - reference.matrix).max() <= 1e-12, energy
        full_defect = np.linalg.norm(full.conj().T @ full - eye)
        assert abs(channel.unitarity_defect - full_defect) <= 1e-13, energy
        on_sites = replace(channel, channels=q @ u)
        site_reference = s_matrix(energy, site_h, gamma_sqrt(site_modes))
        for source, target in ((0, dir24.n_atoms - 1), (dir24.n_atoms - 1, 0), (3, 3)):
            assert on_sites.transmittance(source, target) == pytest.approx(
                transmittance(site_reference, source, target), abs=1e-12
            )


@given(
    st.integers(min_value=2, max_value=12),
    st.floats(min_value=-3.0, max_value=9.0),
    st.sampled_from([0.0, np.pi / 4]),
)
def test_unitarity_property(n, energy, angle):
    vc=validate(ChainConfig(n_atoms=n, lattice_const=0.125, mixing_angle=angle))
    _, h, half = _machinery(vc)
    assert s_matrix(energy, h, half).unitarity_defect < 1e-8


def test_unitarity_with_disorder(dir24, dir24_couplings):
    half = gamma_sqrt(decay_modes(dir24_couplings))
    h = assemble(dir24, dir24_couplings, disorder_sample(3, 1.0, dir24.n_atoms)).matrix
    for energy in (-1.0, 1.5, 6.0):
        assert s_matrix(energy, h, half).unitarity_defect < 1e-8


def test_transmittance_diagonal_off_resonance(dir24):
    _, h, half = _machinery(dir24)
    result = s_matrix(1e6, h, half)
    # S ~ identity far off resonance; both branch channels add up
    assert transmittance(result, 3, 3) == pytest.approx(2.0, abs=1e-4)
    assert transmittance(result, 0, 10) == pytest.approx(0.0, abs=1e-4)


def test_zero_angle_transmittance_symmetric(rec24):
    _, h, half = _machinery(rec24)
    for energy in np.linspace(-2, 7, 25):
        result = s_matrix(float(energy), h, half)
        fwd = transmittance(result, 0, rec24.n_atoms - 1)
        bwd = transmittance(result, rec24.n_atoms - 1, 0)
        assert abs(fwd - bwd) < 1e-10


def test_quarter_angle_transmittance_asymmetric(dir24):
    _, h, half = _machinery(dir24)
    rel = 0.0
    for energy in np.linspace(-1, 7, 40):
        result = s_matrix(float(energy), h, half)
        fwd = transmittance(result, 0, dir24.n_atoms - 1)
        bwd = transmittance(result, dir24.n_atoms - 1, 0)
        if max(fwd, bwd) > 1e-6:
            rel = max(rel, abs(fwd - bwd) / max(fwd, bwd))
    assert rel > 0.10


def test_gauge_removable_drive_is_reciprocal_despite_finite_defect():
    # with k_c = pi/(2a) the drive phase alternates sign and can be gauged
    # away, so transport is symmetric even though the commutator witness
    # (a sufficient, not necessary condition) stays finite
    vc = validate(
        ChainConfig(
            n_atoms=24, lattice_const=0.125, mixing_angle=np.pi / 4, control_wavevector=np.pi / 2
        )
    )
    couplings, h, half = _machinery(vc)
    assert reciprocity_defect(vc, couplings) > 1e-3
    for energy in np.linspace(-2, 7, 15):
        result = s_matrix(float(energy), h, half)
        fwd = transmittance(result, 0, vc.n_atoms - 1)
        bwd = transmittance(result, vc.n_atoms - 1, 0)
        assert abs(fwd - bwd) < 1e-10


def test_reciprocity_defect_dichotomy(rec24, dir24, rec24_couplings, dir24_couplings):
    assert reciprocity_defect(rec24, rec24_couplings) < 1e-12
    assert reciprocity_defect(dir24, dir24_couplings) > 1e-3


def test_spectrum_scan_output(dir24, dir24_couplings, hermitian_part):
    h = assemble(dir24, dir24_couplings).matrix
    scattering = KMatrixScattering(hermitian_part(h), decay_modes(dir24_couplings))
    energies = np.linspace(-1, 7, 60)
    scan = spectrum_scan(scattering, energies, 0, dir24.n_atoms - 1, smoothing_window=0.5)
    assert scan.forward.shape == energies.shape
    assert np.all(scan.unitarity_defect < 1e-8)
    assert np.all(scan.forward >= 0)
    # boxcar preserves the mean of the interior region
    assert scan.forward_smoothed.mean() == pytest.approx(scan.forward.mean(), rel=0.05)


def test_spectrum_scan_rejects_a_window_wider_than_its_grid(dir24, dir24_couplings, hermitian_part):
    h = assemble(dir24, dir24_couplings).matrix
    scattering = KMatrixScattering(hermitian_part(h), decay_modes(dir24_couplings))
    # the default 0.05 window over a 1e-12-wide grid would pad the boxcar by ~1e11 samples
    with pytest.raises(ValueError, match="smoothing_window"):
        spectrum_scan(scattering, np.linspace(0.0, 1e-12, 3), 0, 5)
    # a single energy has no span, and a window as wide as the span is allowed
    assert spectrum_scan(scattering, np.array([0.5]), 0, 5).forward.shape == (1,)
    scan = spectrum_scan(scattering, np.linspace(0.0, 0.05, 3), 0, 5, smoothing_window=0.05)
    assert scan.forward_smoothed.shape == (3,)


def test_boxcar_matches_scipy_uniform_filter_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        size, n = int(rng.integers(2, 40)), int(rng.integers(2, 600))
        values = rng.random(n) * 10.0 ** int(rng.integers(-3, 4))
        want = uniform_filter1d(values, size=size, mode="nearest")
        assert np.array_equal(_boxcar(values, size), want), (size, n)
    values = rng.random(5)
    for size in (6, 11, 39):  # a window longer than the signal
        want = uniform_filter1d(values, size=size, mode="nearest")
        assert np.array_equal(_boxcar(values, size), want), size


def test_spectrum_scan_no_smoothing(dir24, dir24_couplings, hermitian_part):
    h = assemble(dir24, dir24_couplings).matrix
    scattering = KMatrixScattering(hermitian_part(h), decay_modes(dir24_couplings))
    energies = np.linspace(0, 2, 8)
    scan = spectrum_scan(scattering, energies, 0, 5, smoothing_window=None)
    assert np.array_equal(scan.forward, scan.forward_smoothed)


def test_representation_equivalence_small_chain(dir24, dir24_couplings):
    report = representation_equivalence_check(dir24, dir24_couplings)
    assert report.normal_mode_defect < 1e-10
    assert report.detector_defect < 1e-4


def test_representation_equivalence_two_atoms():
    vc = validate(ChainConfig(n_atoms=2, lattice_const=0.125, mixing_angle=np.pi / 4))
    report = representation_equivalence_check(vc, build_couplings(vc))
    # the polar rule is exact for the low-order angular dependence
    assert report.detector_defect < 1e-12


@pytest.fixture(scope="module")
def shipped():
    out = {}
    for name in ("directional", "reciprocal"):
        vc = read_config(CONFIG_DIR / f"{name}.cfg")[0]
        couplings = build_couplings(vc)
        out[name] = (vc, couplings, assemble(vc, couplings).matrix)
    return out


@pytest.mark.parametrize(
    "name, resonance", [("directional", -0.186), ("reciprocal", 1.367)]
)
def test_floored_channels_match_every_positive_rate(shipped, name, resonance, hermitian_part):
    # Reference: the channel set before the floor, every rate eigh leaves
    # positive, built directly from eigh and a clip at zero.
    vc, couplings, h = shipped[name]
    rates, vectors = np.linalg.eigh(couplings.decay)
    reference = KMatrixScattering(
        hermitian_part(h), NormalModes(np.clip(rates, 0.0, None), vectors)
    )
    scattering = KMatrixScattering(hermitian_part(h), decay_modes(couplings))
    assert reference.channels.shape[1] > 250
    assert scattering.channels.shape[1] == 138
    # a long-lived resonance that carries transport: the eigenvalue of H
    # nearest the peak of T found by a 400-point scan of the window
    values = np.linalg.eigvals(h)
    peak = values[np.argmin(np.abs(values - resonance))]
    assert 1e-5 < -peak.imag < 1e-2
    energies = np.append(np.linspace(-0.75, 4.25, 15), peak.real)
    last = vc.n_atoms - 1
    for energy in energies:
        got = scattering.s_matrix(float(energy))
        want = reference.s_matrix(float(energy))
        fwd, bwd = got.transmittance(0, last), got.transmittance(last, 0)
        # measured 2.1e-9 on the directional chain at its resonance
        assert fwd == pytest.approx(want.transmittance(0, last), abs=1e-8), energy
        assert bwd == pytest.approx(want.transmittance(last, 0), abs=1e-8), energy
        assert got.unitarity_defect < 1e-8, energy
        if vc.reciprocal:
            assert abs(fwd - bwd) < 1e-10, energy
    assert got.transmittance(0, last) > 0.3  # T at the resonance


@pytest.mark.parametrize("name", ["dir24", "rec24", "directional", "reciprocal"])
def test_hermitian_part_eigh_is_accurate(request, shipped, name, hermitian_part):
    # the once-per-scan accuracy figures transmit writes to its manifest
    if name in shipped:
        _, couplings, h = shipped[name]
    else:
        couplings = request.getfixturevalue(f"{name}_couplings")
        h = assemble(request.getfixturevalue(name), couplings).matrix
    modes = decay_modes(couplings)
    scattering = KMatrixScattering(hermitian_part(h), modes)
    # the shipped chains read 2.3e-15 and 5.7e-14 at most
    assert 0.0 < scattering.eigh_residual < 1e-13
    assert 0.0 < scattering.eigh_orthogonality < 1e-12
    # the scan's premise: H's anti-Hermitian part is -(i/2) Ybar Ybar^dag
    # over the resolved channels, to the rounding of the rate floor
    ybar = scattering.channels * np.sqrt(modes.rates[modes.rates > 0])
    anti = 0.5 * (h - h.conj().T)
    assert np.abs(anti + 0.5j * ybar @ ybar.conj().T).max() < 1e-14


@pytest.mark.parametrize("name", ["dir24", "rec24", "directional", "reciprocal"])
def test_full_h_in_place_of_its_hermitian_part_fails_the_residual_guard(request, shipped, name):
    # KMatrixScattering takes H's Hermitian part and defines H from it and
    # the modes.  Handed the assembled non-Hermitian H by mistake, eigh reads
    # one triangle, and the residual against the whole matrix (3.7e-1 on the
    # 24-atom chains, 3.9e-1 on the shipped ones) fails the 1e-6 guard.
    if name in shipped:
        _, couplings, h = shipped[name]
    else:
        couplings = request.getfixturevalue(f"{name}_couplings")
        h = assemble(request.getfixturevalue(name), couplings).matrix
    with pytest.raises(ResolventSingularity, match=r"left relative residual \d\.\d\de-01$"):
        KMatrixScattering(h, decay_modes(couplings))


@pytest.mark.parametrize("name", ["dir24", "rec24", "directional", "reciprocal"])
def test_rate_floor_sits_in_a_spectral_gap(request, shipped, name):
    # No rate may lie within a factor 1.5 of the floor, so a chain that puts
    # one near it fails here instead of silently losing or gaining a channel.
    if name in shipped:
        couplings = shipped[name][1]
    else:
        couplings = request.getfixturevalue(f"{name}_couplings")
    rates = np.linalg.eigh(couplings.decay)[0]
    modes = decay_modes(couplings)
    assert modes.floor == 4 * np.finfo(float).eps * rates[-1]
    assert not np.any((rates > modes.floor / 1.5) & (rates < 1.5 * modes.floor))
    assert np.array_equal(modes.rates, np.where(rates > modes.floor, rates, 0.0))
