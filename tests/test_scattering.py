import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from atomchain.chain_model import GAMMA0, ChainConfig, validate
from atomchain.collective_couplings import build_couplings
from atomchain.hamiltonian import assemble, disorder_sample
from atomchain.scattering import (
    ResolventSingularity,
    gamma_sqrt,
    reciprocity_defect,
    representation_equivalence_check,
    s_matrix,
    spectrum_scan,
    t_matrix,
    transmittance,
)
from atomchain.spectrum import decay_modes


def _machinery(vc):
    couplings = build_couplings(vc)
    h = assemble(vc, couplings).matrix
    half = gamma_sqrt(decay_modes(couplings))
    return couplings, h, half


def test_gamma_sqrt_squares_back(dir24_couplings):
    half = gamma_sqrt(decay_modes(dir24_couplings))
    assert np.abs(half - half.conj().T).max() < 1e-12
    assert np.abs(half @ half - dir24_couplings.decay).max() < 1e-12


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
def test_t_matrix_residual_guard():
    # singular linear system: energy exactly on a lossless eigenvalue
    h = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ResolventSingularity):
        t_matrix(0.0, h, np.eye(2, dtype=complex))


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


def test_spectrum_scan_output(dir24):
    _, h, half = _machinery(dir24)
    energies = np.linspace(-1, 7, 60)
    scan = spectrum_scan(h, half, energies, 0, dir24.n_atoms - 1, smoothing_window=0.5)
    assert scan.forward.shape == energies.shape
    assert np.all(scan.unitarity_defect < 1e-8)
    assert np.all(scan.forward >= 0)
    # boxcar preserves the mean of the interior region
    assert scan.forward_smoothed.mean() == pytest.approx(scan.forward.mean(), rel=0.05)


def test_spectrum_scan_no_smoothing(dir24):
    _, h, half = _machinery(dir24)
    energies = np.linspace(0, 2, 8)
    scan = spectrum_scan(h, half, energies, 0, 5, smoothing_window=None)
    assert np.array_equal(scan.forward, scan.forward_smoothed)


def test_representation_equivalence_small_chain(dir24, dir24_couplings):
    report = representation_equivalence_check(dir24, dir24_couplings)
    assert report.normal_mode_defect < 1e-10
    assert report.detector_defect < 1e-4


def test_representation_equivalence_two_atoms():
    vc = validate(ChainConfig(n_atoms=2, lattice_const=0.125, mixing_angle=np.pi / 4))
    report = representation_equivalence_check(vc, build_couplings(vc), n_polar=8, n_azimuth=4)
    # the polar rule is exact for the low-order angular dependence
    assert report.detector_defect < 1e-12
