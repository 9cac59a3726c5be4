import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from atomchain.chain_model import GAMMA0, ChainConfig, validate
from atomchain.collective_couplings import build_couplings
from atomchain.hamiltonian import assemble, disorder_sample, drive_hamiltonian


def single_atom_block(vc, site: int) -> np.ndarray:
    """The 2x2 {plus, minus} drive block of one site."""
    return drive_hamiltonian(vc)[2 * site : 2 * site + 2, 2 * site : 2 * site + 2]


def test_single_atom_block_zero_angle_splitting():
    vc = validate(ChainConfig(n_atoms=5, lattice_const=0.125, mixing_angle=0.0))
    block = single_atom_block(vc, 2)
    assert block[0, 1] == 0.0 and block[1, 0] == 0.0
    # branch splitting is half the drive strength
    assert block[0, 0] - block[1, 1] == pytest.approx(vc.delta_shift / 2, rel=1e-15)


def test_single_atom_block_quarter_angle_magnitude_and_phase():
    vc = validate(
        ChainConfig(
            n_atoms=8, lattice_const=0.125, mixing_angle=np.pi / 4, control_wavevector=np.pi / 5
        )
    )
    for site in range(8):
        block = single_atom_block(vc, site)
        mag = (10.0 / 12.0) * np.sin(np.pi / 4)
        assert abs(block[0, 1]) == pytest.approx(mag, rel=1e-12)
        # phase winds as exp(-2i k_c z_n) with k_c z_n = pi n / 5
        expected = mag * np.exp(-2j * np.pi * site / 5)
        assert block[0, 1] == pytest.approx(expected, rel=1e-12)
        assert block[1, 0] == pytest.approx(np.conj(expected), rel=1e-12)
        assert np.abs(block - block.conj().T).max() < 1e-14


def test_single_atom_block_detuning_enters_both_branches():
    base = ChainConfig(n_atoms=3, lattice_const=0.125, detuning=0.0)
    shifted = ChainConfig(n_atoms=3, lattice_const=0.125, detuning=0.7)
    b0 = single_atom_block(validate(base), 1)
    b1 = single_atom_block(validate(shifted), 1)
    assert np.allclose(b1 - b0, 0.7 * np.eye(2))


def test_drive_hamiltonian_is_block_diagonal(dir24):
    drive = drive_hamiltonian(dir24)
    n = dir24.n_atoms
    assert drive.shape == (2 * n, 2 * n)
    # only intra-site 2x2 blocks may be nonzero
    mask = np.zeros_like(drive, dtype=bool)
    for site in range(n):
        mask[2 * site : 2 * site + 2, 2 * site : 2 * site + 2] = True
    assert np.all(drive[~mask] == 0.0)
    assert np.abs(drive - drive.conj().T).max() < 1e-14


def test_disorder_sample_statistics():
    real = disorder_sample(1, 1.0, 10_000)
    assert real.energies.shape == (10_000,)
    assert abs(real.energies.var() - 1.0) < 0.05
    assert abs(real.energies.mean()) < 0.05
    limit = np.sqrt(3.0)
    assert np.all(np.abs(real.energies) <= limit + 1e-12)


def test_disorder_sample_deterministic_and_distinct():
    a = disorder_sample(42, 0.5, 100)
    b = disorder_sample(42, 0.5, 100)
    c = disorder_sample(43, 0.5, 100)
    assert np.array_equal(a.energies, b.energies)
    assert not np.array_equal(a.energies, c.energies)


def test_disorder_sample_gaussian_shape():
    real = disorder_sample(7, 2.0, 20_000, shape="gaussian")
    assert abs(real.energies.var() - 2.0) < 0.1


def test_disorder_sample_errors():
    with pytest.raises(ValueError, match="variance"):
        disorder_sample(0, -0.1, 5)
    with pytest.raises(ValueError, match="shape"):
        disorder_sample(0, 0.1, 5, shape="poisson")


def test_disorder_zero_variance_is_exactly_zero():
    real = disorder_sample(5, 0.0, 50)
    assert np.all(real.energies == 0.0)


def test_assemble_anti_hermitian_split(dir24, dir24_couplings):
    h = assemble(dir24, dir24_couplings)
    defect = np.abs((h.matrix - h.matrix.conj().T) + 1j * dir24_couplings.decay).max()
    assert defect < 1e-12


def test_assemble_dimension_mismatch(dir24, rec24_couplings):
    small = validate(ChainConfig(n_atoms=5, lattice_const=0.125))
    with pytest.raises(ValueError):
        assemble(small, rec24_couplings)
    bad = disorder_sample(0, 0.1, 7)
    with pytest.raises(ValueError):
        assemble(dir24, build_couplings(dir24), bad)


def test_two_atom_closed_form_spectrum():
    vc = validate(ChainConfig(n_atoms=2, lattice_const=0.125, delta_shift=0.0))
    couplings = build_couplings(vc)
    h = assemble(vc, couplings)
    eigs = np.sort_complex(np.linalg.eigvals(h.matrix))
    pair = couplings.shift[0, 2] - 0.5j * couplings.decay[0, 2]
    expected = np.sort_complex(
        np.array([pair - 0.5j * GAMMA0] * 2 + [-pair - 0.5j * GAMMA0] * 2)
    )
    assert np.abs(eigs - expected).max() < 1e-10


def test_two_atom_rates_sum_to_two():
    vc = validate(ChainConfig(n_atoms=2, lattice_const=0.125, delta_shift=0.0))
    couplings = build_couplings(vc)
    h = assemble(vc, couplings)
    eigs = np.linalg.eigvals(h.matrix)
    rates = -2.0 * eigs.imag
    # per polarization: one super- and one subradiant rate adding to 2
    assert np.sum(rates) == pytest.approx(4.0 * GAMMA0, abs=1e-10)


@pytest.mark.parametrize("angle", [0.0, np.pi / 4])
def test_trace_identity(angle):
    vc = validate(ChainConfig(n_atoms=11, lattice_const=0.125, mixing_angle=angle))
    couplings = build_couplings(vc)
    eigs = np.linalg.eigvals(assemble(vc, couplings).matrix)
    assert np.sum(eigs.imag) == pytest.approx(-vc.n_atoms * GAMMA0, rel=1e-10)


def test_disorder_preserves_total_decay(dir24, dir24_couplings):
    clean = np.linalg.eigvals(assemble(dir24, dir24_couplings).matrix)
    noisy = np.linalg.eigvals(
        assemble(dir24, dir24_couplings, disorder_sample(2, 1.0, dir24.n_atoms)).matrix
    )
    assert np.sum(noisy.imag) == pytest.approx(np.sum(clean.imag), rel=1e-10)


def test_disorder_shifts_both_branches_identically(dir24, dir24_couplings):
    real = disorder_sample(9, 0.5, dir24.n_atoms)
    h0 = assemble(dir24, dir24_couplings).matrix
    h1 = assemble(dir24, dir24_couplings, real).matrix
    diff = h1 - h0
    assert np.allclose(np.diag(diff)[0::2], real.energies)
    assert np.allclose(np.diag(diff)[1::2], real.energies)
    diff[np.diag_indices_from(diff)] = 0.0
    assert np.all(diff == 0.0)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_disorder_sample_bounds_property(seed):
    w = 0.8
    real = disorder_sample(seed, w, 64)
    assert np.all(np.abs(real.energies) <= np.sqrt(3 * w) + 1e-12)
    assert real.variance_w == w
