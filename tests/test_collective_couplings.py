from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from atomchain.chain_model import (
    DIPOLES,
    GAMMA0,
    K0,
    ChainConfig,
    positions,
    read_config,
    validate,
)
from atomchain.collective_couplings import build_couplings

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Reference model: the general free-space dyadic Green's tensor and its 3x3
# dipole contraction, against which the closed-form on-axis kernel is checked.


def dyadic_green(separation: np.ndarray, k0: float) -> np.ndarray:
    """Normalized free-space dyadic Green's tensor at the given separation."""
    sep = np.asarray(separation, dtype=float)
    if sep.shape != (3,):
        raise ValueError(f"separation must be a 3-vector, got shape {sep.shape}")
    r = float(np.linalg.norm(sep))
    if r == 0.0:
        raise ValueError("dyadic_green is undefined at zero separation")
    u = k0 * r
    rhat = sep / r
    scalar = (1.0 + 1.0j / u - 1.0 / u**2) * np.eye(3)
    dyad = (-1.0 - 3.0j / u + 3.0 / u**2) * np.outer(rhat, rhat)
    return (np.exp(1.0j * u) / (4.0 * np.pi * r)) * (scalar + dyad)


def pair_coupling(separation: np.ndarray, k0: float, s: int, sp: int) -> complex:
    """d_s^* . G . d_s' contraction for one atom pair; s, sp are layout indices (0 = plus)."""
    g = dyadic_green(separation, k0)
    return complex(np.conj(DIPOLES[s]) @ g @ DIPOLES[sp])


def dyadic_couplings(vc) -> tuple[np.ndarray, np.ndarray]:
    """(shift, decay) from the 3x3 contraction at every separation and polarization pair."""
    n = vc.n_atoms
    pols = range(2)
    per_lag = np.array(
        [
            [[pair_coupling(np.array([0.0, 0.0, z]), K0, s, sp) for sp in pols] for s in pols]
            for z in positions(vc)[1:]
        ]
    ).reshape(n - 1, 2, 2)
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    contraction = np.concatenate([np.zeros((1, 2, 2)), per_lag])[lag]
    contraction = contraction.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
    decay = (6 * np.pi * GAMMA0 / K0) * contraction.imag
    shift = -(3 * np.pi * GAMMA0 / K0) * contraction.real
    np.fill_diagonal(decay, GAMMA0)
    return shift, decay


def test_green_far_field_transverse():
    d = 500.0
    g = dyadic_green(np.array([0.0, 0.0, d]), K0)
    expected = np.exp(1j * K0 * d) / (4 * np.pi * d)
    assert abs(g[0, 0] - expected) < 1e-3 * abs(expected)
    assert abs(g[1, 1] - expected) < 1e-3 * abs(expected)
    # longitudinal component decays one power faster
    assert abs(g[2, 2]) < 2.1 / (K0 * d) * abs(expected)
    assert abs(dyadic_green(np.array([0.0, 0.0, 2 * d]), K0)[2, 2]) < 0.3 * abs(g[2, 2])


def test_green_symmetry_under_inversion_and_transpose():
    rng = np.random.default_rng(3)
    for _ in range(5):
        r = rng.normal(size=3)
        g = dyadic_green(r, K0)
        g_neg = dyadic_green(-r, K0)
        assert np.allclose(g, g_neg, atol=1e-15)
        assert np.allclose(g, g.T, atol=1e-15)


def test_green_rejects_bad_separation():
    with pytest.raises(ValueError, match="zero separation"):
        dyadic_green(np.zeros(3), K0)
    with pytest.raises(ValueError, match="3-vector"):
        dyadic_green(0.5, K0)


def test_transverse_imaginary_part_short_distance_limit():
    # Im[d^* . G . d] -> k0 / (6 pi) as separation -> 0: the linewidth seed
    val = pair_coupling(np.array([0.0, 0.0, 1e-6]), K0, 0, 0)
    assert abs(val.imag - K0 / (6 * np.pi)) < 1e-6


def test_pair_coupling_matches_brute_force_contraction():
    rng = np.random.default_rng(11)
    for _ in range(4):
        sep = rng.normal(size=3)
        g = dyadic_green(sep, K0)
        for s in range(2):
            for sp in range(2):
                brute = sum(
                    np.conj(DIPOLES[s][i]) * g[i, j] * DIPOLES[sp][j]
                    for i in range(3)
                    for j in range(3)
                )
                assert abs(pair_coupling(sep, K0, s, sp) - brute) < 1e-15


def test_scalar_kernel_equivalence_on_axis():
    # For z separations the dipole sandwich collapses to the transverse
    # scalar kernel; check the combined shift - i/2 decay against it.
    for d in (0.125, 0.4, 1.3):
        u = K0 * d
        kernel = 1.5 * np.exp(1j * u) * (1 / u + 1j / u**2 - 1 / u**3)
        gp = pair_coupling(np.array([0.0, 0.0, d]), K0, 0, 0)
        combined = -(3 * np.pi * GAMMA0 / K0) * gp
        assert abs(combined - (-0.5 * GAMMA0) * kernel) < 1e-14


def test_cross_polarization_exactly_zero_on_axis():
    for d in (0.125, 0.7, 2.0):
        val = pair_coupling(np.array([0.0, 0.0, d]), K0, 0, 1)
        assert val == 0.0 or abs(val) < 1e-17


@pytest.mark.parametrize("a", [0.125, 1.0 / 6.0, 0.25])
def test_closed_form_kernel_matches_dyadic_contraction(a):
    vc = validate(ChainConfig(n_atoms=205, lattice_const=a))
    couplings = build_couplings(vc)
    shift, decay = dyadic_couplings(vc)
    assert np.max(np.abs(couplings.shift - shift)) <= 1e-15
    assert np.max(np.abs(couplings.decay - decay)) <= 1e-15
    for off in (0, 1):
        assert np.all(couplings.shift[off::2, 1 - off :: 2] == 0.0)
        assert np.all(couplings.decay[off::2, 1 - off :: 2] == 0.0)


def test_build_couplings_structure(dir24, dir24_couplings):
    decay, shift = dir24_couplings.decay, dir24_couplings.shift
    n = dir24.n_atoms
    assert decay.shape == shift.shape == (2 * n, 2 * n)
    # Hermitian
    assert np.abs(decay - decay.conj().T).max() < 1e-12
    assert np.abs(shift - shift.conj().T).max() < 1e-12
    # diagonal pinned to the single-atom values
    assert np.allclose(np.diag(decay), GAMMA0)
    assert np.allclose(np.diag(shift), 0.0)
    # cross-polarization blocks exactly zero
    assert np.all(decay[0::2, 1::2] == 0.0)
    assert np.all(shift[1::2, 0::2] == 0.0)
    # equal same-polarization blocks
    assert np.array_equal(decay[0::2, 0::2], decay[1::2, 1::2])
    assert np.array_equal(shift[0::2, 0::2], shift[1::2, 1::2])


def test_build_couplings_block_toeplitz():
    # the blocks are gathered as col[|i - j|]; scipy's toeplitz is the reference
    for name in ("directional", "reciprocal"):
        couplings = build_couplings(validate(read_config(CONFIG_DIR / f"{name}.cfg")[0]))
        for matrix in (couplings.decay, couplings.shift):
            block = matrix[0::2, 0::2]
            assert np.array_equal(toeplitz(block[:, 0]), block), name


def test_distant_chain_couplings_small_and_decreasing():
    vc = validate(ChainConfig(n_atoms=6, lattice_const=100.0))
    decay = build_couplings(vc).decay[0::2, 0::2]
    off = np.abs(decay[0, 1:])
    assert np.all(off < 1e-2)
    assert np.all(np.diff(off) < 0.0)


@pytest.mark.parametrize("a", [0.125, 1.0 / 6.0, 0.25])
def test_decay_matrix_positive_semidefinite_large_chain(a):
    vc = validate(ChainConfig(n_atoms=205, lattice_const=a))
    rates = np.linalg.eigvalsh(build_couplings(vc).decay)
    assert rates.min() > -1e-10


@given(st.integers(min_value=1, max_value=10), st.floats(min_value=0.05, max_value=2.0))
def test_couplings_bounded_by_single_atom_rate(n, a):
    vc = validate(ChainConfig(n_atoms=n, lattice_const=a))
    decay = build_couplings(vc).decay
    assert np.abs(decay).max() <= GAMMA0 + 1e-12
