import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import xlogy, zeta

from atomchain import spectrum
from atomchain.chain_model import GAMMA0, ChainConfig, read_config, validate
from atomchain.collective_couplings import build_couplings
from atomchain.hamiltonian import _drive_terms, assemble
from atomchain.spectrum import (
    BlochBands,
    LatticeSumDivergence,
    _gauge_shift,
    bloch_bands,
    coupling_fourier_sum,
    decay_modes,
    default_k_grid,
    guided_group_velocity,
    lattice_sum,
    transparency_window,
)

mp.mp.dps = 30

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def looped_bloch_bands(vc, k_grid):
    """Reference: one scalar Fourier sum per (k, polarization) and one 2x2 eig per k.

    A light-line point is caught by its LatticeSumDivergence and nudged by
    1e-9/a toward the inside of the light cone.  Returns the (n_k, 2)
    eigenvalues and plus-weights, sorted by real part, and the nudge count.
    """
    a = vc.lattice_const
    bz = 2.0 * np.pi / a
    kc = _gauge_shift(vc)
    eps_plus, eps_minus, coupling = _drive_terms(vc)
    lam = np.empty((k_grid.size, 2), dtype=complex)
    weight_plus = np.empty((k_grid.size, 2))
    nudges = 0
    for i, k in enumerate(k_grid):
        diag = []
        for s, eps in ((+1.0, eps_plus), (-1.0, eps_minus)):
            q = float(k - s * kc)
            try:
                f = coupling_fourier_sum(q, vc)
            except LatticeSumDivergence:
                nudges += 1
                inward = np.copysign(1e-9 / a, np.mod(q + np.pi / a, bz) - np.pi / a)
                f = coupling_fourier_sum(q - inward, vc)
            diag.append(eps - 0.5j * GAMMA0 + f)
        values, vectors = np.linalg.eig(np.array([[diag[0], coupling], [coupling, diag[1]]]))
        order = np.argsort(values.real)
        lam[i] = values[order]
        weight_plus[i] = np.abs(vectors[0, order]) ** 2
    return lam, weight_plus, nudges


@pytest.mark.parametrize("p", [1, 2, 3])
def test_lattice_sum_matches_mpmath(p):
    phis = (0.05, 0.3, 1.0, np.pi / 2, 2.0, np.pi, 4.0, 5.5, 6.2)
    refs = [complex(mp.polylog(p, mp.e ** (1j * phi))) for phi in phis]
    for phi, ref in zip(phis, refs):
        assert abs(lattice_sum(p, phi) - ref) < 1e-12
    assert np.abs(lattice_sum(p, np.array(phis)) - np.array(refs)).max() < 1e-12


def test_lattice_sum_known_values():
    assert lattice_sum(2, np.pi).real == pytest.approx(-np.pi**2 / 12, abs=1e-14)
    assert abs(lattice_sum(2, np.pi).imag) < 1e-14
    assert lattice_sum(1, np.pi).real == pytest.approx(-np.log(2), abs=1e-14)
    # Im Li_2(e^{i pi/2}) is Catalan's constant
    assert lattice_sum(2, np.pi / 2).imag == pytest.approx(float(mp.catalan), abs=1e-14)
    assert lattice_sum(3, 0.0).real == pytest.approx(float(mp.zeta(3)), abs=1e-14)


def test_lattice_sum_against_compensated_partial_sums():
    # brute-force series with compensated accumulation, 10^7 terms
    phi = 1.0
    partials_re, partials_im = [], []
    chunk = 1_000_000
    for start in range(1, 10_000_001, chunk):
        m = np.arange(start, min(start + chunk, 10_000_001), dtype=np.float64)
        term = np.exp(1j * m * phi) / m**3
        partials_re.append(math.fsum(term.real))
        partials_im.append(math.fsum(term.imag))
    ref = complex(math.fsum(partials_re), math.fsum(partials_im))
    assert abs(lattice_sum(3, phi) - ref) < 1e-8


def test_clausen_constants_are_the_scipy_zeta_bits():
    m = np.arange(1, 56)
    want = zeta(2.0 * m) / (m * (2 * m + 1) * (2.0 * np.pi) ** (2 * m))
    assert np.array_equal(spectrum._CL2_COEF, want)
    assert spectrum._ZETA3 == float(zeta(3.0))


def test_xlogx_matches_scipy_xlogy_bit_for_bit():
    q = np.linspace(0.0, np.pi, 400_001)  # q = 0 included
    got = spectrum._xlogx(q)
    assert np.array_equal(got.view(np.int64), xlogy(q, q).view(np.int64))


def test_lattice_sum_domain_errors():
    with pytest.raises(LatticeSumDivergence):
        lattice_sum(1, 0.0)
    with pytest.raises(LatticeSumDivergence):
        lattice_sum(1, 2 * np.pi)
    with pytest.raises(ValueError):
        lattice_sum(4, 1.0)


@given(st.floats(min_value=0.01, max_value=2 * np.pi - 0.01), st.sampled_from([1, 2, 3]))
def test_lattice_sum_periodicity_and_reflection(phi, p):
    assert lattice_sum(p, phi + 2 * np.pi) == pytest.approx(lattice_sum(p, phi), abs=1e-12)
    # conjugation symmetry on the unit circle
    assert lattice_sum(p, 2 * np.pi - phi) == pytest.approx(
        np.conj(lattice_sum(p, phi)), abs=1e-12
    )


def test_coupling_fourier_sum_even_and_periodic(dir24):
    a = dir24.lattice_const
    for q in (0.3, 1.7, 4.0):
        assert coupling_fourier_sum(q, dir24) == pytest.approx(
            coupling_fourier_sum(-q, dir24), abs=1e-12
        )
        assert coupling_fourier_sum(q + 2 * np.pi / a, dir24) == pytest.approx(
            coupling_fourier_sum(q, dir24), abs=1e-12
        )


def test_decay_modes_single_atom_rates():
    vc = validate(ChainConfig(n_atoms=1, lattice_const=0.125))
    modes = decay_modes(build_couplings(vc))
    assert np.allclose(modes.rates, [GAMMA0, GAMMA0])


def test_decay_modes_sorted_and_sum_rule(dir24, dir24_couplings):
    modes = decay_modes(dir24_couplings)
    assert np.all(np.diff(modes.rates) >= 0.0)
    assert np.sum(modes.rates) == pytest.approx(2 * dir24.n_atoms * GAMMA0, rel=1e-12)
    assert modes.rates[0] >= 0.0


def test_decay_modes_rejects_non_psd(dir24_couplings):
    from dataclasses import replace

    bad = replace(dir24_couplings, decay=-dir24_couplings.decay)
    with pytest.raises(ValueError, match="negative"):
        decay_modes(bad)


def test_two_atom_split_rates():
    vc = validate(ChainConfig(n_atoms=2, lattice_const=0.125, delta_shift=0.0))
    modes = decay_modes(build_couplings(vc))
    # each polarization contributes one super- and one subradiant rate
    assert np.sum(modes.rates) == pytest.approx(4 * GAMMA0, rel=1e-12)
    assert modes.rates[0] == pytest.approx(modes.rates[1], rel=1e-12)
    assert modes.rates[0] < GAMMA0 < modes.rates[-1]


def test_eigenvalues_non_amplifying(dir24, dir24_couplings):
    h = assemble(dir24, dir24_couplings).matrix
    values = np.linalg.eigvals(h)
    assert values.shape == (48,)
    assert np.all(values.imag <= 1e-12)
    assert abs(values.sum() - np.trace(h)) < 1e-12


def test_k_grids():
    vc = validate(ChainConfig(n_atoms=16, lattice_const=0.25))
    grid = default_k_grid(vc, vc.n_atoms)
    assert grid.shape == (16,)
    assert grid.min() > -np.pi / 0.25
    assert grid.max() == pytest.approx(np.pi / 0.25, rel=1e-15)
    assert np.allclose(np.diff(grid), 2 * np.pi / (16 * 0.25))
    dense = default_k_grid(vc, 128)
    assert dense.shape == (128,)


def test_bloch_bands_shapes_and_order(dir24):
    bands = bloch_bands(dir24, default_k_grid(dir24, 64))
    assert isinstance(bands, BlochBands)
    assert np.all(bands.upper.real >= bands.lower.real - 1e-12)
    weights = bands.polarization_weight_upper
    assert np.all((weights >= 0) & (weights <= 1))


def test_bloch_bands_even_at_zero_angle(rec24):
    ks = np.linspace(0.2, 0.9, 7) * np.pi / rec24.lattice_const
    fwd = bloch_bands(rec24, ks)
    bwd = bloch_bands(rec24, -ks)
    assert np.abs(fwd.upper - bwd.upper).max() < 1e-12
    assert np.abs(fwd.lower - bwd.lower).max() < 1e-12


def test_reciprocal_bands_even_in_k_on_every_row():
    # the default grid holds both light lines k = +/-k0; their nudges must mirror
    vc = validate(ChainConfig(n_atoms=205, lattice_const=0.125, mixing_angle=0.0))
    ks = default_k_grid(vc, 1024)
    bands = bloch_bands(vc, ks)
    # row j sits at -k of row 1022 - j; the last row, k = pi/a, is its own mirror
    assert np.abs(ks[:-1] + ks[-2::-1]).max() < 1e-12
    for lam in (bands.upper, bands.lower):
        assert np.abs(lam[:-1] - lam[-2::-1]).max() < 1e-9
        assert lam.imag.max() < 1e-12


@pytest.mark.parametrize("name", ["directional", "reciprocal"])
def test_bloch_bands_match_looped_reference(name):
    vc = validate(read_config(CONFIG_DIR / f"{name}.cfg")[0])
    ks = default_k_grid(vc, 1024)
    bands = bloch_bands(vc, ks)
    lam, weight_plus, nudges = looped_bloch_bands(vc, ks)
    if vc.reciprocal:
        # the grid holds both light lines k = +/-k0, one nudge per polarization each
        assert nudges == 4
    assert np.array_equal(bands.k_grid, ks)
    assert np.abs(bands.lower - lam[:, 0]).max() < 1e-12
    assert np.abs(bands.upper - lam[:, 1]).max() < 1e-12
    assert np.abs(bands.polarization_weight_upper - weight_plus[:, 1]).max() < 1e-12


def test_bloch_bands_fold_warning(dir24):
    with pytest.warns(UserWarning, match="folded"):
        bloch_bands(dir24, np.array([2.5 * np.pi / dir24.lattice_const]))


def test_bloch_bands_light_line_nudge(dir24):
    # place a shifted momentum exactly on the light line; must not raise
    k = 2 * np.pi + dir24.control_wavevector_abs
    bands = bloch_bands(dir24, np.array([k]))
    assert np.isfinite(bands.upper[0]) and np.isfinite(bands.lower[0])


def test_transparency_window_regression():
    vc = validate(ChainConfig(n_atoms=205, lattice_const=0.125, mixing_angle=np.pi / 4))
    assert transparency_window(vc) == pytest.approx(2.448866, abs=1e-4)


def test_guided_group_velocity_positive():
    vc = validate(ChainConfig(n_atoms=205, lattice_const=0.125, mixing_angle=0.0))
    speed = guided_group_velocity(vc)
    assert np.isfinite(speed) and speed > 0.1


def test_finite_chain_modes_land_on_bloch_bands():
    # guided eigenmodes of the finite chain sit on the infinite-chain bands
    vc = validate(ChainConfig(n_atoms=205, lattice_const=0.125, mixing_angle=0.0))
    h = assemble(vc, build_couplings(vc)).matrix
    vals, vecs = np.linalg.eig(h)
    ks = default_k_grid(vc, vc.n_atoms)
    bands = bloch_bands(vc, ks)
    zs = np.arange(vc.n_atoms) * vc.lattice_const
    kernel = np.exp(-1j * np.outer(ks, zs))
    errors = []
    for idx in np.where(-2 * vals.imag < 1e-3)[0]:
        vec = vecs[:, idx]
        for off in (0, 1):
            comp = vec[off::2]
            if np.linalg.norm(comp) < 0.5:
                continue
            peak = np.argmax(np.abs(kernel @ comp) ** 2)
            errors.append(
                min(
                    abs(vals[idx].real - bands.lower[peak].real),
                    abs(vals[idx].real - bands.upper[peak].real),
                )
            )
    errors = np.array(errors)
    assert errors.size > 50
    assert np.median(errors) < 0.02
    assert errors.max() < 0.05
