from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

from atomchain.chain_model import (
    DIPOLES,
    GAMMA0,
    K0,
    ChainConfig,
    positions,
    validate,
)
from atomchain import dynamics
from atomchain.collective_couplings import build_couplings
from atomchain.hamiltonian import NonHermitianHamiltonian, assemble, disorder_sample
from atomchain.scattering import detector_rows
from atomchain.dynamics import (
    ExcitationState,
    Propagator,
    TaylorPropagator,
    far_field_intensity,
    far_field_ring,
    far_field_rows,
    launch_site,
    mirror_ratio_flip,
    mirror_state,
    momentum_distribution,
    populations,
    propagate_to,
    site_participation,
    spin_wave,
)


@pytest.fixture(scope="module")
def dir24_prop(dir24, dir24_couplings):
    return Propagator(assemble(dir24, dir24_couplings))


@pytest.fixture(scope="module")
def rec24_prop(rec24, rec24_couplings):
    return Propagator(assemble(rec24, rec24_couplings))


def test_spin_wave_normalization(dir24):
    state = spin_wave(dir24, n0=12, width_sq=6.0, excited_fraction=0.2)
    assert state.norm == pytest.approx(0.2, abs=1e-14)
    assert state.time == 0.0
    # only the minus branch is populated at launch
    assert np.all(state.amps[0::2] == 0.0)


def test_spin_wave_zero_fraction_all_zero(dir24):
    state = spin_wave(dir24, n0=12, width_sq=6.0, excited_fraction=0.0)
    assert np.all(state.amps == 0.0)
    assert state.norm == 0.0


def test_spin_wave_default_launch_site(dir24):
    # site 100 does not exist on a 24-atom chain; the default is its middle
    assert launch_site(dir24) == 12
    assert np.array_equal(spin_wave(dir24).amps, spin_wave(dir24, n0=12).amps)


def test_spin_wave_errors(dir24):
    with pytest.raises(ValueError):
        spin_wave(dir24, n0=12, width_sq=0.0)
    with pytest.raises(ValueError, match="width_sq"):
        spin_wave(dir24, n0=12, width_sq=float("nan"))
    with pytest.raises(ValueError):
        spin_wave(dir24, n0=12, width_sq=6.0, excited_fraction=1.5)
    with pytest.raises(ValueError):
        spin_wave(dir24, n0=99, width_sq=6.0)


def test_single_atom_exponential_decay():
    vc = validate(ChainConfig(n_atoms=1, lattice_const=0.125))
    prop = Propagator(assemble(vc, build_couplings(vc)))
    state = spin_wave(vc, n0=0, width_sq=4.0, excited_fraction=0.3)
    for t in (0.5, 1.0, 5.0, 13.0):
        assert propagate_to(state, prop, t).norm == pytest.approx(
            0.3 * np.exp(-GAMMA0 * t), abs=1e-10
        )


def test_propagation_composes(dir24, dir24_prop):
    state = spin_wave(dir24, n0=12, width_sq=6.0)
    direct = propagate_to(state, dir24_prop, 8.0)
    half = propagate_to(state, dir24_prop, 4.0)
    composed = propagate_to(half, dir24_prop, 8.0)
    assert np.linalg.norm(composed.amps - direct.amps) < 1e-9
    assert composed.time == direct.time == 8.0


def test_propagation_rejects_backwards(dir24, dir24_prop):
    state = propagate_to(spin_wave(dir24, n0=12, width_sq=6.0), dir24_prop, 2.0)
    with pytest.raises(ValueError):
        propagate_to(state, dir24_prop, 1.0)


def test_norm_never_increases(dir24, dir24_prop):
    state = spin_wave(dir24, n0=12, width_sq=6.0)
    norms = [propagate_to(state, dir24_prop, t).norm for t in np.linspace(0.0, 12.0, 25)]
    assert np.all(np.diff(norms) <= 1e-12)


def test_norm_loss_rate_matches_decay_expectation(dir24, dir24_couplings, dir24_prop):
    state = propagate_to(spin_wave(dir24, n0=12, width_sq=6.0), dir24_prop, 3.0)
    expected = -float(np.real(state.amps.conj() @ (dir24_couplings.decay @ state.amps)))
    dt = 1e-5
    init = spin_wave(dir24, n0=12, width_sq=6.0)
    fd = (
        propagate_to(init, dir24_prop, 3.0 + dt).norm
        - propagate_to(init, dir24_prop, 3.0 - dt).norm
    ) / (2 * dt)
    assert abs(fd - expected) / abs(expected) < 1e-4


def test_populations_split(dir24):
    state = spin_wave(dir24, n0=12, width_sq=6.0)
    p_plus, p_minus = populations(state)
    assert p_plus.shape == p_minus.shape == (24,)
    assert p_plus.sum() == pytest.approx(0.0, abs=1e-15)
    assert p_minus.sum() == pytest.approx(0.2, abs=1e-13)


def test_site_participation_uniform_state(dir24):
    amps = np.zeros(48, dtype=complex)
    amps[1::2] = 1.0 / np.sqrt(24)
    state = ExcitationState(amps=amps, time=0.0)
    ipr, participation = site_participation(state)
    assert participation == pytest.approx(24.0, rel=1e-12)
    assert ipr == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_ipr_of_tiny_amplitudes_is_exact(dir24, dir24_prop):
    state = propagate_to(spin_wave(dir24, n0=12, width_sq=6.0), dir24_prop, 3.0)
    # at 2^-600 every |c|^2 underflows to zero; a power-of-two scale is exact,
    # so both IPRs must come out bit for bit as at full scale
    tiny = replace(state, amps=np.ldexp(state.amps.view(float), -600).view(complex))
    assert tiny.norm == 0.0
    assert site_participation(tiny) == site_participation(state)
    k_ipr = momentum_distribution(state, dir24).ipr_minus
    assert momentum_distribution(tiny, dir24).ipr_minus == k_ipr


def test_momentum_parseval(dir24, dir24_prop):
    state = propagate_to(spin_wave(dir24, n0=12, width_sq=6.0), dir24_prop, 2.0)
    mom = momentum_distribution(state, dir24)
    p_plus, p_minus = populations(state)
    assert mom.p_plus.sum() / dir24.n_atoms == pytest.approx(p_plus.sum(), rel=1e-12)
    assert mom.p_minus.sum() / dir24.n_atoms == pytest.approx(p_minus.sum(), rel=1e-12)


def test_momentum_carrier_shift_is_exact_fourier_shift():
    vc = validate(ChainConfig(n_atoms=20, lattice_const=0.125, mixing_angle=np.pi / 4))
    base = momentum_distribution(spin_wave(vc, n0=10, width_sq=4.0), vc)
    shifted = momentum_distribution(
        spin_wave(vc, n0=10, width_sq=4.0, k_carrier=np.pi / (2 * vc.lattice_const)), vc
    )
    # pi/2a is exactly five grid steps of the 20-point chain grid
    assert np.allclose(np.roll(base.p_minus, 5), shifted.p_minus, atol=1e-12)
    assert np.argmax(shifted.p_minus) - np.argmax(base.p_minus) == 5


def test_mirror_state_involution(dir24):
    state = spin_wave(dir24, n0=9, width_sq=6.0)
    twice = mirror_state(mirror_state(state))
    assert np.array_equal(twice.amps, state.amps)
    assert mirror_state(state).norm == pytest.approx(state.norm, abs=1e-15)


JORDAN = np.array([[-0.5j, 1.0], [0.0, -0.5j]])


@pytest.mark.parametrize(
    "matrix",
    [
        JORDAN,  # a Jordan block: V is numerically singular (cond ~ 1e16)
        np.eye(3, k=1, dtype=complex),  # nilpotent: V is exactly singular, inv raises
        np.array([[1.0, 1e300], [0.0, 1.0]], dtype=complex),  # ||V||_1 ||V^-1||_1 is NaN
    ],
)
def test_propagator_raises_for_ill_conditioned_eigenvectors(matrix):
    with pytest.raises(np.linalg.LinAlgError, match="condition number"):
        Propagator(NonHermitianHamiltonian(matrix=matrix))


def test_decision_keeps_the_taylor_series_for_a_defective_h():
    # the Jordan block is a valid one-site chain H: -i/2 on both
    # polarizations and a one-way Raman coupling; past N^2 / 200 = 0.005
    # steps the decision tries Propagator, which raises, and keeps Taylor
    h = NonHermitianHamiltonian(matrix=JORDAN)
    taylor = TaylorPropagator.from_hamiltonian(h)
    amps = np.array([0.3, 0.8j])
    state = ExcitationState(amps=amps, time=0.0)
    for t in (0.5, 2.0):
        steps = taylor.steps(t)
        assert not dynamics.taylor_pays(steps, 1)
        assert dynamics.choose_propagator(taylor, steps, lambda: h) is taylor
        got = propagate_to(state, taylor, t).amps
        # closed form for the Jordan block: exp(-t/2) (1 - i t N)
        closed = np.exp(-0.5 * t) * np.array([[1.0, -1.0j * t], [0.0, 1.0]]) @ amps
        for want in (closed, expm(-1.0j * JORDAN * t) @ amps):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_mirror_covariance_dichotomy(rec24, dir24, rec24_prop, dir24_prop):
    for vc, prop, limit, should_pass in (
        (rec24, rec24_prop, 1e-9, True),
        (dir24, dir24_prop, 1e-3, False),
    ):
        state = spin_wave(vc, n0=12, width_sq=6.0)
        evolved_mirror = propagate_to(mirror_state(state), prop, 3.0)
        mirrored_evolved = mirror_state(propagate_to(state, prop, 3.0))
        pa = np.add(*populations(evolved_mirror))
        pb = np.add(*populations(mirrored_evolved))
        rel = float(np.abs(pa - pb).max() / pa.max())
        assert (rel < limit) == should_pass


def test_mirror_ratio_flip_dichotomy(rec24, dir24, rec24_prop, dir24_prop):
    rec_state = spin_wave(rec24, n0=12, width_sq=6.0)
    dir_state = spin_wave(dir24, n0=12, width_sq=6.0)
    rec_evolved = propagate_to(rec_state, rec24_prop, 3.0)
    dir_evolved = propagate_to(dir_state, dir24_prop, 3.0)
    assert mirror_ratio_flip(rec_state, rec_evolved, rec24_prop, rec24) < 1e-9
    assert mirror_ratio_flip(dir_state, dir_evolved, dir24_prop, dir24) > 0.05


def test_far_field_single_atom_pattern_and_peak_normalization():
    vc = validate(ChainConfig(n_atoms=1, lattice_const=0.125))
    amps = np.array([0.6, 0.0], dtype=complex)  # plus branch, |c|^2 = 0.36
    state = ExcitationState(amps=amps, time=0.0)
    radius = 400.0
    thetas = np.linspace(0.0, np.pi, 9)
    points = np.stack(
        [radius * np.sin(thetas), np.zeros_like(thetas), radius * np.cos(thetas)], axis=1
    )
    intensity = far_field_intensity(state, points, vc)
    expected = 0.36 * (1 + np.cos(thetas) ** 2) / 2
    assert np.abs(intensity - expected).max() < 1e-12


def test_far_field_rejects_near_zone_and_bad_shape(dir24):
    state = spin_wave(dir24, n0=12, width_sq=6.0)
    with pytest.raises(ValueError, match="chain"):
        far_field_intensity(state, np.array([[0.0, 0.0, 0.5]]), dir24)
    with pytest.raises(ValueError):
        far_field_intensity(state, np.zeros((4, 2)), dir24)
    with pytest.raises(ValueError, match="chain"):
        far_field_rows(np.array([[0.0, 0.0, 0.5]]), dir24)


def test_far_field_ring_geometry(dir24):
    ring = far_field_ring(dir24, n_angles=36)
    assert ring.shape == (36, 3)
    assert np.allclose(ring[:, 1], 0.0)
    length = (dir24.n_atoms - 1) * dir24.lattice_const
    center = np.array([0.0, 0.0, length / 2])
    radii = np.linalg.norm(ring - center, axis=1)
    assert np.allclose(radii, radii[0], rtol=1e-12)
    assert radii[0] >= 50.0 * max(length, 1.0)


def test_edge_probes_positions(dir24, dir24_prop, monkeypatch):
    # mirror_ratio_flip reads both launches at two on-axis probes 20 wavelengths past the ends
    seen = []

    def recording(state, points, vc):
        seen.append(points)
        return far_field_intensity(state, points, vc)

    monkeypatch.setattr(dynamics, "far_field_intensity", recording)
    state = spin_wave(dir24)
    mirror_ratio_flip(state, propagate_to(state, dir24_prop, 2.0), dir24_prop, dir24)
    length = (dir24.n_atoms - 1) * dir24.lattice_const
    assert len(seen) == 2
    for probes in seen:
        assert np.allclose(probes, [[0, 0, -20.0], [0, 0, length + 20.0]])


def test_detector_grid_weights(dir24):
    _, weights = detector_rows(dir24)
    # two polarization rows per node share its weight
    assert np.array_equal(weights[0::2], weights[1::2])
    assert weights[0::2].sum() == pytest.approx(4 * np.pi, rel=1e-12)


def test_single_atom_detector_integral_recovers_linewidth():
    vc = validate(ChainConfig(n_atoms=1, lattice_const=0.125))
    state = spin_wave(vc, n0=0, width_sq=4.0, excited_fraction=0.5)
    rows, weights = detector_rows(vc)
    rate = float(weights @ np.abs(rows @ state.amps) ** 2)
    assert rate / state.norm == pytest.approx(GAMMA0, abs=1e-6)


def test_flux_conservation_matches_norm_loss(dir24, dir24_couplings, dir24_prop):
    state = propagate_to(spin_wave(dir24, n0=12, width_sq=6.0), dir24_prop, 2.0)
    rows, weights = detector_rows(dir24)
    flux = float(weights @ np.abs(rows @ state.amps) ** 2)
    expected = float(np.real(state.amps.conj() @ (dir24_couplings.decay @ state.amps)))
    assert abs(flux - expected) / expected < 1e-4


def looped_detector_rows(cos_polar, azimuths, vc):
    """Reference rows: one direction, polarization and atom branch at a time."""
    zs = np.arange(vc.n_atoms) * vc.lattice_const
    rows = []
    for x in cos_polar:
        sin_th = np.sqrt(1.0 - x * x)
        phase = np.exp(-1.0j * K0 * x * zs)
        for phi in azimuths:
            cp, sp = np.cos(phi), np.sin(phi)
            for pol_vec in (np.array([x * cp, x * sp, -sin_th]), np.array([-sp, cp, 0.0])):
                row = np.zeros(2 * vc.n_atoms, dtype=complex)
                for col, d in enumerate(DIPOLES):
                    amp0 = np.sqrt(3.0 * GAMMA0 / (8.0 * np.pi))
                    row[col::2] = amp0 * (pol_vec @ d) * phase
                rows.append(np.conj(row))
    return np.array(rows)


def test_detector_rows_match_looped_reference(dir24):
    # the documented grid: 128 Gauss-Legendre polar nodes x 8 trapezoid azimuths
    cos_polar, polar_weights = leggauss(128)
    azimuths = 2.0 * np.pi * np.arange(8) / 8
    rows, weights = detector_rows(dir24)
    assert np.abs(rows - looped_detector_rows(cos_polar, azimuths, dir24)).max() < 1e-15
    assert np.array_equal(weights, np.repeat(polar_weights * (2.0 * np.pi / 8), 16))


# --------------------------------------------------------------------------
# Taylor propagation through the polarization blocks, against dense oracles.


@lru_cache(maxsize=None)
def _chain(n_atoms, mixing_angle):
    vc = validate(ChainConfig(n_atoms=n_atoms, lattice_const=0.125, mixing_angle=mixing_angle))
    couplings = build_couplings(vc)
    return vc, couplings, TaylorPropagator.from_hamiltonian(assemble(vc, couplings))


def _draw(vc, w):
    return disorder_sample(np.random.SeedSequence(7, spawn_key=(vc.n_atoms,)), w, vc.n_atoms)


def _relative(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("t", [0.5, 13.0])
@pytest.mark.parametrize("w", [0.0, 1.0])
@pytest.mark.parametrize("mixing_angle", [0.0, np.pi / 4])
@pytest.mark.parametrize("n_atoms", [24, 205])
def test_taylor_matches_expm_and_propagator(n_atoms, mixing_angle, w, t):
    vc, couplings, blocks = _chain(n_atoms, mixing_angle)
    draw = _draw(vc, w)
    h = assemble(vc, couplings, draw)
    amps = spin_wave(vc).amps
    got = blocks.with_onsite(draw.energies).apply(amps, t)
    assert _relative(got, expm(-1.0j * h.matrix * t) @ amps) <= 1e-12
    assert _relative(got, Propagator(h).apply(amps, t)) <= 1e-12


def test_taylor_at_time_zero_is_the_initial_state(dir24):
    _, _, blocks = _chain(24, np.pi / 4)
    amps = spin_wave(dir24).amps
    got = blocks.apply(amps, 0.0)
    assert blocks.steps(0.0) == 0
    assert got.tobytes() == amps.tobytes() and got is not amps
    with pytest.raises(ValueError, match="forward"):
        blocks.apply(amps, -1.0)


@pytest.mark.parametrize("n_atoms", [24, 205])
def test_block_product_and_norm_match_assembled_h(n_atoms):
    vc, couplings, blocks = _chain(n_atoms, np.pi / 4)
    draw = _draw(vc, 1.0)
    h = assemble(vc, couplings, draw).matrix
    prop = blocks.with_onsite(draw.energies)
    mu, shifted, norm = prop._shift()
    assert mu == pytest.approx(np.trace(h) / h.shape[0], rel=1e-15)
    dense = h - mu * np.eye(h.shape[0])
    rng = np.random.default_rng(1)
    b = rng.standard_normal(h.shape[0]) + 1.0j * rng.standard_normal(h.shape[0])
    got = prop._product(b.reshape(-1, 2), shifted).reshape(-1)
    assert _relative(got, dense @ b) <= 1e-15
    # the block bound covers the 2-norm, and loosely: measured 1.20-1.22 times it at W = 1
    exact = np.linalg.norm(dense, 2)
    assert exact <= norm <= 1.3 * exact
    # Al-Mohy & Higham's step count for m = 55: s = ceil(t bound / 9.9)
    for t in (0.5, 13.0, 26.0):
        assert prop.steps(t) == np.ceil(t * norm / 9.9)
    with pytest.raises(ValueError, match="sites"):
        blocks.with_onsite(np.zeros(n_atoms + 1))


@pytest.mark.parametrize("w", [0.0, 1.0, 25.0])
@pytest.mark.parametrize("drive", [1.0, 10.0])
@pytest.mark.parametrize("mixing_angle", [0.0, np.pi / 4, np.pi / 2])
def test_block_bound_covers_the_dense_two_norm(mixing_angle, drive, w):
    # a strong drive scales the on-site splitting and the Raman coupling of every block
    vc = validate(
        ChainConfig(
            n_atoms=24,
            lattice_const=0.125,
            mixing_angle=mixing_angle,
            delta_shift=drive * 10.0 / 3.0,
        )
    )
    couplings = build_couplings(vc)
    blocks = TaylorPropagator.from_hamiltonian(assemble(vc, couplings))
    for seed in range(20):
        draw = disorder_sample(np.random.SeedSequence(seed), w, vc.n_atoms)
        mu, _, bound = blocks.with_onsite(draw.energies)._shift()
        dense = assemble(vc, couplings, draw).matrix - mu * np.eye(2 * vc.n_atoms)
        assert bound >= np.linalg.norm(dense, 2), seed


@pytest.mark.parametrize("t", [13.0, 26.0])
@pytest.mark.parametrize("w", [0.0, 1.0])
@pytest.mark.parametrize("n_atoms", [24, 205])
def test_two_norm_steps_match_the_one_norm_path(n_atoms, w, t, one_norm_taylor):
    # fewer steps (about half at N = 205), and the same state to rounding
    # (measured <= 6.8e-14 relative): the step size moves only where the series is cut
    vc, _, blocks = _chain(n_atoms, np.pi / 4)
    prop = blocks.with_onsite(_draw(vc, w).energies)
    oracle = one_norm_taylor(**vars(prop))
    assert prop.steps(t) < oracle.steps(t)
    amps = spin_wave(vc).amps
    assert _relative(prop.apply(amps, t), oracle.apply(amps, t)) <= 1e-12


# --------------------------------------------------------------------------
# One-pass far field and momentum transform, against the looped references.

def looped_far_field(state, points, vc):
    """Reference intensity: one polarization at a time, each with its own pattern."""
    sep = points[:, None, :] - np.stack(
        [np.zeros(vc.n_atoms), np.zeros(vc.n_atoms), positions(vc)], axis=1
    )
    dist = np.linalg.norm(sep, axis=2)
    rhat = sep / dist[..., None]
    node_r = np.linalg.norm(points, axis=1)
    field = np.zeros((points.shape[0], 3), dtype=complex)
    for col, d in enumerate(DIPOLES):
        pattern = d[None, None, :] - rhat * (rhat @ d)[..., None]
        envelope = np.exp(1.0j * K0 * dist) * (node_r[:, None] / dist)
        field += np.einsum("mn,mnc->mc", state.amps[col::2][None, :] * envelope, pattern)
    return np.sum(np.abs(field) ** 2, axis=1)


def dft_momentum(state, vc):
    """Reference transform: the explicit N x N kernel exp(-i k_j z_n)."""
    n = vc.n_atoms
    zs = positions(vc)
    ks = -np.pi / vc.lattice_const + 2.0 * np.pi * np.arange(n) / (n * vc.lattice_const)
    kernel = np.exp(-1.0j * np.outer(ks, zs))
    kc = vc.control_wavevector_abs
    psi_plus = kernel @ (np.exp(+1.0j * kc * zs) * state.amps[0::2])
    psi_minus = kernel @ (np.exp(-1.0j * kc * zs) * state.amps[1::2])
    return ks, np.abs(psi_plus) ** 2, np.abs(psi_minus) ** 2


def _max_relative(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max() if np.any(ref) else np.abs(got).max()


@pytest.mark.parametrize("mixing_angle", [0.0, np.pi / 4])
@pytest.mark.parametrize("n_atoms", [24, 205])
def test_far_field_and_momentum_match_references(n_atoms, mixing_angle):
    vc, _, blocks = _chain(n_atoms, mixing_angle)
    state = spin_wave(vc)
    state = replace(state, amps=blocks.apply(state.amps, 6.5), time=6.5)
    assert np.any(state.amps[0::2]) == (mixing_angle != 0.0)
    length = (vc.n_atoms - 1) * vc.lattice_const
    edge_probes = np.array([[0.0, 0.0, -20.0], [0.0, 0.0, length + 20.0]])
    for points in (far_field_ring(vc), edge_probes):
        got = far_field_intensity(state, points, vc)
        assert _max_relative(got, looped_far_field(state, points, vc)) <= 1e-13
    mom = momentum_distribution(state, vc)
    ks, p_plus, p_minus = dft_momentum(state, vc)
    assert mom.k_grid.tobytes() == ks.tobytes()
    assert _max_relative(mom.p_plus, p_plus) <= 1e-13
    assert _max_relative(mom.p_minus, p_minus) <= 1e-13
    reference_ipr = np.sum(p_minus**2) / np.sum(p_minus) ** 2
    assert mom.ipr_minus == pytest.approx(reference_ipr, rel=1e-13)



def per_call_far_field(state, points, vc):
    """Field at each node as far_field_intensity formed it per call before far_field_rows.

    One dipole per site, D_n = c_n+ d_+ + c_n- d_-, one envelope per (node,
    site), then one transverse projection.
    """
    atom_xyz = np.zeros((vc.n_atoms, 3))
    atom_xyz[:, 2] = positions(vc)
    sep = points[:, None, :] - atom_xyz[None, :, :]
    dist = np.linalg.norm(sep, axis=2)
    rhat = sep / dist[..., None]
    node_r = np.linalg.norm(points, axis=1)
    dipoles = state.amps.reshape(-1, 2) @ DIPOLES
    envelope = np.exp(1.0j * K0 * dist) * (node_r[:, None] / dist)
    proj = np.einsum("mnc,nc->mn", rhat, dipoles)
    return envelope @ dipoles - np.einsum("mn,mnc->mc", envelope * proj, rhat)


@pytest.mark.parametrize("mixing_angle", [0.0, np.pi / 4])
@pytest.mark.parametrize("n_atoms", [24, 205])
def test_far_field_rows_match_the_per_call_formula(n_atoms, mixing_angle):
    vc, _, blocks = _chain(n_atoms, mixing_angle)
    state0 = spin_wave(vc)
    states = [replace(state0, amps=blocks.apply(state0.amps, t), time=t) for t in (0.0, 2.0, 6.5)]
    length = (vc.n_atoms - 1) * vc.lattice_const
    edge_probes = np.array([[0.0, 0.0, -20.0], [0.0, 0.0, length + 20.0]])
    for points in (far_field_ring(vc), edge_probes):
        rows = far_field_rows(points, vc)
        assert rows.shape == (points.shape[0], 3, 2 * vc.n_atoms)
        # every state's field from the one row matrix, as evolve forms its snapshots
        fields = rows @ np.stack([s.amps for s in states], axis=1)
        for i, state in enumerate(states):
            want = per_call_far_field(state, points, vc)
            assert _max_relative(fields[..., i], want) <= 1e-13
            intensity = far_field_intensity(state, points, vc)
            assert _max_relative(intensity, np.sum(np.abs(want) ** 2, axis=1)) <= 1e-13
