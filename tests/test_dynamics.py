import numpy as np
import pytest
from scipy.linalg import expm

from atomchain.chain_model import DIPOLE_VECTORS, GAMMA0, K0, ChainConfig, Polarization, validate
from atomchain.collective_couplings import build_couplings
from atomchain.hamiltonian import NonHermitianHamiltonian, assemble
from atomchain.dynamics import (
    ExcitationState,
    Propagator,
    detection_probability,
    detector_grid,
    detector_rows,
    edge_probes,
    evolve,
    far_field_intensity,
    far_field_ring,
    mirror_ratio_flip,
    mirror_state,
    momentum_distribution,
    populations,
    propagate_to,
    site_participation,
    spin_wave,
    total_detection_rate,
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
    assert state.ground_amp == pytest.approx(np.sqrt(0.8), abs=1e-14)
    assert state.time == 0.0
    # only the minus branch is populated at launch
    assert np.all(state.amps[0::2] == 0.0)


def test_spin_wave_zero_fraction_all_zero(dir24):
    state = spin_wave(dir24, n0=12, width_sq=6.0, excited_fraction=0.0)
    assert np.all(state.amps == 0.0)
    assert state.norm == 0.0


def test_spin_wave_errors(dir24):
    with pytest.raises(ValueError):
        spin_wave(dir24, n0=12, width_sq=0.0)
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


def test_evolve_returns_snapshots(dir24, dir24_prop):
    state = spin_wave(dir24, n0=12, width_sq=6.0)
    snaps = evolve(state, dir24_prop, 6.0, n_snapshots=4)
    assert len(snaps) == 4
    assert snaps[-1].time == 6.0
    assert snaps[0].norm >= snaps[-1].norm


def test_populations_split(dir24):
    state = spin_wave(dir24, n0=12, width_sq=6.0)
    p_plus, p_minus = populations(state)
    assert p_plus.shape == p_minus.shape == (24,)
    assert p_plus.sum() == pytest.approx(0.0, abs=1e-15)
    assert p_minus.sum() == pytest.approx(0.2, abs=1e-13)


def test_site_participation_uniform_state(dir24):
    amps = np.zeros(48, dtype=complex)
    amps[1::2] = 1.0 / np.sqrt(24)
    state = ExcitationState(ground_amp=0.0, amps=amps, time=0.0)
    ipr, participation = site_participation(state)
    assert participation == pytest.approx(24.0, rel=1e-12)
    assert ipr == pytest.approx(1.0 / 24.0, rel=1e-12)


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


def test_propagator_falls_back_to_expm_for_defective_h():
    # a Jordan block: the eigenvector matrix is numerically singular (cond ~ 1e16)
    matrix = np.array([[-0.5j, 1.0], [0.0, -0.5j]])
    with pytest.warns(UserWarning, match="condition number"):
        prop = Propagator(NonHermitianHamiltonian(matrix=matrix))
    state = ExcitationState(ground_amp=0.0, amps=np.array([0.3, 0.8j]), time=0.0)
    for t in (0.5, 2.0):
        got = propagate_to(state, prop, t).amps
        assert np.abs(got - expm(-1.0j * matrix * t) @ state.amps).max() < 1e-14
        # closed form for the Jordan block: exp(-t/2) (1 - i t N)
        closed = np.exp(-0.5 * t) * np.array([[1.0, -1.0j * t], [0.0, 1.0]]) @ state.amps
        assert np.abs(got - closed).max() < 1e-14


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
    assert mirror_ratio_flip(rec_state, rec24_prop, rec24, 3.0) < 1e-9
    assert mirror_ratio_flip(dir_state, dir24_prop, dir24, 3.0) > 0.05


def test_far_field_single_atom_pattern_and_peak_normalization():
    vc = validate(ChainConfig(n_atoms=1, lattice_const=0.125))
    amps = np.array([0.6, 0.0], dtype=complex)  # plus branch, |c|^2 = 0.36
    state = ExcitationState(ground_amp=0.8, amps=amps, time=0.0)
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


def test_far_field_ring_geometry(dir24):
    ring = far_field_ring(dir24, n_angles=36)
    assert ring.shape == (36, 3)
    assert np.allclose(ring[:, 1], 0.0)
    length = (dir24.n_atoms - 1) * dir24.lattice_const
    center = np.array([0.0, 0.0, length / 2])
    radii = np.linalg.norm(ring - center, axis=1)
    assert np.allclose(radii, radii[0], rtol=1e-12)
    assert radii[0] >= 50.0 * max(length, 1.0)


def test_edge_probes_positions(dir24):
    probes = edge_probes(dir24, standoff=20.0)
    length = (dir24.n_atoms - 1) * dir24.lattice_const
    assert np.allclose(probes[0], [0, 0, -20.0])
    assert np.allclose(probes[1], [0, 0, length + 20.0])


def test_detector_grid_weights(dir24):
    grid = detector_grid(dir24, n_polar=32, n_azimuth=8)
    assert grid.node_weights().sum() == pytest.approx(4 * np.pi, rel=1e-12)


def test_single_atom_detector_integral_recovers_linewidth():
    vc = validate(ChainConfig(n_atoms=1, lattice_const=0.125))
    state = spin_wave(vc, n0=0, width_sq=4.0, excited_fraction=0.5)
    rate = total_detection_rate(state, detector_grid(vc), vc)
    assert rate / state.norm == pytest.approx(GAMMA0, abs=1e-6)


def test_flux_conservation_matches_norm_loss(dir24, dir24_couplings, dir24_prop):
    state = propagate_to(spin_wave(dir24, n0=12, width_sq=6.0), dir24_prop, 2.0)
    flux = total_detection_rate(state, detector_grid(dir24), dir24)
    expected = float(np.real(state.amps.conj() @ (dir24_couplings.decay @ state.amps)))
    assert abs(flux - expected) / expected < 1e-4


def looped_detector_rows(grid, vc):
    """Reference rows: one direction, polarization and atom branch at a time."""
    zs = np.arange(vc.n_atoms) * vc.lattice_const
    rows = []
    for x in grid.cos_polar:
        sin_th = np.sqrt(1.0 - x * x)
        phase = np.exp(-1.0j * K0 * x * zs)
        for phi in grid.azimuths:
            cp, sp = np.cos(phi), np.sin(phi)
            for pol_vec in (np.array([x * cp, x * sp, -sin_th]), np.array([-sp, cp, 0.0])):
                row = np.zeros(2 * vc.n_atoms, dtype=complex)
                for col, s in enumerate((Polarization.PLUS, Polarization.MINUS)):
                    amp0 = np.sqrt(3.0 * GAMMA0 / (8.0 * np.pi))
                    row[col::2] = amp0 * (pol_vec @ DIPOLE_VECTORS[s]) * phase
                rows.append(np.conj(row))
    return np.array(rows)


def test_detector_rows_match_looped_reference(dir24):
    grid = detector_grid(dir24, n_polar=16, n_azimuth=6)
    rows, weights = detector_rows(grid, dir24)
    assert np.abs(rows - looped_detector_rows(grid, dir24)).max() < 1e-15
    assert np.array_equal(weights, np.repeat(grid.node_weights(), 2))
    state = spin_wave(dir24, n0=12, width_sq=6.0)
    for i in (0, 7, 101, rows.shape[0] - 1):
        node, pol_row = divmod(i, 2)
        got = detection_probability(state, grid, dir24, node, pol_row, dt=0.5)
        assert got == pytest.approx(0.5 * abs(rows[i] @ state.amps) ** 2, rel=1e-13)


def test_detection_probability_consistent_with_rows(dir24):
    state = spin_wave(dir24, n0=12, width_sq=6.0)
    grid = detector_grid(dir24, n_polar=8, n_azimuth=4)
    rows, weights = detector_rows(grid, dir24)
    total = float(weights @ np.abs(rows @ state.amps) ** 2)
    acc = 0.0
    for node in range(grid.n_nodes):
        for pol_row in (0, 1):
            acc += grid.node_weights()[node] * detection_probability(
                state, grid, dir24, node, pol_row, dt=1.0
            )
    assert acc == pytest.approx(total, rel=1e-12)
    with pytest.raises(ValueError):
        detection_probability(state, grid, dir24, grid.n_nodes + 3, 0, dt=1.0)
