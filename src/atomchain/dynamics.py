"""Time evolution, spin-wave preparation, far fields, and detection.

Evolution under the non-Hermitian Hamiltonian uses one spectral
decomposition and then evaluates snapshots diagonally, which makes
arbitrary-time protocols exact and cheap.  If the eigenvector matrix is
ill-conditioned (condition number above 1e12, which never happens for the
chains studied here but can for contrived inputs) the propagator falls back
to a dense scaling-and-squaring matrix exponential per snapshot.

Far-field conventions.  A detector at P sees each excited (site n,
polarization s) through its transverse dipole pattern with the exact
source distance R_n = |P - r_n|:

    A_ns(P) = [d_s - Rhat_n (Rhat_n . d_s)] * exp(i k0 R_n) * (|P| / R_n)

and I(P) = |sum_ns A_ns(P) c_ns|^2.  The |P|/R_n envelope normalizes out
the overall free-space falloff so that a single excited atom at the origin
has peak intensity exactly 1; relative and ratio observables are
independent of this choice.

Detection rows use the plane-wave (R -> infinity) limit instead: for a
direction Rhat and transverse polarization e in {theta_hat, phi_hat},

    J_(Rhat,e),(n,s) = sqrt(3 GAMMA0 / 8 pi) * (e . d_s) * exp(-i k0 Rhat . r_n),

with the R^2 dOmega flux normalization folded in, so that the quadrature
sum over directions and polarizations of |J amps|^2 equals the
instantaneous decay rate amps^dagger decay amps exactly.  The polar
integral uses Gauss-Legendre nodes in cos(theta) and the azimuthal one a
uniform trapezoid, which together integrate the chain's flux integrand to
machine precision at the default 128 x 8 grid for chains up to a few
hundred wavelengths long.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

from .chain_model import (
    DIPOLE_VECTORS,
    GAMMA0,
    K0,
    POLARIZATIONS,
    ChainConfig,
    Polarization,
    positions,
)
from .hamiltonian import NonHermitianHamiltonian

_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class ExcitationState:
    """Ground amplitude plus flattened excited amplitudes at one time."""

    ground_amp: complex
    amps: np.ndarray
    time: float

    @property
    def norm(self) -> float:
        """Total excited population Sum |c_ns|^2."""
        return float(np.sum(np.abs(self.amps) ** 2))


def spin_wave(
    vc: ChainConfig,
    n0: int = 100,
    width_sq: float = 60.0,
    k_carrier: float = 0.0,
    excited_fraction: float = 0.2,
) -> ExcitationState:
    """Gaussian wavepacket in the minus manifold with a running carrier.

    c_{n,-} ~ exp(i (k_carrier + k_c) z_n) * exp(-(n - n0)^2 / width_sq),
    rescaled so the total excited population is exactly excited_fraction;
    the ground amplitude carries the rest of the norm.  width_sq is the
    squared spatial width in units of lattice_const^2; k_carrier is an
    absolute quasimomentum (units 1/LAMBDA0) added on top of the drive
    wavevector that the packet inherits.
    """
    if width_sq <= 0.0:
        raise ValueError(f"width_sq must be > 0, got {width_sq!r}")
    if not 0.0 <= excited_fraction <= 1.0:
        raise ValueError(f"excited_fraction must lie in [0, 1], got {excited_fraction!r}")
    if not 0 <= n0 < vc.n_atoms:
        raise ValueError(f"n0 must lie in [0, {vc.n_atoms - 1}], got {n0!r}")
    n = vc.n_atoms
    zs = positions(vc)
    sites = np.arange(n)
    envelope = np.exp(-((sites - n0) ** 2) / width_sq)
    carrier = np.exp(1.0j * (k_carrier + vc.control_wavevector_abs) * zs)
    amps = np.zeros(2 * n, dtype=complex)
    amps[1::2] = carrier * envelope
    total = np.sum(np.abs(amps) ** 2)
    if excited_fraction > 0.0:
        amps *= np.sqrt(excited_fraction / total)
    else:
        amps[:] = 0.0
    return ExcitationState(
        ground_amp=complex(np.sqrt(1.0 - excited_fraction)), amps=amps, time=0.0
    )


class Propagator:
    """exp(-i H t) applied through the spectral decomposition of H."""

    def __init__(self, h: NonHermitianHamiltonian):
        self.matrix = h.matrix
        values, vectors = np.linalg.eig(self.matrix)
        cond = np.linalg.cond(vectors)
        if cond > _CONDITION_LIMIT:
            warnings.warn(
                f"eigenvector condition number {cond:.2e} exceeds {_CONDITION_LIMIT:.0e}; "
                "falling back to dense matrix exponentials"
            )
            self._spectral = None
        else:
            self._spectral = (values, vectors, np.linalg.inv(vectors))

    def apply(self, amps: np.ndarray, t: float) -> np.ndarray:
        if self._spectral is None:
            return expm(-1.0j * self.matrix * t) @ amps
        values, vectors, inverse = self._spectral
        return (vectors * np.exp(-1.0j * values * t)) @ (inverse @ amps)


def propagate_to(state: ExcitationState, prop: Propagator, t: float) -> ExcitationState:
    """Evolve a state to absolute time t (ground amplitude is constant)."""
    if t < state.time:
        raise ValueError(f"cannot propagate backwards: {t} < {state.time}")
    amps = prop.apply(state.amps, t - state.time)
    return replace(state, amps=amps, time=t)


def evolve(
    state: ExcitationState,
    prop: Propagator,
    t_final: float,
    n_snapshots: int = 2,
) -> list[ExcitationState]:
    """Snapshots at n_snapshots uniform times from state.time to t_final."""
    if t_final < state.time:
        raise ValueError(f"t_final {t_final} precedes state time {state.time}")
    if n_snapshots < 1:
        raise ValueError("n_snapshots must be >= 1")
    times = np.linspace(state.time, t_final, n_snapshots)
    return [propagate_to(state, prop, float(t)) for t in times]


def populations(state: ExcitationState) -> tuple[np.ndarray, np.ndarray]:
    """Per-site populations (p_plus, p_minus)."""
    p = np.abs(state.amps) ** 2
    return p[0::2], p[1::2]


def site_participation(state: ExcitationState) -> tuple[float, float]:
    """(ipr, participation) of the total site population distribution.

    ipr = Sum p^2 / (Sum p)^2; participation is its reciprocal, the
    effective number of occupied sites.  Growing ipr means localization.
    """
    p_plus, p_minus = populations(state)
    return _ipr(p_plus + p_minus)


def _ipr(p: np.ndarray) -> tuple[float, float]:
    total = p.sum()
    if total == 0.0:
        return float("nan"), float("nan")
    ipr = float(np.sum(p**2) / total**2)
    return ipr, 1.0 / ipr


def mirror_state(state: ExcitationState) -> ExcitationState:
    """Site-reversed state (site n -> N-1-n within each polarization)."""
    n = state.amps.size // 2
    amps = state.amps.reshape(n, 2)[::-1].reshape(-1).copy()
    return replace(state, amps=amps)


# --------------------------------------------------------------------------
# Momentum-space diagnostics.


@dataclass(frozen=True)
class MomentumDistribution:
    """Per-polarization |psi_s(k)|^2 on the chain's discrete k grid.

    The transform undoes the drive gauge: psi_s(k_j) =
    Sum_n exp(-i (k_j - s k_c) z_n) c_ns, so a fresh spin wave with
    k_carrier = 0 peaks at k = 0 on both conventions of the drive phase.
    ipr_* = Sum p^2 / (Sum p)^2 and participation_* = 1/ipr_* (NaN for an
    unpopulated polarization).
    """

    k_grid: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    ipr_plus: float
    ipr_minus: float
    participation_plus: float
    participation_minus: float


def momentum_distribution(state: ExcitationState, vc: ChainConfig) -> MomentumDistribution:
    n = vc.n_atoms
    zs = positions(vc)
    ks = -np.pi / vc.lattice_const + 2.0 * np.pi * np.arange(n) / (n * vc.lattice_const)
    kernel = np.exp(-1.0j * np.outer(ks, zs))
    kc = vc.control_wavevector_abs
    psi_plus = kernel @ (np.exp(+1.0j * kc * zs) * state.amps[0::2])
    psi_minus = kernel @ (np.exp(-1.0j * kc * zs) * state.amps[1::2])
    p_plus = np.abs(psi_plus) ** 2
    p_minus = np.abs(psi_minus) ** 2
    ipr_p, part_p = _ipr(p_plus)
    ipr_m, part_m = _ipr(p_minus)
    return MomentumDistribution(
        k_grid=ks,
        p_plus=p_plus,
        p_minus=p_minus,
        ipr_plus=ipr_p,
        ipr_minus=ipr_m,
        participation_plus=part_p,
        participation_minus=part_m,
    )


# --------------------------------------------------------------------------
# Far fields and detection.


def far_field_intensity(
    state: ExcitationState, grid_points: np.ndarray, vc: ChainConfig
) -> np.ndarray:
    """Scattered intensity at each 3D node, exact source distances.

    Nodes must be far from every atom; anything within one wavelength of
    the chain is rejected (the far-field form does not hold there).
    """
    pts = np.atleast_2d(np.asarray(grid_points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError(f"grid_points must have shape (M, 3), got {pts.shape}")
    zs = positions(vc)
    atom_xyz = np.zeros((vc.n_atoms, 3))
    atom_xyz[:, 2] = zs
    # (M, N, 3) separations node <- atom
    sep = pts[:, None, :] - atom_xyz[None, :, :]
    dist = np.linalg.norm(sep, axis=2)
    if np.any(dist < 1.0):
        raise ValueError("far-field node inside the chain bounding box (within 1 wavelength)")
    rhat = sep / dist[..., None]
    node_r = np.linalg.norm(pts, axis=1)
    field = np.zeros((pts.shape[0], 3), dtype=complex)
    for pol in POLARIZATIONS:
        d = DIPOLE_VECTORS[pol]
        amps = state.amps[0::2] if pol == Polarization.PLUS else state.amps[1::2]
        proj = rhat @ d  # (M, N)
        pattern = d[None, None, :] - rhat * proj[..., None]
        envelope = np.exp(1.0j * K0 * dist) * (node_r[:, None] / dist)
        field += np.einsum("mn,mnc->mc", amps[None, :] * envelope, pattern)
    return np.real(np.einsum("mc,mc->m", field.conj(), field))


def far_field_ring(
    vc: ChainConfig, n_angles: int = 360, radius_factor: float = 50.0
) -> np.ndarray:
    """Circle of map nodes in the x-z plane around the chain center.

    The radius is radius_factor times the chain length (at least 50 to
    honor the far-field form), centered on the chain midpoint.
    """
    length = (vc.n_atoms - 1) * vc.lattice_const
    radius = max(radius_factor, 50.0) * max(length, 1.0)
    center = 0.5 * length
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    pts = np.zeros((n_angles, 3))
    pts[:, 0] = radius * np.sin(angles)
    pts[:, 2] = center + radius * np.cos(angles)
    return pts


def edge_probes(vc: ChainConfig, standoff: float = 20.0) -> np.ndarray:
    """Two on-axis probe nodes just beyond the chain ends, mirror symmetric."""
    length = (vc.n_atoms - 1) * vc.lattice_const
    return np.array([[0.0, 0.0, -standoff], [0.0, 0.0, length + standoff]])


def mirror_ratio_flip(
    state: ExcitationState,
    propagator: Propagator,
    vc: ChainConfig,
    t: float,
    standoff: float = 20.0,
) -> float:
    """|log10| of the right/left emission ratio product under site reversal.

    Evolve the state and its site-reversed twin for the same duration and
    read the physical intensity at the two on-axis edge probes.  When the
    dynamics commutes with site reversal the two ratios are exact
    reciprocals and the product is 1 (return value 0 up to rounding); a
    directional chain transports the two launches toward the same side and
    the product departs from 1.  Physical intensities (including the 1/R^2
    falloff) make the probe pair comparable, so the per-point peak
    normalization of far_field_intensity is divided back out.
    """
    probes = edge_probes(vc, standoff)
    geometry = np.array(
        [standoff, (vc.n_atoms - 1) * vc.lattice_const + standoff]
    ) ** 2

    def right_left_ratio(initial: ExcitationState) -> float:
        evolved = propagate_to(initial, propagator, t)
        intensity = far_field_intensity(evolved, probes, vc) / geometry
        return float(intensity[1] / intensity[0])

    product = right_left_ratio(state) * right_left_ratio(mirror_state(state))
    return float(abs(np.log10(product)))


@dataclass(frozen=True)
class DetectorGrid:
    """Sphere-of-directions quadrature: Gauss-Legendre polar x uniform azimuth.

    weights sum to 4 pi.  The plane-wave rows have no detector distance.
    """

    cos_polar: np.ndarray
    polar_weights: np.ndarray
    azimuths: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.cos_polar.size * self.azimuths.size

    def node_weights(self) -> np.ndarray:
        w_phi = 2.0 * np.pi / self.azimuths.size
        return np.repeat(self.polar_weights * w_phi, self.azimuths.size)


def detector_grid(vc: ChainConfig, n_polar: int = 128, n_azimuth: int = 8) -> DetectorGrid:
    cos_polar, polar_weights = leggauss(n_polar)
    azimuths = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    return DetectorGrid(cos_polar=cos_polar, polar_weights=polar_weights, azimuths=azimuths)


def _jump_rows(vc: ChainConfig, cos_polar: np.ndarray, azimuths: np.ndarray) -> np.ndarray:
    """Conjugated detection rows J, one per (polar, azimuth, polarization).

    Node-major (polar outer, azimuth inner), theta_hat polarization before
    phi_hat; columns follow the flattened (site, polarization) index.
    """
    x = cos_polar[:, None]
    sin_th = np.sqrt(1.0 - x * x)
    cp, sp = np.cos(azimuths), np.sin(azimuths)
    theta_hat = np.stack(np.broadcast_arrays(x * cp, x * sp, -sin_th), axis=-1)
    phi_hat = np.stack(np.broadcast_arrays(-sp, cp, np.zeros_like(x)), axis=-1)
    dipoles = np.stack([DIPOLE_VECTORS[s] for s in POLARIZATIONS], axis=-1)
    # (polar, azimuth, polarization, source polarization)
    amp = np.sqrt(3.0 * GAMMA0 / (8.0 * np.pi)) * (np.stack([theta_hat, phi_hat], axis=2) @ dipoles)
    phase = np.exp(-1.0j * K0 * x * positions(vc))
    rows = amp[:, :, :, None, :] * phase[:, None, None, :, None]
    return np.conj(rows, out=rows).reshape(-1, 2 * vc.n_atoms)


def detector_rows(grid: DetectorGrid, vc: ChainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Jump rows (n_nodes * 2 polarizations, 2 N) and matching node weights.

    Row order: node-major (polar outer, azimuth inner), theta_hat
    polarization before phi_hat.  Rows carry sqrt of photon flux per unit
    solid angle; weights are the quadrature measure.
    """
    return _jump_rows(vc, grid.cos_polar, grid.azimuths), np.repeat(grid.node_weights(), 2)


def detection_probability(
    state: ExcitationState,
    grid: DetectorGrid,
    vc: ChainConfig,
    node: int,
    polarization: int,
    dt: float,
) -> float:
    """Probability dt * |J . amps|^2 of a click in one direction-polarization.

    `node` indexes the grid node-major (polar outer, azimuth inner);
    `polarization` is 0 for theta_hat, 1 for phi_hat.  The value is a rate
    density per unit solid angle times dt; integrating over the grid
    (node_weights) and both polarizations recovers the total decay rate.
    """
    if not 0 <= node < grid.n_nodes:
        raise ValueError(f"node index {node} out of range for {grid.n_nodes} nodes")
    if polarization not in (0, 1):
        raise ValueError(f"polarization must be 0 (theta) or 1 (phi), got {polarization!r}")
    i_polar, i_azimuth = divmod(node, grid.azimuths.size)
    row = _jump_rows(
        vc, grid.cos_polar[i_polar : i_polar + 1], grid.azimuths[i_azimuth : i_azimuth + 1]
    )[polarization]
    return float(dt * np.abs(row @ state.amps) ** 2)


def total_detection_rate(
    state: ExcitationState, grid: DetectorGrid, vc: ChainConfig
) -> float:
    """Quadrature of |J amps|^2 over all directions and polarizations."""
    rows, weights = detector_rows(grid, vc)
    return float(np.sum(weights * np.abs(rows @ state.amps) ** 2))
