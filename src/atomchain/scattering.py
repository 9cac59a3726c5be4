"""Photon scattering on the chain: t matrix, S matrix, transmittance scans.

The elastic amplitude between input and output channels attached to the
collective decay operator is

    t(E) = sqrt(gamma) (E - H)^{-1} sqrt(gamma),      S(E) = 1 - i t(E)

with H the full non-Hermitian effective Hamiltonian and sqrt(gamma) the
Hermitian square root of its decay part.  For real E and a Hermitian
coherent part, S is exactly unitary; the numerical defect is reported with
every scan as a self-check.

Scans evaluate S at many energies for one H, so SchurScattering reduces H
once to its complex Schur form H = Z T Z^dag (Z unitary, T upper
triangular) and works in decay-channel space.  The channels are the r decay
eigenvectors U whose rate decay_modes resolves above eigh's rounding (its
floor, 4 eps max(rate)); every other rate is exactly 0, so sqrt(gamma) =
U diag(sqrt(rate)) U^dag holds with U alone.  On the shipped 205-atom chains
r = 138 of 410.  Y = Z^dag U diag(sqrt(rate)) is formed once.  Each energy
then costs one triangular solve (E - T) X = Y, its residual through the
triangular product (E - T) X, and the r x r channel matrix

    S_r(E) = 1 - i Y^dag X.

Two identities make S_r all a scan needs, exactly:

    S = (1 - U U^dag) + U S_r U^dag         (endpoint blocks from rows of U)
    ||S^dag S - 1||_F = ||S_r^dag S_r - 1||_F   (the unitarity defect)

Because Z is unitary, rounding does not grow with the condition number of
H's eigenvectors, unlike a spectral resolvent.  The relative residual of
the triangular solve guards against energies that land too close to a
long-lived resonance for double precision; a failure raises, it never falls
back.  t_matrix and s_matrix keep the direct route, one LU factorization of
E - H per energy with one refinement step, as the reference that the
benchmark and the tests compare against.

scipy.linalg is imported inside the code that factorizes (schur in
SchurScattering, solve_triangular and ztrmm per energy, lu_factor and
lu_solve in t_matrix), not at module level: the CLI imports this module
for every command, and only transmit and verify run any of it.  The
smoothing boxcar is a numpy running sum that reproduces
scipy.ndimage.uniform_filter1d (mode="nearest") bit for bit, so no command
loads scipy.ndimage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_model import GAMMA0, ChainConfig, flatten_index
from .collective_couplings import CouplingMatrices
from .dynamics import detector_grid, detector_rows
from .hamiltonian import drive_hamiltonian
from .spectrum import NormalModes, decay_modes

_RESIDUAL_LIMIT = 1e-6


class ResolventSingularity(ArithmeticError):
    """Linear solve at this energy is too ill conditioned to trust."""


def gamma_sqrt(modes: NormalModes) -> np.ndarray:
    """Hermitian PSD square root of the decay matrix from its eigensystem.

    Built from the rates as decay_modes floors them, so it spans the same
    channels as SchurScattering.
    """
    v = modes.vectors
    return (v * np.sqrt(modes.rates)) @ v.conj().T


def t_matrix(energy: float, h: np.ndarray, gamma_half: np.ndarray) -> np.ndarray:
    """Full scattering t matrix at one (real) energy; h is the matrix of H.

    The LU reference for SchurScattering, kept for bench/ and the tests.
    Never forms a dense inverse: one LU factorization of E - H is reused
    for every column of sqrt(gamma), then refined once.
    """
    from scipy.linalg import lu_factor, lu_solve

    a = energy * np.eye(h.shape[0], dtype=complex) - h
    lu = lu_factor(a)
    x = lu_solve(lu, gamma_half)
    if not np.all(np.isfinite(x)):
        raise ResolventSingularity(
            f"energy {energy!r} renders the resolvent system singular"
        )
    residual = gamma_half - a @ x
    x += lu_solve(lu, residual)
    residual = gamma_half - a @ x
    rel = np.linalg.norm(residual) / np.linalg.norm(gamma_half)
    if not np.isfinite(rel) or rel > _RESIDUAL_LIMIT:
        raise ResolventSingularity(
            f"resolvent solve at energy {energy!r} left relative residual {rel:.2e}; "
            "the energy sits too close to a long-lived resonance"
        )
    return gamma_half @ x


@dataclass(frozen=True)
class SMatrixResult:
    energy: float
    matrix: np.ndarray
    unitarity_defect: float


def s_matrix(energy: float, h: np.ndarray, gamma_half: np.ndarray) -> SMatrixResult:
    """Full S matrix and its unitarity defect: the LU reference (see t_matrix)."""
    t = t_matrix(energy, h, gamma_half)
    s = np.eye(t.shape[0], dtype=complex) - 1j * t
    defect = np.linalg.norm(s.conj().T @ s - np.eye(s.shape[0]))
    return SMatrixResult(energy=energy, matrix=s, unitarity_defect=float(defect))


def _endpoint_channels(source_site: int, target_site: int) -> tuple[list[int], list[int]]:
    rows = [flatten_index(target_site, p) for p in (+1, -1)]
    cols = [flatten_index(source_site, p) for p in (+1, -1)]
    return rows, cols


def transmittance(s: SMatrixResult, source_site: int, target_site: int) -> float:
    """Polarization-summed channel weight from source_site to target_site.

    Sums |S|^2 over both input and both output internal states, so the
    diagonal (source == target) tends to 2 far off resonance.
    """
    rows, cols = _endpoint_channels(source_site, target_site)
    block = s.matrix[np.ix_(rows, cols)]
    return float(np.sum(np.abs(block) ** 2))


@dataclass(frozen=True)
class ChannelSMatrix:
    """S at one energy in decay-channel space: S = (1 - U U^dag) + U matrix U^dag.

    unitarity_defect is ||S^dag S - 1||_F, equal to that of the r x r
    matrix; residual is the relative residual of the triangular solve.
    """

    matrix: np.ndarray
    channels: np.ndarray
    unitarity_defect: float
    residual: float

    def transmittance(self, source_site: int, target_site: int) -> float:
        """Same quantity as transmittance() on the full S, from its endpoint block."""
        rows, cols = _endpoint_channels(source_site, target_site)
        u_cols = self.channels[cols].conj().T
        block = self.channels[rows] @ (self.matrix @ u_cols - u_cols)
        block += np.equal.outer(rows, cols)
        return float(np.sum(np.abs(block) ** 2))


class SchurScattering:
    """S(E) of one H at any number of energies from one Schur form of H.

    h is the matrix of H and modes its decay_modes.  Every positive rate is
    a channel, and decay_modes has already set each rate within eigh's
    rounding of zero to exactly 0, so the channels are the resolved decay
    modes only (138 of 410 on the shipped chains).  The diagonal of the
    triangular factor, `eigenvalues`, is the complex spectrum of H
    (frequency - i * halfwidth, in Schur order).
    """

    def __init__(self, h: np.ndarray, modes: NormalModes):
        from scipy.linalg import schur

        self._t, z = schur(h, output="complex")
        self.eigenvalues = np.diag(self._t)
        positive = modes.rates > 0
        self.channels = modes.vectors[:, positive]
        self._y = z.conj().T @ (self.channels * np.sqrt(modes.rates[positive]))
        self._y_norm = np.linalg.norm(self._y)

    def s_matrix(self, energy: float) -> ChannelSMatrix:
        from scipy.linalg import solve_triangular
        from scipy.linalg.blas import ztrmm

        a = -self._t
        a[np.diag_indices_from(a)] += energy
        try:
            x = solve_triangular(a, self._y)
        except np.linalg.LinAlgError as exc:
            raise ResolventSingularity(
                f"energy {energy!r} renders the resolvent system singular: {exc}"
            ) from exc
        # Y - (E - T) X by the triangular product, half the flops of a dense
        # a @ x; a non-finite x leaves a non-finite residual, which raises
        residual = ztrmm(-1.0, a, x)
        residual += self._y
        rel = np.linalg.norm(residual) / self._y_norm
        if not np.isfinite(rel) or rel > _RESIDUAL_LIMIT:
            raise ResolventSingularity(
                f"resolvent solve at energy {energy!r} left relative residual {rel:.2e}; "
                "the energy sits too close to a long-lived resonance"
            )
        s_r = np.eye(x.shape[1], dtype=complex) - 1j * (self._y.conj().T @ x)
        defect = np.linalg.norm(s_r.conj().T @ s_r - np.eye(x.shape[1]))
        return ChannelSMatrix(
            matrix=s_r,
            channels=self.channels,
            unitarity_defect=float(defect),
            residual=float(rel),
        )


@dataclass
class SpectrumScan:
    energies: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    forward_smoothed: np.ndarray
    backward_smoothed: np.ndarray
    unitarity_defect: np.ndarray
    worst_residual: float


def _boxcar(values: np.ndarray, window_samples: int) -> np.ndarray:
    # Running mean with each edge extended by its nearest value, summed in the
    # order of scipy.ndimage.uniform_filter1d(mode="nearest") so the bits
    # match: the first window left to right, then per step (entering -
    # leaving) added to the running sum, and each sum divided by the size.
    if window_samples <= 1:
        return values.copy()
    before = window_samples // 2
    padded = np.pad(values, (before, window_samples - 1 - before), mode="edge")
    steps = np.concatenate(
        (padded[:window_samples], padded[window_samples:] - padded[:-window_samples])
    )
    return np.cumsum(steps)[window_samples - 1 :] / window_samples


def spectrum_scan(
    scattering: SchurScattering,
    energies: np.ndarray,
    source_site: int,
    target_site: int,
    smoothing_window: float | None = 0.05 * GAMMA0,
) -> SpectrumScan:
    """Transmittance in both directions over an energy grid.

    worst_residual is the largest relative resolvent residual of the scan.
    smoothing_window is an energy width; it is converted to a boxcar over
    grid samples (None or 0 disables smoothing).
    """
    energies = np.asarray(energies, dtype=float)
    forward = np.empty_like(energies)
    backward = np.empty_like(energies)
    defect = np.empty_like(energies)
    worst_residual = 0.0
    for i, energy in enumerate(energies):
        result = scattering.s_matrix(float(energy))
        forward[i] = result.transmittance(source_site, target_site)
        backward[i] = result.transmittance(target_site, source_site)
        defect[i] = result.unitarity_defect
        worst_residual = max(worst_residual, result.residual)
    if smoothing_window and energies.size > 1:
        de = float(np.median(np.diff(energies)))
        samples = max(1, int(round(smoothing_window / de)))
    else:
        samples = 1
    return SpectrumScan(
        energies=energies,
        forward=forward,
        backward=backward,
        forward_smoothed=_boxcar(forward, samples),
        backward_smoothed=_boxcar(backward, samples),
        unitarity_defect=defect,
        worst_residual=worst_residual,
    )


def reciprocity_defect(vc: ChainConfig, couplings: CouplingMatrices) -> float:
    """Normalized commutator of the drive with the decay matrix.

    The photon-mediated shift and decay parts are both symmetric under
    transposition, so only the drive can break the left/right symmetry of
    transport; when it commutes with the decay matrix the S matrix is
    direction symmetric.  The converse does not hold: particular drive
    wavevectors can restore symmetric spectra while the commutator stays
    finite, so a nonzero defect is evidence of broken reciprocity in the
    generating matrices, not proof of asymmetric transmission at every
    parameter point.
    """
    drive = drive_hamiltonian(vc)
    decay = couplings.decay
    num = np.linalg.norm(drive @ decay - decay @ drive)
    den = np.linalg.norm(drive) * np.linalg.norm(decay)
    return float(num / den)


@dataclass(frozen=True)
class EquivalenceReport:
    """Max-norm defects of two independent reconstructions of the decay matrix."""

    normal_mode_defect: float
    detector_defect: float
    n_detector_nodes: int


def representation_equivalence_check(
    vc: ChainConfig,
    couplings: CouplingMatrices,
    n_polar: int = 128,
    n_azimuth: int = 8,
) -> EquivalenceReport:
    """Rebuild gamma from its eigensystem and from angular detector rows.

    The detector route integrates outgoing flux channels over the sphere
    with Gauss-Legendre polar nodes; agreement with the directly built
    matrix ties the dissipative part to physical photon emission.
    """
    decay = couplings.decay
    modes = decay_modes(couplings)
    half = gamma_sqrt(modes)
    normal_mode = half @ half
    scale = np.max(np.abs(decay))
    normal_mode_defect = float(np.max(np.abs(normal_mode - decay)) / scale)

    grid = detector_grid(n_polar=n_polar, n_azimuth=n_azimuth)
    rows, weights = detector_rows(grid, vc)
    detector = rows.conj().T @ (weights[:, None] * rows)
    detector_defect = float(np.max(np.abs(detector - decay)) / scale)
    return EquivalenceReport(
        normal_mode_defect=normal_mode_defect,
        detector_defect=detector_defect,
        n_detector_nodes=grid.n_nodes,
    )
