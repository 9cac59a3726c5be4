"""Photon scattering on the chain: t matrix, S matrix, transmittance scans.

The elastic amplitude between input and output channels attached to the
collective decay operator is

    t(E) = sqrt(gamma) (E - H)^{-1} sqrt(gamma),      S(E) = 1 - i t(E)

with H the full non-Hermitian effective Hamiltonian and sqrt(gamma) the
Hermitian square root of its decay part.  For real E and a Hermitian
coherent part, S is exactly unitary; the numerical defect is reported with
every scan as a self-check.

The resolvent column block is obtained from one LU factorization per energy
reused across all right-hand sides, followed by a single iterative
refinement step.  The residual after refinement guards against energies
that land too close to a long-lived resonance for double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.ndimage import uniform_filter1d

from .chain_model import GAMMA0, ChainConfig, flatten_index
from .collective_couplings import CouplingMatrices
from .dynamics import detector_grid, detector_rows
from .hamiltonian import drive_hamiltonian
from .spectrum import NormalModes, decay_modes

_RESIDUAL_LIMIT = 1e-6


class ResolventSingularity(ArithmeticError):
    """Linear solve at this energy is too ill conditioned to trust."""


def gamma_sqrt(modes: NormalModes) -> np.ndarray:
    """Hermitian PSD square root of the decay matrix from its eigensystem."""
    v = modes.vectors
    return (v * np.sqrt(modes.rates)) @ v.conj().T


def t_matrix(energy: float, h: np.ndarray, gamma_half: np.ndarray) -> np.ndarray:
    """Full scattering t matrix at one (real) energy; h is the matrix of H.

    Never forms a dense inverse: one LU factorization of E - H is reused
    for every column of sqrt(gamma), then refined once.
    """
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
    t = t_matrix(energy, h, gamma_half)
    s = np.eye(t.shape[0], dtype=complex) - 1j * t
    defect = np.linalg.norm(s.conj().T @ s - np.eye(s.shape[0]))
    return SMatrixResult(energy=energy, matrix=s, unitarity_defect=float(defect))


def transmittance(s: SMatrixResult, source_site: int, target_site: int) -> float:
    """Polarization-summed channel weight from source_site to target_site.

    Sums |S|^2 over both input and both output internal states, so the
    diagonal (source == target) tends to 2 far off resonance.
    """
    rows = [flatten_index(target_site, p) for p in (+1, -1)]
    cols = [flatten_index(source_site, p) for p in (+1, -1)]
    block = s.matrix[np.ix_(rows, cols)]
    return float(np.sum(np.abs(block) ** 2))


@dataclass
class SpectrumScan:
    energies: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    forward_smoothed: np.ndarray
    backward_smoothed: np.ndarray
    unitarity_defect: np.ndarray
    source_site: int
    target_site: int


def _boxcar(values: np.ndarray, window_samples: int) -> np.ndarray:
    if window_samples <= 1:
        return values.copy()
    return uniform_filter1d(values, size=window_samples, mode="nearest")


def spectrum_scan(
    h: np.ndarray,
    gamma_half: np.ndarray,
    energies: np.ndarray,
    source_site: int,
    target_site: int,
    smoothing_window: float | None = 0.05 * GAMMA0,
) -> SpectrumScan:
    """Transmittance in both directions over an energy grid.

    smoothing_window is an energy width; it is converted to a boxcar over
    grid samples (None or 0 disables smoothing).
    """
    energies = np.asarray(energies, dtype=float)
    forward = np.empty_like(energies)
    backward = np.empty_like(energies)
    defect = np.empty_like(energies)
    for i, energy in enumerate(energies):
        result = s_matrix(energy, h, gamma_half)
        forward[i] = transmittance(result, source_site, target_site)
        backward[i] = transmittance(result, target_site, source_site)
        defect[i] = result.unitarity_defect
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
        source_site=source_site,
        target_site=target_site,
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

    grid = detector_grid(vc, n_polar=n_polar, n_azimuth=n_azimuth)
    rows, weights = detector_rows(grid, vc)
    detector = rows.conj().T @ (weights[:, None] * rows)
    detector_defect = float(np.max(np.abs(detector - decay)) / scale)
    return EquivalenceReport(
        normal_mode_defect=normal_mode_defect,
        detector_defect=detector_defect,
        n_detector_nodes=grid.n_nodes,
    )
