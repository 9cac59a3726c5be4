"""Photon scattering on the chain: t matrix, S matrix, transmittance scans,
and the detection rows behind the decay matrix.

The elastic amplitude between input and output channels attached to the
collective decay operator is

    t(E) = sqrt(gamma) (E - H)^{-1} sqrt(gamma),      S(E) = 1 - i t(E)

with H the full non-Hermitian effective Hamiltonian and sqrt(gamma) the
Hermitian square root of its decay part.  For real E and a Hermitian
coherent part, S is exactly unitary; the numerical defect is reported with
every scan as a self-check.

Scans evaluate S at many energies for one H, so both scan classes
factorize H once and work in decay-channel space.  The channels are the r
decay eigenvectors U whose rate decay_modes resolves above eigh's rounding
(its floor, 4 eps max(rate)); every other rate is exactly 0, so
sqrt(gamma) = U diag(sqrt(rate)) U^dag holds with U alone.  On the shipped
205-atom chains r = 138 of 410.  With Ybar = U diag(sqrt(rate)) the r x r
channel matrix is

    S_r(E) = 1 - i Ybar^dag (E - H)^{-1} Ybar,

and two identities make S_r all a scan needs, exactly:

    S = (1 - U U^dag) + U S_r U^dag         (endpoint blocks from rows of U)
    ||S^dag S - 1||_F = ||S_r^dag S_r - 1||_F   (the unitarity defect)

SpectralScattering reads H = V diag(lambda) V^-1 from
hamiltonian.eigensystem, the decomposition Propagator also uses, and forms
L = Ybar^dag V (r x 2N) and P = V^-1 Ybar (2N x r) once.  Each energy then
costs one product

    S_r(E) = 1 - i (L diag(1 / (E - lambda))) P

(r^2 2N flops, in place of a (2N)^2 r triangular solve and its residual
product) plus the r^3 unitarity defect, and loads no scipy.  Its residual
guard is an upper bound on the residual of the solve the decomposition
implies, X = V diag(1 / (E - lambda)) P:

    ||Ybar - (E - H) X||_F / ||Ybar||_F
        <= (||V P - Ybar||_F + ||H V - V Lambda||_F ||diag(1 / (E - lambda)) P||_F)
           / ||Ybar||_F,

whose two fixed norms are formed once and whose last factor is
sqrt(sum_k ||P_k||^2 / |E - lambda_k|^2), O(2N) per energy.

SchurScattering reduces H once to its complex Schur form H = Z T Z^dag (Z
unitary, T upper triangular) with Y = Z^dag Ybar.  Each energy costs one
triangular solve (E - T) X = Y, its residual through the triangular
product (E - T) X, and S_r = 1 - i Y^dag X.  Because Z is unitary, its
rounding does not grow with the condition number of H's eigenvectors,
which the spectral product's does: on a 600-atom chain at a quarter
wavelength (1-norm condition 5.6e6) the worst spectral defect over 24
energies reads 4.2e-9 against Schur's 7.8e-12, while up to a condition of
about 1e3 the two agree within a few times.  So select_scattering takes
the spectral route only while the 1-norm condition number that
eigensystem reads off V^-1 is at most SPECTRAL_CONDITION_LIMIT = 1e4
(1.0e3 and 2.1e2 on the shipped chains), and Schur otherwise; Schur also
stays as the oracle the tests hold the spectral route to.

Either guard raises ResolventSingularity when the relative residual is
not finite or exceeds 1e-6: the energy has landed too close to a
long-lived resonance for double precision.  A failure raises, it never
falls back.  t_matrix and s_matrix keep the direct route, one LU
factorization of E - H per energy with one refinement step, as the
reference that the benchmark and the tests compare against.

scipy.linalg is imported inside the code that factorizes (schur in
SchurScattering, solve_triangular and ztrmm per energy, lu_factor and
lu_solve in t_matrix), not at module level: the CLI imports this module
for every command, and transmit loads scipy only when it falls back to
Schur.  The smoothing boxcar is a numpy running sum that reproduces
scipy.ndimage.uniform_filter1d (mode="nearest") bit for bit, so no command
loads scipy.ndimage.

Photodetection ties decay to emitted photons.  Detection rows take the
plane-wave (R -> infinity) limit: for a direction Rhat and transverse
polarization e in {theta_hat, phi_hat},

    J_(Rhat,e),(n,s) = sqrt(3 GAMMA0 / 8 pi) * (e . d_s) * exp(-i k0 Rhat . r_n),

with the R^2 dOmega flux normalization folded in, so that the quadrature
sum over directions and polarizations of |J amps|^2 equals the
instantaneous decay rate amps^dagger decay amps exactly.  The polar
integral uses Gauss-Legendre nodes in cos(theta) and the azimuthal one a
uniform trapezoid, which together integrate the chain's flux integrand to
machine precision at the fixed 128 x 8 grid for chains up to a few
hundred wavelengths long.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .chain_model import DIPOLES, GAMMA0, K0, ChainConfig, positions
from .collective_couplings import CouplingMatrices
from .hamiltonian import Eigensystem, drive_hamiltonian, eigensystem
from .spectrum import NormalModes, decay_modes

_RESIDUAL_LIMIT = 1e-6
# largest 1-norm condition number of H's eigenvectors that select_scattering
# hands to SpectralScattering (the shipped chains: 1.0e3 and 2.1e2)
SPECTRAL_CONDITION_LIMIT = 1e4
_N_POLAR = 128  # Gauss-Legendre nodes in cos(theta) of the detector sphere
_N_AZIMUTH = 8  # uniform trapezoid nodes in phi


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
    matrix: np.ndarray
    unitarity_defect: float


def s_matrix(energy: float, h: np.ndarray, gamma_half: np.ndarray) -> SMatrixResult:
    """Full S matrix and its unitarity defect: the LU reference (see t_matrix)."""
    t = t_matrix(energy, h, gamma_half)
    s = np.eye(t.shape[0], dtype=complex) - 1j * t
    defect = np.linalg.norm(s.conj().T @ s - np.eye(s.shape[0]))
    return SMatrixResult(matrix=s, unitarity_defect=float(defect))


def _endpoint_channels(source_site: int, target_site: int) -> tuple[list[int], list[int]]:
    return [2 * target_site, 2 * target_site + 1], [2 * source_site, 2 * source_site + 1]


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
    matrix; residual is the relative residual of the resolvent solve (the
    Schur triangular solve's, or SpectralScattering's upper bound on it).
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


class SpectralScattering:
    """S(E) of one H at any number of energies from one eigendecomposition of H.

    h is the matrix of H and modes its decay_modes, with the same channels
    as SchurScattering; eigen is hamiltonian.eigensystem(h), formed here
    when not passed.  `eigenvalues` is the complex spectrum of H in eig's
    order.
    """

    method = "spectral"

    def __init__(self, h: np.ndarray, modes: NormalModes, eigen: Eigensystem | None = None):
        if eigen is None:
            eigen = eigensystem(h)
        if eigen.inverse is None:
            raise ResolventSingularity("the eigenvector matrix of H is singular")
        self.eigenvalues = eigen.values
        positive = modes.rates > 0
        self.channels = modes.vectors[:, positive]
        y = self.channels * np.sqrt(modes.rates[positive])
        v = eigen.vectors
        self._left = y.conj().T @ v
        self._right = eigen.inverse @ y
        self._right_rows = np.sum(self._right.real**2 + self._right.imag**2, axis=1)
        # the two fixed terms of the residual bound, relative to ||Ybar||_F
        y_norm = np.linalg.norm(y)
        self._basis_defect = np.linalg.norm(v @ self._right - y) / y_norm
        self._pair_defect = np.linalg.norm(h @ v - v * self.eigenvalues) / y_norm

    def s_matrix(self, energy: float) -> ChannelSMatrix:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            d = 1.0 / (energy - self.eigenvalues)
            rel = self._basis_defect + self._pair_defect * np.sqrt(
                np.dot(self._right_rows, d.real**2 + d.imag**2)
            )
        if not np.isfinite(rel) or rel > _RESIDUAL_LIMIT:
            raise ResolventSingularity(
                f"resolvent solve at energy {energy!r} left relative residual {rel:.2e}; "
                "the energy sits too close to a long-lived resonance"
            )
        s_r = np.eye(self._right.shape[1], dtype=complex) - 1j * ((self._left * d) @ self._right)
        defect = np.linalg.norm(s_r.conj().T @ s_r - np.eye(s_r.shape[0]))
        return ChannelSMatrix(
            matrix=s_r,
            channels=self.channels,
            unitarity_defect=float(defect),
            residual=float(rel),
        )


class SchurScattering:
    """S(E) of one H at any number of energies from one Schur form of H.

    h is the matrix of H and modes its decay_modes.  Every positive rate is
    a channel, and decay_modes has already set each rate within eigh's
    rounding of zero to exactly 0, so the channels are the resolved decay
    modes only (138 of 410 on the shipped chains).  The diagonal of the
    triangular factor, `eigenvalues`, is the complex spectrum of H
    (frequency - i * halfwidth, in Schur order).
    """

    method = "schur"

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


def select_scattering(
    h: np.ndarray, modes: NormalModes
) -> tuple[SpectralScattering | SchurScattering, float]:
    """SpectralScattering when the eigenvectors of H are conditioned well enough, else Schur.

    Returns the scattering and the 1-norm condition number of H's
    eigenvectors that chose it.
    """
    eigen = eigensystem(h)
    if eigen.condition <= SPECTRAL_CONDITION_LIMIT:
        return SpectralScattering(h, modes, eigen), eigen.condition
    return SchurScattering(h, modes), eigen.condition


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
    scattering: SpectralScattering | SchurScattering,
    energies: np.ndarray,
    source_site: int,
    target_site: int,
    smoothing_window: float | None = 0.05 * GAMMA0,
) -> SpectrumScan:
    """Transmittance in both directions over an energy grid.

    worst_residual is the largest relative resolvent residual of the scan
    (see ChannelSMatrix.residual).
    smoothing_window is an energy width; it is converted to a boxcar over
    grid samples (None or 0 disables smoothing) and may not exceed the span
    of a grid of more than one energy.
    """
    energies = np.asarray(energies, dtype=float)
    if smoothing_window and energies.size > 1 and smoothing_window > energies[-1] - energies[0]:
        raise ValueError(
            f"smoothing_window {smoothing_window!r} is wider than the grid's span "
            f"{energies[-1] - energies[0]!r}"
        )
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
    # the drive is block diagonal: [D, G]_nm = D_n G_nm - G_nm D_m on 2x2
    # site blocks, O(N^2) in place of two dense (2N)^3 products
    n = vc.n_atoms
    drive = drive_hamiltonian(vc)
    d = drive.reshape(n, 2, n, 2)[np.arange(n), :, np.arange(n), :]  # D_n as (n, a, b)
    g = couplings.decay.reshape(n, 2, n, 2)  # G_nm as (n, a, m, b)
    left = d[:, :, 0, None, None] * g[:, None, 0] + d[:, :, 1, None, None] * g[:, None, 1]
    right = g[..., 0, None] * d[:, 0] + g[..., 1, None] * d[:, 1]
    num = np.linalg.norm(left - right)
    den = np.linalg.norm(drive) * np.linalg.norm(couplings.decay)
    return float(num / den)


def detector_rows(vc: ChainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Jump rows (128 * 8 nodes * 2 polarizations, 2 N) and matching node weights.

    Row order: node-major (polar outer, azimuth inner), theta_hat
    polarization before phi_hat; columns follow the flattened (site,
    polarization) index.  Rows are conjugated and carry sqrt of photon flux
    per unit solid angle; weights are the quadrature measure, which sums to
    4 pi over the nodes.
    """
    cos_polar, polar_weights = leggauss(_N_POLAR)
    azimuths = 2.0 * np.pi * np.arange(_N_AZIMUTH) / _N_AZIMUTH
    x = cos_polar[:, None]
    sin_th = np.sqrt(1.0 - x * x)
    cp, sp = np.cos(azimuths), np.sin(azimuths)
    theta_hat = np.stack(np.broadcast_arrays(x * cp, x * sp, -sin_th), axis=-1)
    phi_hat = np.stack(np.broadcast_arrays(-sp, cp, np.zeros_like(x)), axis=-1)
    dipoles = np.stack(DIPOLES, axis=-1)
    # (polar, azimuth, polarization, source polarization)
    amp = np.sqrt(3.0 * GAMMA0 / (8.0 * np.pi)) * (np.stack([theta_hat, phi_hat], axis=2) @ dipoles)
    phase = np.exp(-1.0j * K0 * x * positions(vc))
    rows = amp[:, :, :, None, :] * phase[:, None, None, :, None]
    rows = np.conj(rows, out=rows).reshape(-1, 2 * vc.n_atoms)
    node_weights = np.repeat(polar_weights * (2.0 * np.pi / _N_AZIMUTH), _N_AZIMUTH)
    return rows, np.repeat(node_weights, 2)


@dataclass(frozen=True)
class EquivalenceReport:
    """Max-norm defects of two independent reconstructions of the decay matrix."""

    normal_mode_defect: float
    detector_defect: float


def representation_equivalence_check(
    vc: ChainConfig, couplings: CouplingMatrices
) -> EquivalenceReport:
    """Rebuild gamma from its eigensystem and from angular detector rows.

    The detector route integrates outgoing flux channels over the sphere
    (detector_rows); agreement with the directly built matrix ties the
    dissipative part to physical photon emission.
    """
    decay = couplings.decay
    modes = decay_modes(couplings)
    half = gamma_sqrt(modes)
    normal_mode = half @ half
    scale = np.max(np.abs(decay))
    normal_mode_defect = float(np.max(np.abs(normal_mode - decay)) / scale)

    rows, weights = detector_rows(vc)
    detector = rows.conj().T @ (weights[:, None] * rows)
    detector_defect = float(np.max(np.abs(detector - decay)) / scale)
    return EquivalenceReport(
        normal_mode_defect=normal_mode_defect, detector_defect=detector_defect
    )
