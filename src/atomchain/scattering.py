"""Photon scattering on the chain: t matrix, S matrix, transmittance scans,
and the detection rows behind the decay matrix.

The elastic amplitude between input and output channels attached to the
collective decay operator is

    t(E) = sqrt(gamma) (E - H)^{-1} sqrt(gamma),      S(E) = 1 - i t(E)

with H the full non-Hermitian effective Hamiltonian and sqrt(gamma) the
Hermitian square root of its decay part.  For real E and a Hermitian
coherent part, S is exactly unitary; the numerical defect is reported with
every scan as a self-check.

Scans evaluate S at many energies for one H, so KMatrixScattering
factorizes once and works in decay-channel space.  The channels are the r
decay eigenvectors U whose rate decay_modes resolves above eigh's rounding
(its floor, 4 eps max(rate)); every other rate is exactly 0, so
sqrt(gamma) = U diag(sqrt(rate)) U^dag holds with U alone.  On the shipped
205-atom chains r = 138 of 410.  With Ybar = U diag(sqrt(rate)) the r x r
channel matrix is

    S_r(E) = 1 - i Ybar^dag (E - H)^{-1} Ybar,

and two identities make S_r all a scan needs, exactly:

    S = (1 - U U^dag) + U S_r U^dag         (endpoint blocks from rows of U)
    ||S^dag S - 1||_F = ||S_r^dag S_r - 1||_F   (the unitarity defect)

Method.  H = H_R - (i/2) Ybar Ybar^dag, and H_R (drive, shift and any
disorder) and the modes behind Ybar are KMatrixScattering's two inputs
(Ybar Ybar^dag is the decay matrix to the rounding of the rate floor,
1.6e-15 on the tested chains), so by Woodbury S_r is the Cayley
transform of the Hermitian reaction (K) matrix (Mahaux & Weidenmueller,
Shell-Model Approach to Nuclear Reactions, 1969; Verbaarschot,
Weidenmueller & Zirnbauer, Phys. Rep. 129, 367, 1985):

    S_r = (1 - i K / 2) (1 + i K / 2)^-1 = 2 M^-1 - 1,    M = 1 + i K / 2,
    K(E) = A diag(1 / (E - eps)) A^dag,                     A = Ybar^dag W,

with (eps, W) = eigh(H_R), formed once.  No condition number enters: W is
unitary, and a Hermitian K leaves every singular value of M at least 1.

Split.  K has real poles at eps, so at every energy the nearest level j is
taken out of K, with no threshold: K' is K with the 1 / (E - eps_j) term
zeroed, symmetrized so that it is exactly Hermitian, and M' = 1 + i K' / 2
is inverted once.  With a_j = A[:, j] the level comes back by
Sherman-Morrison,

    M^-1 = M'^-1 - (i/2) (M'^-1 a_j) (a_j^dag M'^-1) / (E - pole_j),
    pole_j = eps_j - (i/2) a_j^dag M'^-1 a_j,

whose denominator has no real zero: a_j^dag M'^-1 a_j has a positive real
part, so pole_j lies below the real axis.  pole_j is the complex resonance
of H that the split level becomes, and the transmit manifest names it as
the pole nearest the worst-unitarity energy.  K' costs r^2 2N flops per
energy and the solve about r^3.

Guard.  H_R and the modes define H, so they cannot disagree about it.
eigh's accuracy is checked once per scan: the relative residual
||H_R W - W eps||_F / ||H_R||_F and the orthogonality defect
||W^dag W - 1||_F both must be finite and at most 1e-6, or the
constructor raises ResolventSingularity; eigh reads one triangle, so a
full non-Hermitian H passed as H_R fails the residual (3.9e-1 on either
shipped chain).
A non-finite S_r at any energy (a degenerate level exactly at E, or
overflow) raises it too, with every floating-point warning of that
arithmetic silenced so only the exception speaks.  A failure raises;
there is no fallback.  Because S_r is unitary by construction, the
per-energy unitarity defect measures the rounding of the Cayley solve,
not the accuracy of the resolvent; the eigh residuals above and the
tests' LU reference hold that.  t_matrix and s_matrix keep the
direct route, numpy.linalg.solve of E - H per energy with one
refinement step, as the reference that verify, the benchmark and the
tests compare against.

The smoothing boxcar is a numpy running sum that reproduces
scipy.ndimage.uniform_filter1d (mode="nearest") bit for bit.

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
from .hamiltonian import drive_hamiltonian
from .spectrum import NormalModes, decay_modes

_RESIDUAL_LIMIT = 1e-6
_N_POLAR = 128  # Gauss-Legendre nodes in cos(theta) of the detector sphere
_N_AZIMUTH = 8  # uniform trapezoid nodes in phi


class ResolventSingularity(ArithmeticError):
    """A scan's decomposition or an energy's S is not accurate or finite enough to trust."""


def gamma_sqrt(modes: NormalModes) -> np.ndarray:
    """Hermitian PSD square root of the decay matrix from its eigensystem.

    Built from the rates as decay_modes floors them, so it spans the same
    channels as KMatrixScattering.
    """
    v = modes.vectors
    return (v * np.sqrt(modes.rates)) @ v.conj().T


def t_matrix(energy: float, h: np.ndarray, gamma_half: np.ndarray) -> np.ndarray:
    """Full scattering t matrix at one (real) energy; h is the matrix of H.

    The LU reference for KMatrixScattering, kept for verify, bench/ and the tests.
    Never forms a dense inverse: numpy.linalg.solve factorizes E - H once
    for every column of sqrt(gamma), and again for the one refinement
    step.  An exactly singular E - H, or a non-finite solution, raises
    ResolventSingularity.
    """
    a = energy * np.eye(h.shape[0], dtype=complex) - h
    try:
        x = np.linalg.solve(a, gamma_half)  # raises on an exact zero pivot
        if not np.all(np.isfinite(x)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError as exc:
        raise ResolventSingularity(
            f"energy {energy!r} renders the resolvent system singular"
        ) from exc
    residual = gamma_half - a @ x
    x += np.linalg.solve(a, residual)
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
    matrix; pole is the complex resonance nearest the energy, the level
    KMatrixScattering split off there.
    """

    matrix: np.ndarray
    channels: np.ndarray
    unitarity_defect: float
    pole: complex

    def transmittance(self, source_site: int, target_site: int) -> float:
        """Same quantity as transmittance() on the full S, from its endpoint block."""
        rows, cols = _endpoint_channels(source_site, target_site)
        u_cols = self.channels[cols].conj().T
        block = self.channels[rows] @ (self.matrix @ u_cols - u_cols)
        block += np.equal.outer(rows, cols)
        return float(np.sum(np.abs(block) ** 2))


class KMatrixScattering:
    """S(E) of H = hermitian - (i/2) Ybar Ybar^dag from one eigh of hermitian.

    hermitian is H's Hermitian part H_R (drive, shift and any disorder) and
    modes the decay_modes of its decay part; the channels are the
    positive-rate modes (138 of 410 on the shipped chains).  eigh_residual
    and eigh_orthogonality are the two accuracy figures of eigh(H_R) that
    the constructor guards (see the module docstring).
    """

    def __init__(self, hermitian: np.ndarray, modes: NormalModes):
        positive = modes.rates > 0
        self.channels = modes.vectors[:, positive]
        ybar = self.channels * np.sqrt(modes.rates[positive])
        self._levels, w = np.linalg.eigh(hermitian)
        scale = np.linalg.norm(hermitian) or 1.0  # a zero H_R: the absolute residual
        self.eigh_residual = float(np.linalg.norm(hermitian @ w - w * self._levels) / scale)
        self.eigh_orthogonality = float(np.linalg.norm(w.conj().T @ w - np.eye(w.shape[0])))
        for name, value in (
            ("relative residual", self.eigh_residual),
            ("orthogonality defect", self.eigh_orthogonality),
        ):
            if not value <= _RESIDUAL_LIMIT:  # also NaN
                raise ResolventSingularity(f"eigh of H's Hermitian part left {name} {value:.2e}")
        self._a = ybar.conj().T @ w
        self._a_dag = self._a.conj().T.copy()

    def s_matrix(self, energy: float) -> ChannelSMatrix:
        levels, r = self._levels, self._a.shape[0]
        nearest = int(np.argmin(np.abs(energy - levels)))
        with np.errstate(all="ignore"):
            d = 1.0 / (energy - levels)
            d[nearest] = 0.0
            k = (self._a * d) @ self._a_dag
            k = 0.5 * (k + k.conj().T)  # exactly Hermitian
            # a finite Hermitian K' leaves every singular value of M' >= 1
            inverse = np.linalg.inv(np.eye(r) + 0.5j * k)
            a_near = self._a[:, nearest]
            u = inverse @ a_near
            pole = levels[nearest] - 0.5j * (a_near.conj() @ u)
            inverse -= np.outer(u, (0.5j / (energy - pole)) * (a_near.conj() @ inverse))
            s_r = 2.0 * inverse - np.eye(r)
        if not np.all(np.isfinite(s_r)):
            raise ResolventSingularity(
                f"energy {energy!r} gives a non-finite S: a degenerate level of "
                "H's Hermitian part sits on it, or K overflowed"
            )
        defect = np.linalg.norm(s_r.conj().T @ s_r - np.eye(r))
        return ChannelSMatrix(
            matrix=s_r,
            channels=self.channels,
            unitarity_defect=float(defect),
            pole=complex(pole),
        )


@dataclass
class SpectrumScan:
    energies: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    forward_smoothed: np.ndarray
    backward_smoothed: np.ndarray
    unitarity_defect: np.ndarray
    poles: np.ndarray  # ChannelSMatrix.pole at each energy


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
    scattering: KMatrixScattering,
    energies: np.ndarray,
    source_site: int,
    target_site: int,
    smoothing_window: float | None = 0.05 * GAMMA0,
) -> SpectrumScan:
    """Transmittance in both directions over an energy grid.

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
    poles = np.empty(energies.shape, dtype=complex)
    for i, energy in enumerate(energies):
        result = scattering.s_matrix(float(energy))
        forward[i] = result.transmittance(source_site, target_site)
        backward[i] = result.transmittance(target_site, source_site)
        defect[i] = result.unitarity_defect
        poles[i] = result.pole
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
        poles=poles,
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
