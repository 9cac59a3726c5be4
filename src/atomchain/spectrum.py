"""Normal modes of the decay matrix, complex spectra, and Bloch dispersion.

The infinite-chain dispersion needs lattice Fourier sums of the pair
couplings, Sum_{d>=1} exp(i q d) / d^p for p = 1, 2, 3, which are unit-circle
polylogarithms Li_p(e^{iq}).  They are evaluated in closed form:

    Li_1 = -log(1 - e^{iq})
    Re Li_2 = pi^2/6 - pi q/2 + q^2/4            (exact polynomial, 0 <= q <= 2 pi)
    Im Li_2 = Cl_2(q)                            (Clausen function, log series)
    Re Li_3 = Cl_3(q)                            (Glaisher series)
    Im Li_3 = pi^2 q/6 - pi q^2/4 + q^3/12       (exact polynomial, 0 <= q <= 2 pi)

The Clausen series converge geometrically for q <= pi; the reflection
q -> 2 pi - q (Cl_2 odd, Cl_3 even about pi) covers the rest of the circle.
Everything here is plain float64 numpy; the test suite pins these closed
forms against mpmath and against 10^7-term compensated direct summation.

Bloch analysis works in the gauge frame c~_{ns} = e^{+i s k_c z_n} c_{ns},
which makes the Raman drive site independent and shifts the polarization-s
hopping momentum: the 2x2 Bloch matrix at quasimomentum k has diagonal
entries eps_s - i/2 + F(k - s*k_c) and constant off-diagonal
(delta/4) sin(theta), where F is the coupling Fourier sum.  A mode radiates
only where a populated polarization lies inside the light cone
|k - s*k_c| <= k0 (momenta folded to the first Brillouin zone); beyond it
the imaginary part vanishes identically and the mode is guided.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

from .chain_model import GAMMA0, ValidatedConfig
from .collective_couplings import CouplingMatrices
from .hamiltonian import NonHermitianHamiltonian, _drive_terms

# zeta(2m) table for the Clausen series; (q/2pi)^(2m) <= 4^-m at q <= pi,
# so 55 terms leave the remainder far below 1e-16.
_ZETA_EVEN = zeta(2.0 * np.arange(1, 56))
_PSD_TOL = 1e-10


class LatticeSumDivergence(ValueError):
    """Li_1 diverges on the light line (phase a multiple of 2 pi)."""


def _clausen2(q: float) -> float:
    # Cl_2(q) = q - q log q + sum_m zeta(2m) q^(2m+1) / (m (2m+1) (2pi)^(2m)), 0 < q <= pi
    if q == 0.0:
        return 0.0
    m = np.arange(1, 56)
    terms = _ZETA_EVEN * q ** (2 * m + 1) / (m * (2 * m + 1) * (2.0 * np.pi) ** (2 * m))
    return q - q * np.log(q) + float(terms.sum())


def _clausen3(q: float) -> float:
    # Cl_3(q) = zeta(3) - 3 q^2/4 + (q^2/2) log q
    #           - sum_m zeta(2m) q^(2m+2) / (m (2m+1) (2m+2) (2pi)^(2m)), 0 <= q <= pi
    z3 = float(zeta(3.0))
    if q == 0.0:
        return z3
    m = np.arange(1, 56)
    terms = _ZETA_EVEN * q ** (2 * m + 2) / (m * (2 * m + 1) * (2 * m + 2) * (2.0 * np.pi) ** (2 * m))
    return z3 - 0.75 * q * q + 0.5 * q * q * np.log(q) - float(terms.sum())


def lattice_sum(p: int, q: float) -> complex:
    """Sum_{d=1}^inf e^{iqd} / d^p = Li_p(e^{iq}) for p in {1, 2, 3}.

    Absolute error below 1e-10 everywhere except the p = 1 divergence at
    q = 0 (mod 2 pi), which raises LatticeSumDivergence.
    """
    if p not in (1, 2, 3):
        raise ValueError(f"lattice_sum supports p in {{1, 2, 3}}, got {p!r}")
    phi = float(np.mod(q, 2.0 * np.pi))
    if p == 1:
        if phi == 0.0:
            raise LatticeSumDivergence("Li_1(e^{iq}) diverges at q = 0 mod 2 pi")
        return -complex(np.log(1.0 - np.exp(1.0j * phi)))
    if p == 2:
        re = np.pi**2 / 6.0 - np.pi * phi / 2.0 + phi**2 / 4.0
        im = _clausen2(phi) if phi <= np.pi else -_clausen2(2.0 * np.pi - phi)
        return complex(re, im)
    re = _clausen3(phi) if phi <= np.pi else _clausen3(2.0 * np.pi - phi)
    im = np.pi**2 * phi / 6.0 - np.pi * phi**2 / 4.0 + phi**3 / 12.0
    return complex(re, im)


def coupling_fourier_sum(q: float, vc: ValidatedConfig) -> complex:
    """Lattice Fourier transform of the same-polarization pair coupling.

    F(q) = Sum_{d != 0} (shift(d) - i decay(d)/2) e^{iqd}; with the scalar
    transverse kernel this reduces to polylogarithms of (k0 +/- q) a.  The
    imaginary part vanishes identically for folded |q| > k0 (guided zone).
    """
    a = vc.lattice_const
    u = vc.k0 * a
    total = 0.0 + 0.0j
    for sign in (+1.0, -1.0):
        phi = (vc.k0 + sign * q) * a
        total += (
            lattice_sum(1, phi) / u
            + 1.0j * lattice_sum(2, phi) / u**2
            - lattice_sum(3, phi) / u**3
        )
    return -0.75 * GAMMA0 * total


@dataclass(frozen=True)
class NormalModes:
    """Eigen-decomposition of the decay matrix: collective jump channels.

    Channel nu acts on excitation amplitudes as sqrt(rates[nu]) *
    vectors[:, nu]^dagger; rates are sorted ascending and vectors are
    orthonormal columns.
    """

    rates: np.ndarray
    vectors: np.ndarray


def decay_modes(couplings: CouplingMatrices) -> NormalModes:
    decay = couplings.decay
    herm_defect = np.abs(decay - decay.conj().T).max()
    if herm_defect > 1e-12:
        raise ValueError(f"decay matrix is not Hermitian (defect {herm_defect:.2e})")
    rates, vectors = np.linalg.eigh(decay)
    if rates[0] < -_PSD_TOL * GAMMA0:
        raise ValueError(
            f"decay matrix has negative eigenvalue {rates[0]:.3e}; coupling bug upstream"
        )
    return NormalModes(rates=np.clip(rates, 0.0, None), vectors=vectors)


def complex_spectrum(h: NonHermitianHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (frequency - i * halfwidth) and right eigenvectors of H.

    Sorted by real part.  All imaginary parts are non-positive because the
    decay matrix is PSD.
    """
    try:
        values, vectors = np.linalg.eig(h.matrix)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolver failed for Hamiltonian {h.config_fingerprint}"
        ) from exc
    order = np.argsort(values.real, kind="stable")
    return values[order], vectors[:, order]


@dataclass(frozen=True)
class BlochBands:
    """Two-branch complex dispersion of the infinite chain (gauge frame).

    polarization_weight_* holds the |plus|^2 content of each branch
    eigenvector; branches are labelled by energy order at each k, lower
    first.
    """

    k_grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    polarization_weight_lower: np.ndarray
    polarization_weight_upper: np.ndarray


def default_k_grid(vc: ValidatedConfig, n_points: int = 1024) -> np.ndarray:
    """Uniform quasimomentum grid over (-pi/a, pi/a], endpoint included."""
    a = vc.lattice_const
    return -np.pi / a + 2.0 * np.pi * np.arange(1, n_points + 1) / (n_points * a)


def chain_k_grid(vc: ValidatedConfig) -> np.ndarray:
    """The finite chain's own n_atoms-point quasimomentum grid on (-pi/a, pi/a]."""
    n, a = vc.n_atoms, vc.lattice_const
    return -np.pi / a + 2.0 * np.pi * (np.arange(n) + 1.0) / (n * a)


def _gauge_shift(vc: ValidatedConfig) -> float:
    # At theta = n*pi the Raman phases drop out of the Hamiltonian entirely,
    # so the physical chain is analyzed in the bare frame (no gauge shift)
    # and the bands are even in k, as reciprocity demands.
    if np.isclose(np.sin(vc.mixing_angle), 0.0, atol=1e-15):
        return 0.0
    return vc.control_wavevector_abs


def bloch_bands(vc: ValidatedConfig, k_grid: np.ndarray | None = None) -> BlochBands:
    """Diagonalize the gauge-frame 2x2 Bloch matrix on the k grid.

    Quasimomenta outside (-pi/a, pi/a] are folded back with a warning.
    Grid points whose shifted momentum lands exactly on a light line are
    nudged by 1e-9/a toward the inside of the light cone, to sidestep the
    logarithmic divergence of the p = 1 lattice sum; the nudge is far below
    any band feature of interest, and mirror-image points +/-q get mirror
    nudges, so reciprocal bands stay even in k.
    """
    if k_grid is None:
        k_grid = default_k_grid(vc)
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    a = vc.lattice_const
    bz = 2.0 * np.pi / a
    folded = np.mod(k_grid + np.pi / a, bz) - np.pi / a
    folded = np.where(np.isclose(folded, -np.pi / a), np.pi / a, folded)
    if not np.allclose(folded, k_grid):
        warnings.warn("quasimomenta outside (-pi/a, pi/a] were folded back")

    kc = _gauge_shift(vc)
    eps_plus, eps_minus, coupling = _drive_terms(vc)

    nk = folded.size
    lam = np.empty((nk, 2), dtype=complex)
    weight_plus = np.empty((nk, 2))
    for i, k in enumerate(folded):
        diag = []
        for s, eps in ((+1.0, eps_plus), (-1.0, eps_minus)):
            q = k - s * kc
            try:
                f = coupling_fourier_sum(q, vc)
            except LatticeSumDivergence:
                inward = np.copysign(1e-9 / a, np.mod(q + np.pi / a, bz) - np.pi / a)
                f = coupling_fourier_sum(q - inward, vc)
            diag.append(eps - 0.5j * GAMMA0 + f)
        mat = np.array([[diag[0], coupling], [coupling, diag[1]]])
        values, vectors = np.linalg.eig(mat)
        order = np.argsort(values.real)
        lam[i] = values[order]
        weight_plus[i] = np.abs(vectors[0, order]) ** 2
    return BlochBands(
        k_grid=folded,
        lower=lam[:, 0],
        upper=lam[:, 1],
        polarization_weight_lower=weight_plus[:, 0],
        polarization_weight_upper=weight_plus[:, 1],
    )


def transparency_window(
    vc: ValidatedConfig,
    k_grid: np.ndarray | None = None,
    branch: str = "upper",
    im_tol: float = 1e-9,
) -> float:
    """Width of the guided (lossless) section of one Bloch branch.

    Convention: the real-energy span of the branch's strictly dark points,
    |Im| < im_tol, evaluated on the chain's own n_atoms-point k grid unless
    another grid is given.  The band edge has a logarithmic spike at the
    light line, so the physically meaningful width is the one sampled at the
    chain's actual mode spacing; a finer grid chases the divergence instead.
    """
    if branch not in ("upper", "lower"):
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
    if k_grid is None:
        k_grid = chain_k_grid(vc)
    bands = bloch_bands(vc, k_grid)
    lam = bands.upper if branch == "upper" else bands.lower
    dark = np.abs(lam.imag) < im_tol
    if not dark.any():
        return 0.0
    re = lam.real[dark]
    return float(re.max() - re.min())


def guided_group_velocity(vc: ValidatedConfig, k_grid: np.ndarray | None = None) -> float:
    """Max |d Re(band)/dk| over the guided sections of both branches.

    Used to convert chain distances into traversal times for spin-wave
    snapshot protocols.
    """
    if k_grid is None:
        k_grid = default_k_grid(vc)
    bands = bloch_bands(vc, k_grid)
    best = 0.0
    for lam in (bands.lower, bands.upper):
        dark = np.abs(lam.imag) < 1e-9
        if dark.sum() < 3:
            continue
        # velocities only between adjacent dark points, away from zone wraps
        idx = np.flatnonzero(dark)
        runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
        for run in runs:
            if run.size < 3:
                continue
            v = np.gradient(lam.real[run], bands.k_grid[run])
            best = max(best, float(np.abs(v).max()))
    return best
