"""Normal modes of the decay matrix and the Bloch dispersion of the infinite chain.

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
Everything here is plain float64 numpy and elementwise in q, so a whole k
grid is one array pass; the test suite pins these closed forms against
mpmath and against 10^7-term compensated direct summation.

Bloch analysis works in the gauge frame c~_{ns} = e^{+i s k_c z_n} c_{ns},
which makes the Raman drive site independent and shifts the polarization-s
hopping momentum: the 2x2 Bloch matrix at quasimomentum k has diagonal
entries eps_s - i/2 + F(k - s*k_c) and constant off-diagonal
(delta/4) sin(theta), where F is the coupling Fourier sum.  A mode radiates
only where a populated polarization lies inside the light cone
|k - s*k_c| <= k0 (momenta folded to the first Brillouin zone); beyond it
the imaginary part vanishes identically and the mode is guided.  bloch_bands
nudges light-line momenta off the p = 1 divergence first, then evaluates F
over the (n_k, 2) momentum array and diagonalizes the stacked 2x2 matrices
in one call; tests/test_spectrum.py keeps the per-k scalar loop as its
reference.

This module imports no scipy, so that importing the CLI loads numpy only.
The Clausen coefficients are a literal table, the bits that
scipy.special.zeta gives, and q log q takes math.log per element, which
rounds as scipy.special.xlogy does; the tests hold both to scipy bit for
bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chain_model import GAMMA0, K0, ChainConfig
from .collective_couplings import CouplingMatrices
from .hamiltonian import _drive_terms

# zeta(2m) / (m (2m+1) (2pi)^(2m)) for the Clausen series; (q/2pi)^(2m) <= 4^-m
# at q <= pi, so 55 terms leave the remainder far below 1e-16.  The table holds
# the bits of that formula with scipy.special.zeta; the exact rationals
# |B_2m| / (2 (2m)! m (2m+1)) round differently, by up to 4.2e-15 relative.
_M = np.arange(1, 56)
_CL2_COEF = np.array([float.fromhex(h) for h in """
    0x1.c71c71c71c71dp-7 0x1.23456789abce0p-14 0x1.a6b4d4f3e9a87p-21 0x1.8a86a49f629d3p-27
    0x1.a1598a2de5253p-33 0x1.dcb864bec8df6p-39 0x1.1eff7ef77d018p-44 0x1.6731c59dbd7e2p-50
    0x1.cf1d1c3362adep-56 0x1.31aba277df946p-61 0x1.9b500f3769b48p-67 0x1.192a4b43f4a91p-72
    0x1.859450efd56dcp-78 0x1.1100be03bf883p-83 0x1.826bbe4408fa5p-89 0x1.13d916dfdf3f1p-94
    0x1.8cd5134562480p-100 0x1.1f5e7b4325205p-105 0x1.a2b67ca6ce27fp-111 0x1.32b2acf78bf18p-116
    0x1.c37fdb3adce08p-122 0x1.4dcf7de2a1bc9p-127 0x1.ef9925ddcd6c3p-133 0x1.7143e331547d7p-138
    0x1.1412fb72b1f46p-143 0x1.9e1a04dd6ef7ap-149 0x1.37790138fc1f7p-154 0x1.d5d28b75c8176p-160
    0x1.633a4d50d7a79p-165 0x1.0d36878bd3e3ep-170 0x1.98f1f8fa041cfp-176 0x1.373d3b48c3575p-181
    0x1.daaac4dc19191p-187 0x1.6a9c395ddfa02p-192 0x1.157aeba0f969ep-197 0x1.a95b4bd7830f8p-203
    0x1.46845b17341dap-208 0x1.f6034189fc541p-214 0x1.8271e54647236p-219 0x1.29de532c9ae40p-224
    0x1.cbc1a583f9fcap-230 0x1.633b54a7c3072p-235 0x1.12c74309a0c29p-240 0x1.a98c1953575c6p-246
    0x1.49db9bcb50bf4p-251 0x1.ffdedf517a260p-257 0x1.8d87a3fbbf1a8p-262 0x1.3501d205386a6p-267
    0x1.e0ce7c6a5bf57p-273 0x1.765e9c714869bp-278 0x1.23b9cabeb8083p-283 0x1.c6ff8fa4d814bp-289
    0x1.6315e67f11dccp-294 0x1.154ee2b40528dp-299 0x1.b16db18a6e24cp-305
""".split()])
_ZETA3 = float.fromhex("0x1.33ba004f00621p+0")
_PSD_TOL = 1e-10
# decay rates at or below this many eps times the largest are eigh's rounding
_RATE_FLOOR_EPS = 4
# |Im| below which a Bloch point counts as dark (guided, lossless)
_DARK_TOL = 1e-9


class LatticeSumDivergence(ValueError):
    """Li_1 diverges on the light line (phase a multiple of 2 pi)."""


def _xlogx(q: np.ndarray) -> np.ndarray:
    # q log q with 0 log 0 = 0, by the C library's log as scipy.special.xlogy
    # takes it; np.log's vectorized kernel rounds some points differently.
    return np.reshape([x * math.log(x) if x else 0.0 for x in q.ravel().tolist()], q.shape)


def _clausen2(q: np.ndarray) -> np.ndarray:
    # Cl_2(q) = q - q log q + sum_m zeta(2m) q^(2m+1) / (m (2m+1) (2pi)^(2m)), 0 <= q <= pi
    q = np.asarray(q, dtype=float)
    return q - _xlogx(q) + (_CL2_COEF * q[..., None] ** (2 * _M + 1)).sum(axis=-1)


def _clausen3(q: np.ndarray) -> np.ndarray:
    # Cl_3(q) = zeta(3) - 3 q^2/4 + (q^2/2) log q
    #           - sum_m zeta(2m) q^(2m+2) / (m (2m+1) (2m+2) (2pi)^(2m)), 0 <= q <= pi
    q = np.asarray(q, dtype=float)
    series = (_CL2_COEF / (2 * _M + 2) * q[..., None] ** (2 * _M + 2)).sum(axis=-1)
    return _ZETA3 - 0.75 * q * q + 0.5 * q * _xlogx(q) - series


def lattice_sum(p: int, q: float | np.ndarray) -> complex | np.ndarray:
    """Sum_{d=1}^inf e^{iqd} / d^p = Li_p(e^{iq}) for p in {1, 2, 3}, elementwise.

    Absolute error below 1e-10 everywhere except the p = 1 divergence at
    q = 0 (mod 2 pi), which raises LatticeSumDivergence if any element
    lies on it.
    """
    if p not in (1, 2, 3):
        raise ValueError(f"lattice_sum supports p in {{1, 2, 3}}, got {p!r}")
    phi = np.mod(q, 2.0 * np.pi)
    if p == 1:
        if np.any(phi == 0.0):
            raise LatticeSumDivergence("Li_1(e^{iq}) diverges at q = 0 mod 2 pi")
        return -np.log(1.0 - np.exp(1.0j * phi))
    # reflection q -> 2 pi - q keeps the Clausen series on 0 <= q <= pi
    low = phi <= np.pi
    reflected = np.where(low, phi, 2.0 * np.pi - phi)
    if p == 2:
        re = np.pi**2 / 6.0 - np.pi * phi / 2.0 + phi**2 / 4.0
        cl2 = _clausen2(reflected)
        return re + 1.0j * np.where(low, cl2, -cl2)
    im = np.pi**2 * phi / 6.0 - np.pi * phi**2 / 4.0 + phi**3 / 12.0
    return _clausen3(reflected) + 1.0j * im


def coupling_fourier_sum(q: float | np.ndarray, vc: ChainConfig) -> complex | np.ndarray:
    """Lattice Fourier transform of the same-polarization pair coupling, elementwise in q.

    F(q) = Sum_{d != 0} (shift(d) - i decay(d)/2) e^{iqd}; with the scalar
    transverse kernel this reduces to polylogarithms of (k0 +/- q) a.  The
    imaginary part vanishes identically for folded |q| > k0 (guided zone).
    """
    a = vc.lattice_const
    u = K0 * a
    total = 0.0 + 0.0j
    for sign in (+1.0, -1.0):
        phi = (K0 + sign * q) * a
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
    orthonormal columns.  Every rate at or below floor is exactly 0, so
    the decay channels are the columns with a positive rate.
    """

    rates: np.ndarray
    vectors: np.ndarray
    floor: float = 0.0


def decay_modes(couplings: CouplingMatrices) -> NormalModes:
    """Normal modes of the decay matrix, with its unresolved rates set to 0.

    eigh resolves each rate only to an absolute error of a few eps times the
    largest (Golub & Van Loan, Matrix Computations, section 8.1), so rates at
    or below floor = 4 eps max(rate) are rounding noise and become exactly 0.
    On the chains the tests and the benchmark use, the positive noise tops
    out at 0.56 floor and the smallest resolved rate, as eigh computes it,
    sits at 1.68 floor; the usual rank tolerance dim eps max(rate) would
    drop resolved rates and move T.
    """
    decay = couplings.decay
    herm_defect = np.abs(decay - decay.conj().T).max()
    if herm_defect > 1e-12:
        raise ValueError(f"decay matrix is not Hermitian (defect {herm_defect:.2e})")
    rates, vectors = np.linalg.eigh(decay)
    if rates[0] < -_PSD_TOL * GAMMA0:
        raise ValueError(
            f"decay matrix has negative eigenvalue {rates[0]:.3e}; coupling bug upstream"
        )
    floor = _RATE_FLOOR_EPS * np.finfo(float).eps * float(rates[-1])
    return NormalModes(rates=np.where(rates > floor, rates, 0.0), vectors=vectors, floor=floor)


@dataclass(frozen=True)
class BlochBands:
    """Two-branch complex dispersion of the infinite chain (gauge frame).

    polarization_weight_upper holds the |plus|^2 content of the upper
    branch eigenvector; branches are labelled by energy order at each k,
    lower first.
    """

    k_grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    polarization_weight_upper: np.ndarray


def default_k_grid(vc: ChainConfig, n_points: int = 1024) -> np.ndarray:
    """Uniform quasimomentum grid over (-pi/a, pi/a], endpoint included."""
    a = vc.lattice_const
    return -np.pi / a + 2.0 * np.pi * np.arange(1, n_points + 1) / (n_points * a)


def _gauge_shift(vc: ChainConfig) -> float:
    # At theta = n*pi the Raman phases drop out of the Hamiltonian entirely,
    # so the physical chain is analyzed in the bare frame (no gauge shift)
    # and the bands are even in k, as reciprocity demands.
    if vc.reciprocal:
        return 0.0
    return vc.control_wavevector_abs


def bloch_bands(vc: ChainConfig, k_grid: np.ndarray) -> BlochBands:
    """Diagonalize the gauge-frame 2x2 Bloch matrix on the k grid.

    Quasimomenta outside (-pi/a, pi/a] are folded back with a warning.
    The shifted momenta q = k - s*k_c form one (n_k, 2) array, a column per
    polarization.  Points where q lands exactly on a light line are first
    nudged by 1e-9/a toward the inside of the light cone, to sidestep the
    logarithmic divergence of the p = 1 lattice sum; the nudge is far below
    any band feature of interest, and mirror-image points +/-q get mirror
    nudges, so reciprocal bands stay even in k.  The Fourier sums and the
    stacked 2x2 eigenproblems are then evaluated over the whole array at once.
    """
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    a = vc.lattice_const
    bz = 2.0 * np.pi / a
    folded = np.mod(k_grid + np.pi / a, bz) - np.pi / a
    folded = np.where(np.isclose(folded, -np.pi / a), np.pi / a, folded)
    if not np.allclose(folded, k_grid):
        warnings.warn("quasimomenta outside (-pi/a, pi/a] were folded back")

    eps_plus, eps_minus, coupling = _drive_terms(vc)
    q = folded[:, None] - np.array([1.0, -1.0]) * _gauge_shift(vc)
    on_light_line = (np.mod((K0 + q) * a, 2.0 * np.pi) == 0.0) | (
        np.mod((K0 - q) * a, 2.0 * np.pi) == 0.0
    )
    inward = np.copysign(1e-9 / a, np.mod(q + np.pi / a, bz) - np.pi / a)
    q = np.where(on_light_line, q - inward, q)
    diag = np.array([eps_plus, eps_minus]) - 0.5j * GAMMA0 + coupling_fourier_sum(q, vc)

    mat = np.empty((folded.size, 2, 2), dtype=complex)
    mat[:, 0, 0], mat[:, 1, 1] = diag[:, 0], diag[:, 1]
    mat[:, 0, 1] = mat[:, 1, 0] = coupling
    values, vectors = np.linalg.eig(mat)
    order = np.argsort(values.real, axis=1)
    lam = np.take_along_axis(values, order, axis=1)
    weight_plus = np.take_along_axis(np.abs(vectors[:, 0, :]) ** 2, order, axis=1)
    return BlochBands(
        k_grid=folded, lower=lam[:, 0], upper=lam[:, 1], polarization_weight_upper=weight_plus[:, 1]
    )


def transparency_window(vc: ChainConfig) -> float:
    """Width of the guided (lossless) section of the upper Bloch branch.

    Convention: the real-energy span of the branch's strictly dark points,
    |Im| < 1e-9, evaluated on the chain's own n_atoms-point k grid.  The
    band edge has a logarithmic spike at the light line, so the physically
    meaningful width is the one sampled at the chain's actual mode spacing;
    a finer grid chases the divergence instead.
    """
    upper = bloch_bands(vc, default_k_grid(vc, vc.n_atoms)).upper
    dark = np.abs(upper.imag) < _DARK_TOL
    if not dark.any():
        return 0.0
    re = upper.real[dark]
    return float(re.max() - re.min())


def guided_group_velocity(vc: ChainConfig) -> float:
    """Max |d Re(band)/dk| over the guided sections of both branches.

    Used to convert chain distances into traversal times for spin-wave
    snapshot protocols.
    """
    bands = bloch_bands(vc, default_k_grid(vc))
    best = 0.0
    for lam in (bands.lower, bands.upper):
        dark = np.abs(lam.imag) < _DARK_TOL
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
