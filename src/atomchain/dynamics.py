"""Time evolution, spin-wave preparation, and far fields.

Evolution under the non-Hermitian Hamiltonian has two propagators.
Propagator does one spectral decomposition (eig + inv of H) and then
evaluates any time diagonally, so its cost does not grow with t.  It
raises numpy.linalg.LinAlgError if the eigenvector matrix is
ill-conditioned (1-norm condition number, read off the inverse it needs
anyway, above 1e12 or not finite: never for the chains studied here).
TaylorPropagator serves one state at one time without factorizing H: it
sums the truncated Taylor series of Al-Mohy & Higham (SIAM J. Sci. Comput.
33, 488, 2011, Algorithm 3.2) and applies H through its polarization
blocks, so its cost grows with t times a 2-norm bound on H - mu I, read
off those blocks, instead of with N^3; it has no conditioning limit.
choose_propagator is the one decision between them.

Far-field conventions.  A detector at P sees each excited (site n,
polarization s) through its transverse dipole pattern with the exact
source distance R_n = |P - r_n|:

    A_ns(P) = [d_s - Rhat_n (Rhat_n . d_s)] * exp(i k0 R_n) * (|P| / R_n)

and I(P) = |sum_ns A_ns(P) c_ns|^2.  The |P|/R_n envelope normalizes out
the overall free-space falloff so that a single excited atom at the origin
has peak intensity exactly 1; relative and ratio quantities are
independent of this choice.  far_field_rows holds A_ns(P) for a set of
nodes, so the fields of any number of states at those nodes are one
product with it.
On the chain's k grid k_j z_n = -pi n + 2 pi j n / N exactly, so momentum
spectra are one FFT of (-1)^n exp(i s k_c z_n) c_ns per polarization s.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .chain_model import DIPOLES, K0, ChainConfig, positions
from .hamiltonian import NonHermitianHamiltonian

_CONDITION_LIMIT = 1e12
# Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1: a step
# with ||t A|| / s <= theta_55 = 9.9 meets a 2^-53 backward error in at
# most 55 Taylor terms (the norm is any submultiplicative one; see
# TaylorPropagator).
_TAYLOR_DEGREE = 55
_THETA = 9.9
_TOLERANCE = 2.0**-53
# relative margin on the computed 2-norm bound: LAPACK's largest singular
# value of K and the 2x2 closed form are accurate to a small multiple of
# N eps (about 5e-14 at N = 205), so 1e-10 covers chains far longer than
# any studied here while moving no step count of the shipped chains
_NORM_PAD = 1e-10
_STANDOFF = 20.0  # wavelengths from each chain end to its edge probe


@dataclass(frozen=True)
class ExcitationState:
    """Flattened excited amplitudes at one time."""

    amps: np.ndarray
    time: float

    @property
    def norm(self) -> float:
        """Total excited population Sum |c_ns|^2."""
        return float(np.sum(np.abs(self.amps) ** 2))


def launch_site(vc: ChainConfig) -> int:
    """Default spin-wave center: site 100, or the chain middle if that is nearer."""
    return min(100, vc.n_atoms // 2)


def spin_wave(
    vc: ChainConfig,
    n0: int | None = None,
    width_sq: float = 60.0,
    k_carrier: float = 0.0,
    excited_fraction: float = 0.2,
) -> ExcitationState:
    """Gaussian wavepacket in the minus manifold with a running carrier.

    c_{n,-} ~ exp(i (k_carrier + k_c) z_n) * exp(-(n - n0)^2 / width_sq),
    rescaled so the total excited population is exactly excited_fraction.
    n0 defaults to
    launch_site(vc).  width_sq is the squared spatial width in units of
    lattice_const^2; k_carrier is an absolute quasimomentum (units
    1/LAMBDA0) added on top of the drive wavevector that the packet inherits.
    """
    if not width_sq > 0.0:
        raise ValueError(f"width_sq must be > 0, got {width_sq!r}")
    if not 0.0 <= excited_fraction <= 1.0:
        raise ValueError(f"excited_fraction must lie in [0, 1], got {excited_fraction!r}")
    if n0 is None:
        n0 = launch_site(vc)
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
    return ExcitationState(amps=amps, time=0.0)


class Propagator:
    """exp(-i H t) applied through the spectral decomposition of H."""

    def __init__(self, h: NonHermitianHamiltonian):
        values, vectors = np.linalg.eig(h.matrix)
        try:
            inverse = np.linalg.inv(vectors)
            cond = np.linalg.norm(vectors, 1) * np.linalg.norm(inverse, 1)
        except np.linalg.LinAlgError:  # eig can return an exactly singular V
            cond = np.inf
        if not cond <= _CONDITION_LIMIT:  # also a NaN product, from overflow in the inverse
            raise np.linalg.LinAlgError(
                f"eigenvector condition number (1-norm) {cond:.2e} exceeds {_CONDITION_LIMIT:.0e}"
            )
        self._spectral = (values, vectors, inverse)

    def apply(self, amps: np.ndarray, t: float) -> np.ndarray:
        values, vectors, inverse = self._spectral
        return (vectors * np.exp(-1.0j * values * t)) @ (inverse @ amps)


@dataclass(frozen=True)
class TaylorPropagator:
    """exp(-i H t) applied by a truncated Taylor series through H's polarization blocks.

    On the site-major (site, polarization) index H = K (x) I_2 + B: K couples
    equal polarizations of different sites (shift - (i/2) decay with its
    diagonal zeroed), and B holds one 2x2 block B_n per site, the on-site
    energies on its diagonal and the Raman coupling off it.  One product
    with H is then one real (2N x N) @ (N x 4) product with [Re K; Im K]
    plus O(N) elementwise work.  from_hamiltonian reads these pieces off a
    disorder-free H once per chain, with ||K||_2; with_onsite adds a
    disorder draw in O(N).

    Steps are sized by a 2-norm bound that follows the same split:
    ||H - mu I||_2 <= ||K||_2 + max_n ||B_n - mu I||_2, the triangle
    inequality, with ||K (x) I_2||_2 = ||K||_2 and the 2-norm of a block
    diagonal the largest of its blocks.  The 2x2 norms cost O(N) per draw.
    Al-Mohy & Higham's theta_55 holds in this norm unchanged: the backward
    error of s steps of the degree-m series is a power series in s^-1 t A
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009, Thm 4.2),
    and bounding it by the scalar series with absolute coefficients needs
    only a submultiplicative norm.  They size steps by the 1-norm because it
    is cheap to estimate; here the block bound is cheaper still and, on the
    shipped chains, under half the 1-norm (4.9 against 11.3-11.7).
    """

    stacked: np.ndarray      # (2N, N) real: [Re K; Im K]
    coupling_norm: float     # ||K||_2
    diagonal: np.ndarray     # (N, 2) complex: H_(n s),(n s)
    raman: np.ndarray        # (N, 2) complex: H_(n +),(n -) and H_(n -),(n +)

    @classmethod
    def from_hamiltonian(cls, h: NonHermitianHamiltonian) -> TaylorPropagator:
        m = h.matrix
        n = m.shape[0] // 2
        k = m[0::2, 0::2].copy()
        np.fill_diagonal(k, 0.0)
        return cls(
            stacked=np.vstack([k.real, k.imag]),
            coupling_norm=float(np.linalg.norm(k, 2)),
            diagonal=m.diagonal().reshape(n, 2).copy(),
            raman=np.stack([m.diagonal(1)[0::2], m.diagonal(-1)[0::2]], axis=1),
        )

    def with_onsite(self, energies: np.ndarray) -> TaylorPropagator:
        """The same chain with energies[n] added to both polarizations of site n."""
        n = self.diagonal.shape[0]
        if energies.shape != (n,):
            raise ValueError(f"disorder has {energies.shape[0]} sites, config has {n}")
        return replace(self, diagonal=self.diagonal + energies[:, None])

    def _shift(self) -> tuple[complex, np.ndarray, float]:
        """mu = trace(H) / 2N, the diagonal of H - mu I, and the bound on ||H - mu I||_2."""
        mu = self.diagonal.mean()
        shifted = self.diagonal - mu
        # B_n = [[a, b], [c, d]]: its largest squared singular value is the
        # larger eigenvalue of the Hermitian B_n B_n^dag = [[p, q], [q*, r]],
        # (p + r) / 2 + sqrt(((p - r) / 2)^2 + |q|^2), the closed form
        # (||B||_F^2 + sqrt(||B||_F^4 - 4 |det B|^2)) / 2 with its radicand
        # written as a sum of squares, so no cancellation can make it negative
        upper = np.abs(shifted[:, 0]) ** 2 + np.abs(self.raman[:, 0]) ** 2
        lower = np.abs(self.raman[:, 1]) ** 2 + np.abs(shifted[:, 1]) ** 2
        cross = shifted[:, 0] * self.raman[:, 1].conj() + self.raman[:, 0] * shifted[:, 1].conj()
        radicand = (0.5 * (upper - lower)) ** 2 + np.abs(cross) ** 2
        squares = 0.5 * (upper + lower) + np.sqrt(radicand)
        bound = (self.coupling_norm + np.sqrt(squares.max())) * (1.0 + _NORM_PAD)
        return mu, shifted, float(bound)

    def steps(self, t: float) -> int:
        """Number of Taylor steps s = ceil(t bound / theta_55), bound >= ||H - mu I||_2."""
        return int(np.ceil(t * self._shift()[2] / _THETA))

    def _product(self, x: np.ndarray, shifted: np.ndarray) -> np.ndarray:
        """(H - mu I) x for x of shape (N, 2)."""
        n = x.shape[0]
        p = self.stacked @ x.view(np.float64)
        y = p[:n].view(complex)
        y += 1.0j * p[n:].view(complex)
        y += shifted * x
        y += self.raman * x[:, ::-1]
        return y

    def apply(self, amps: np.ndarray, t: float) -> np.ndarray:
        """Algorithm 3.2 of Al-Mohy & Higham with m = 55 and the block 2-norm bound.

        Every choice depends only on H, amps and t, so repeated calls agree
        bit for bit; t = 0 returns a copy of amps.
        """
        if not t >= 0.0:
            raise ValueError(f"the Taylor series runs forward in time only, got t = {t!r}")
        mu, shifted, bound = self._shift()
        s = int(np.ceil(t * bound / _THETA))  # steps(t), without a second _shift
        f = np.array(amps, dtype=complex).reshape(-1, 2)
        if s == 0:
            return f.reshape(-1)
        eta = np.exp(-1.0j * mu * t / s)
        for _ in range(s):
            term = f
            c1 = np.abs(term).max()
            for j in range(1, _TAYLOR_DEGREE + 1):
                term = self._product(term, shifted)
                term *= -1.0j * t / (s * j)
                c2 = np.abs(term).max()
                f += term
                if c1 + c2 <= _TOLERANCE * np.abs(f).max():
                    break
                c1 = c2
            f *= eta
        return f.reshape(-1)


def taylor_pays(steps: int, n_atoms: int) -> bool:
    """Whether `steps` Taylor steps in all cost less than one Propagator of the chain.

    Propagator's eig + inv costs the same at every t; the Taylor series
    costs s steps of up to 55 block products.  Taylor runs while
    s <= N^2 / 200, which tracks the measured break-even step count of one
    ensemble cell (2-core VM, 1 BLAS thread, W = 1, median of 5 runs,
    Propagator reading its condition number off the inverse, steps sized
    by the 2-norm bound): 1.33, 1.83, 0.87 and 0.71 N^2 / 200 at N = 16,
    50, 205 and 300 (s = 183 at N = 205), with single runs spread over
    0.69-1.89 N^2 / 200.  The same runs put the break-even of 1-norm steps,
    each covering 2.4 times less time with fewer products, at 1.51, 2.17,
    1.19 and 1.00.  The break-even falls with N faster than N^2 / 200
    does, so no one constant fits all four better: N^2 / 200 stays.
    """
    return steps * 200 <= n_atoms**2


def choose_propagator(
    taylor: TaylorPropagator, steps: int, hamiltonian: Callable[[], NonHermitianHamiltonian]
) -> Propagator | TaylorPropagator:
    """For a job of `steps` Taylor steps in all: taylor while taylor_pays, else
    Propagator(hamiltonian()), else, where Propagator raises LinAlgError, taylor.

    hamiltonian builds the dense H, so it is assembled only off the Taylor
    path.  The trade-off of the last branch: an H whose eigenvectors are
    ill-conditioned costs Taylor steps linear in t, where a scaling-and-squaring
    exponential paid about log t squarings.  No chain studied here comes near
    the limit (1.0e3 and 2.1e2 on the shipped chains, 5.6e6 at 600 atoms, a = 1/4).
    """
    if taylor_pays(steps, taylor.diagonal.shape[0]):
        return taylor
    try:
        return Propagator(hamiltonian())
    except np.linalg.LinAlgError:
        return taylor


def propagate_to(
    state: ExcitationState, prop: Propagator | TaylorPropagator, t: float
) -> ExcitationState:
    """Evolve a state to absolute time t."""
    if t < state.time:
        raise ValueError(f"cannot propagate backwards: {t} < {state.time}")
    amps = prop.apply(state.amps, t - state.time)
    return replace(state, amps=amps, time=t)


def populations(state: ExcitationState) -> tuple[np.ndarray, np.ndarray]:
    """Per-site populations (p_plus, p_minus)."""
    p = np.abs(state.amps) ** 2
    return p[0::2], p[1::2]


def site_participation(state: ExcitationState) -> tuple[float, float]:
    """(ipr, participation) of the total site population distribution.

    ipr = Sum p^2 / (Sum p)^2; participation is its reciprocal, the
    effective number of occupied sites.  Growing ipr means localization.
    """
    p = np.abs(_unit_scaled(state.amps)) ** 2
    return _ipr(p[0::2] + p[1::2])


def _unit_scaled(amps: np.ndarray) -> np.ndarray:
    """amps times the exact power of two that brings max |amps| into [0.5, 1).

    An IPR does not depend on scale, so IPRs square these instead of amps:
    the squares of tiny amplitudes then stay out of the subnormal range, and
    everywhere else the rescale changes no bit of the ratio.
    """
    peak = np.max(np.abs(amps), initial=0.0)
    if not 0.0 < peak < np.inf:
        return amps
    parts = np.ascontiguousarray(amps, dtype=complex).view(np.float64)
    return np.ldexp(parts, -np.frexp(peak)[1]).view(complex)


def _ipr(p: np.ndarray) -> tuple[float, float]:
    """ipr and participation of populations p, the squares of _unit_scaled amplitudes."""
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
    ipr_minus = Sum p^2 / (Sum p)^2 over the minus polarization, the one a
    spin wave populates, and participation_minus = 1/ipr_minus (both NaN
    when that polarization is empty).
    """

    k_grid: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    ipr_minus: float
    participation_minus: float


def momentum_distribution(state: ExcitationState, vc: ChainConfig) -> MomentumDistribution:
    n = vc.n_atoms
    zs = positions(vc)
    ks = -np.pi / vc.lattice_const + 2.0 * np.pi * np.arange(n) / (n * vc.lattice_const)
    # psi_s is the DFT of (-1)^n exp(+s i k_c z_n) c_ns, one row per s = +, -
    gauge = np.exp(1.0j * vc.control_wavevector_abs * np.outer([1.0, -1.0], zs))
    gauge[:, 1::2] *= -1.0
    psi = np.fft.fft(gauge * state.amps.reshape(n, 2).T, axis=1)
    p_plus, p_minus = np.abs(psi) ** 2
    ipr_m, part_m = _ipr(np.abs(_unit_scaled(psi[1])) ** 2)
    return MomentumDistribution(
        k_grid=ks,
        p_plus=p_plus,
        p_minus=p_minus,
        ipr_minus=ipr_m,
        participation_minus=part_m,
    )


# --------------------------------------------------------------------------
# Far fields.


def far_field_rows(grid_points: np.ndarray, vc: ChainConfig) -> np.ndarray:
    """(M, 3, 2N) map from flattened amplitudes to the transverse field at each node.

    rows[m, :, 2n + s] = A_ns(P_m) with exact source distances, so the field
    at node m is rows[m] @ amps.  Nodes must be far from every atom;
    anything within one wavelength of the chain is rejected (the far-field
    form does not hold there).
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
    envelope = np.exp(1.0j * K0 * dist) * (node_r[:, None] / dist)
    # d_s - rhat (rhat . d_s), laid out (node, component, site, polarization)
    proj = rhat @ DIPOLES.T
    rows = DIPOLES.T[None, :, None, :] - rhat.transpose(0, 2, 1)[..., None] * proj[:, None]
    rows *= envelope[:, None, :, None]
    return rows.reshape(pts.shape[0], 3, 2 * vc.n_atoms)


def far_field_intensity(
    state: ExcitationState, grid_points: np.ndarray, vc: ChainConfig
) -> np.ndarray:
    """Scattered intensity at each 3D node: far_field_rows times the amplitudes."""
    field = far_field_rows(grid_points, vc) @ state.amps
    return np.sum(field.real**2 + field.imag**2, axis=1)


def far_field_ring(vc: ChainConfig, n_angles: int = 360) -> np.ndarray:
    """Circle of map nodes in the x-z plane around the chain center.

    The radius is 50 chain lengths (at least 50 wavelengths), far enough to
    honor the far-field form, centered on the chain midpoint.
    """
    length = (vc.n_atoms - 1) * vc.lattice_const
    radius = 50.0 * max(length, 1.0)
    center = 0.5 * length
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    pts = np.zeros((n_angles, 3))
    pts[:, 0] = radius * np.sin(angles)
    pts[:, 2] = center + radius * np.cos(angles)
    return pts


def mirror_ratio_flip(
    initial: ExcitationState,
    evolved: ExcitationState,
    propagator: Propagator | TaylorPropagator,
    vc: ChainConfig,
) -> float:
    """|log10| of the right/left emission ratio product under site reversal.

    evolved is initial propagated to evolved.time; the site-reversed twin of
    initial is evolved here for the same duration.  Both are read at two
    on-axis probes, _STANDOFF beyond either chain end (mirror symmetric
    about the chain).  When the dynamics commutes with site reversal the
    two ratios are exact reciprocals and the product is 1 (return value 0
    up to rounding); a directional chain transports the two launches toward
    the same side and the product departs from 1.  Physical intensities
    (including the 1/R^2 falloff) make the probe pair comparable, so the
    per-point peak normalization of far_field_intensity is divided back
    out.  Each ratio is read off _unit_scaled amplitudes, so no decay
    underflows it.
    """
    z = np.array([-_STANDOFF, (vc.n_atoms - 1) * vc.lattice_const + _STANDOFF])
    probes = np.zeros((2, 3))
    probes[:, 2] = z
    geometry = z**2

    def right_left_ratio(state: ExcitationState) -> float:
        scaled = replace(state, amps=_unit_scaled(state.amps))
        intensity = far_field_intensity(scaled, probes, vc) / geometry
        return float(intensity[1] / intensity[0])

    twin = propagate_to(mirror_state(initial), propagator, evolved.time)
    product = right_left_ratio(evolved) * right_left_ratio(twin)
    return float(abs(np.log10(product)))
