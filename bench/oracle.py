"""Independent reference model of the chain, used to check benchmark outputs.

Nothing here imports atomchain.  Every quantity is rebuilt from the
formulas the package documents:

* couplings from the closed-form on-axis transverse kernel
  g(r) = e^{iu} (1 + i/u - 1/u^2) / (4 pi r), u = k0 r, with
  decay = (6 pi / k0) Im g and shift = -(3 pi / k0) Re g off the diagonal,
  decay = 1 and shift = 0 on it, and no cross-polarization entries;
* the drive block from the README model section: diagonal
  (detuning + delta) - (delta/4)(1 - s cos theta), off-diagonal
  (delta/4) sin theta exp(-2i k_c z_n) in the (plus, minus) entry;
* disorder uniform on [-sqrt(3W), sqrt(3W)], one shift for both branches
  of a site, drawn from SeedSequence(seed, spawn_key=(w_index, realization));
* the Bloch matrix with mpmath polylogarithms instead of Clausen series;
* dynamics with scipy.linalg.expm and resolvents with numpy.linalg.solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import mpmath
import numpy as np
from scipy.linalg import expm

K0 = 2.0 * math.pi


@dataclass(frozen=True)
class Chain:
    n_atoms: int
    lattice_const: float
    delta_shift: float = 10.0 / 3.0
    mixing_angle: float = 0.0
    control_wavevector: float = math.pi / 5.0
    detuning: float = 0.0

    @property
    def dim(self) -> int:
        return 2 * self.n_atoms

    def with_mixing_angle(self, angle: float) -> "Chain":
        return replace(self, mixing_angle=angle)


def read_chain(path: str | Path) -> Chain:
    """Parse the key = value config format; the seed key is not part of the chain."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    kwargs = {"n_atoms": int(values["n_atoms"]), "lattice_const": float(values["lattice_const"])}
    for key in ("delta_shift", "mixing_angle", "control_wavevector", "detuning"):
        if key in values:
            kwargs[key] = float(values[key])
    return Chain(**kwargs)


def kernel(r: np.ndarray) -> np.ndarray:
    """Closed-form on-axis transverse Green's function contraction."""
    u = K0 * r
    return np.exp(1j * u) * (1.0 + 1j / u - 1.0 / u**2) / (4.0 * math.pi * r)


def couplings(chain: Chain) -> tuple[np.ndarray, np.ndarray]:
    """(shift, decay) as real 2N x 2N matrices, site-major, plus before minus."""
    n = chain.n_atoms
    sep = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * chain.lattice_const
    off = sep > 0
    g = np.zeros((n, n), dtype=complex)
    g[off] = kernel(sep[off])
    decay_block = np.where(off, (6.0 * math.pi / K0) * g.imag, 1.0)
    shift_block = np.where(off, -(3.0 * math.pi / K0) * g.real, 0.0)
    shift = np.zeros((2 * n, 2 * n))
    decay = np.zeros((2 * n, 2 * n))
    for b in (0, 1):
        shift[b::2, b::2] = shift_block
        decay[b::2, b::2] = decay_block
    return shift, decay


def onsite_energies(chain: Chain) -> tuple[float, float]:
    d, th = chain.delta_shift, chain.mixing_angle
    return tuple((chain.detuning + d) - (d / 4.0) * (1.0 - s * math.cos(th)) for s in (1, -1))


def drive(chain: Chain) -> np.ndarray:
    n = chain.n_atoms
    eps_p, eps_m = onsite_energies(chain)
    coupling = (chain.delta_shift / 4.0) * math.sin(chain.mixing_angle)
    phase = np.exp(-2j * chain.control_wavevector * np.arange(n))
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    idx = 2 * np.arange(n)
    h[idx, idx] = eps_p
    h[idx + 1, idx + 1] = eps_m
    h[idx, idx + 1] = coupling * phase
    h[idx + 1, idx] = coupling * np.conj(phase)
    return h


def hamiltonian(chain: Chain, onsite: np.ndarray | None = None) -> np.ndarray:
    shift, decay = couplings(chain)
    h = drive(chain) + shift - 0.5j * decay
    if onsite is not None:
        h[np.diag_indices_from(h)] += np.repeat(onsite, 2)
    return h


def disorder_energies(seed: int, w_index: int, realization: int, w: float, n_atoms: int) -> np.ndarray:
    if w == 0.0:
        return np.zeros(n_atoms)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(w_index, realization)))
    half = math.sqrt(3.0 * w)
    return rng.uniform(-half, half, n_atoms)


def gamma_half(chain: Chain) -> np.ndarray:
    _, decay = couplings(chain)
    rates, vectors = np.linalg.eigh(decay)
    return (vectors * np.sqrt(np.clip(rates, 0.0, None))) @ vectors.T


def transmittance(chain: Chain, energy: float, source: int, target: int) -> tuple[float, float]:
    """(forward, backward) polarization-summed |S|^2 between two distinct sites.

    S = 1 - i Gamma^1/2 (E - H)^-1 Gamma^1/2; off the diagonal block only the
    resolvent term contributes.
    """
    h = hamiltonian(chain)
    half = gamma_half(chain)
    src = [2 * source, 2 * source + 1]
    tgt = [2 * target, 2 * target + 1]
    resolvent_cols = np.linalg.solve(energy * np.eye(chain.dim) - h, half[:, src + tgt])
    t = half[src + tgt, :] @ resolvent_cols
    forward = float(np.sum(np.abs(t[2:, :2]) ** 2))
    backward = float(np.sum(np.abs(t[:2, 2:]) ** 2))
    return forward, backward


def spin_wave(chain: Chain, n0: int, width_sq: float, k_carrier: float, excited_fraction: float) -> np.ndarray:
    n = chain.n_atoms
    z = np.arange(n) * chain.lattice_const
    kc_abs = chain.control_wavevector / chain.lattice_const
    amps = np.zeros(2 * n, dtype=complex)
    amps[1::2] = np.exp(1j * (k_carrier + kc_abs) * z) * np.exp(-((np.arange(n) - n0) ** 2) / width_sq)
    return amps * math.sqrt(excited_fraction / np.sum(np.abs(amps) ** 2))


def evolve(h: np.ndarray, amps: np.ndarray, t: float) -> np.ndarray:
    return expm(-1j * t * h) @ amps


def site_populations(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.abs(amps) ** 2
    return p[0::2], p[1::2]


def realspace_ipr(amps: np.ndarray) -> float:
    p_plus, p_minus = site_populations(amps)
    p = p_plus + p_minus
    return float(np.sum(p**2) / np.sum(p) ** 2)


def bloch_bands(chain: Chain, k: float) -> tuple[complex, complex]:
    """(lower, upper) complex Bloch energies at quasimomentum k, by mpmath at 30 digits.

    Gauge frame: diagonal eps_s - i/2 + F(k - s k_c), off-diagonal
    (delta/4) sin theta, with k_c = 0 at zero mixing (no drive phase).
    F(q) = -(3 pi / k0) Sum_{d != 0} g(|d| a) e^{i q d a}
         = -(3 / (4 k0 a)) Sum_+- [Li1 + i Li2 / u - Li3 / u^2](e^{i (k0 +- q) a}).
    """
    with mpmath.workdps(30):
        a = mpmath.mpf(chain.lattice_const)
        k0 = 2 * mpmath.pi
        u = k0 * a
        sin_th = math.sin(chain.mixing_angle)
        kc = mpmath.mpf(chain.control_wavevector) / a if abs(sin_th) > 1e-15 else mpmath.mpf(0)

        def fourier(q):
            total = mpmath.mpc(0)
            for sign in (1, -1):
                z = mpmath.expj((k0 + sign * q) * a)
                total += (
                    mpmath.polylog(1, z)
                    + 1j * mpmath.polylog(2, z) / u
                    - mpmath.polylog(3, z) / u**2
                )
            return -3 * total / (4 * k0 * a)

        eps_p, eps_m = onsite_energies(chain)
        kk = mpmath.mpf(k)
        d_p = eps_p - 0.5j + fourier(kk - kc)
        d_m = eps_m - 0.5j + fourier(kk + kc)
        c = mpmath.mpf(chain.delta_shift) / 4 * mpmath.mpf(sin_th)
        mean = (d_p + d_m) / 2
        root = mpmath.sqrt(((d_p - d_m) / 2) ** 2 + c**2)
        pair = sorted((complex(mean - root), complex(mean + root)), key=lambda v: v.real)
    return pair[0], pair[1]


def light_line_distance(chain: Chain, k: float) -> float:
    """Smallest |phase| of the Li_1 arguments at k; the sum diverges at zero."""
    sin_th = math.sin(chain.mixing_angle)
    kc = chain.control_wavevector / chain.lattice_const if abs(sin_th) > 1e-15 else 0.0
    best = math.inf
    for s in (1, -1):
        for sign in (1, -1):
            phi = (K0 + sign * (k - s * kc)) * chain.lattice_const
            wrapped = math.remainder(phi, 2.0 * math.pi)
            best = min(best, abs(wrapped))
    return best
