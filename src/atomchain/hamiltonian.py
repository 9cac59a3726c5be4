"""Driven single-atom blocks, disorder potential, and the collective
non-Hermitian Hamiltonian on the single-excitation space.

The full generator is H = H_S + shift - (i/2) * decay + V, where H_S stacks
the Hermitian 2x2 driven-atom blocks, (shift, decay) come from
collective_couplings, and V is an optional diagonal disorder potential that
adds the same random energy to both polarizations of a site.  The
anti-Hermitian part of H is exactly -(i/2) * decay by construction, which is
the identity behind S-matrix unitarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_model import ChainConfig
from .collective_couplings import CouplingMatrices

DISORDER_SHAPES = ("uniform", "gaussian")


@dataclass(frozen=True)
class DisorderRealization:
    """One draw of i.i.d. on-site energies with zero mean and variance W."""

    seed: object
    energies: np.ndarray
    variance_w: float


@dataclass(frozen=True)
class NonHermitianHamiltonian:
    """The assembled H; `matrix` is the dense 2N x 2N array."""

    matrix: np.ndarray


def _drive_terms(vc: ChainConfig) -> tuple[float, float, float]:
    """On-site energies (eps_plus, eps_minus) and the Raman coupling magnitude.

    eps_s = (detuning + delta) - (delta/4) * (1 - s*cos(theta)), so the bare
    splitting between the two excited states is (delta/2) * cos(theta); the
    two-photon Raman coupling is (delta/4) * sin(theta).
    """
    delta, theta = vc.delta_shift, vc.mixing_angle
    eps_plus, eps_minus = (
        (vc.detuning + delta) - (delta / 4.0) * (1.0 - s * np.cos(theta)) for s in (+1, -1)
    )
    return eps_plus, eps_minus, (delta / 4.0) * np.sin(theta)


def drive_hamiltonian(vc: ChainConfig) -> np.ndarray:
    """Hermitian block-diagonal drive: one 2x2 {plus, minus} block per site.

    The diagonal holds the on-site energies; the (plus, minus) entry holds
    the Raman coupling with the running phase exp(-2i * k_c * z_n).
    """
    n = vc.n_atoms
    eps_plus, eps_minus, coupling = _drive_terms(vc)
    phase = np.exp(-2.0j * vc.control_wavevector * np.arange(n))
    plus = 2 * np.arange(n)
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[plus, plus] = eps_plus
    h[plus + 1, plus + 1] = eps_minus
    h[plus, plus + 1] = coupling * phase
    h[plus + 1, plus] = coupling * np.conj(phase)
    return h


def disorder_sample(seed, w: float, n_atoms: int, shape: str = "uniform") -> DisorderRealization:
    """Draw i.i.d. on-site energies with zero mean and variance w.

    `shape` selects uniform on [-sqrt(3w), +sqrt(3w)] (default; a flat
    frequency band) or gaussian with standard deviation sqrt(w).  `seed`
    is anything numpy's default_rng accepts, including a SeedSequence, so
    ensembles can hand in spawned per-realization streams.
    """
    if w < 0.0:
        raise ValueError(f"disorder variance must be >= 0, got {w!r}")
    if shape not in DISORDER_SHAPES:
        raise ValueError(f"unknown disorder shape {shape!r}; choose from {DISORDER_SHAPES}")
    if w == 0.0:
        energies = np.zeros(n_atoms)
    else:
        rng = np.random.default_rng(seed)
        if shape == "uniform":
            half = np.sqrt(3.0 * w)
            energies = rng.uniform(-half, half, n_atoms)
        else:
            energies = rng.normal(0.0, np.sqrt(w), n_atoms)
    return DisorderRealization(seed=seed, energies=energies, variance_w=float(w))


def assemble(
    vc: ChainConfig,
    couplings: CouplingMatrices,
    disorder: DisorderRealization | None = None,
) -> NonHermitianHamiltonian:
    """H = H_S + shift - (i/2) * decay + V on the flattened index space."""
    dim = 2 * vc.n_atoms
    if couplings.decay.shape != (dim, dim):
        raise ValueError(
            f"coupling matrices are {couplings.decay.shape}, config needs {(dim, dim)}"
        )
    h = drive_hamiltonian(vc) + couplings.shift - 0.5j * couplings.decay
    if disorder is not None:
        if disorder.energies.shape != (vc.n_atoms,):
            raise ValueError(
                f"disorder has {disorder.energies.shape[0]} sites, config has {vc.n_atoms}"
            )
        h[np.diag_indices_from(h)] += np.repeat(disorder.energies, 2)
    return NonHermitianHamiltonian(matrix=h)
