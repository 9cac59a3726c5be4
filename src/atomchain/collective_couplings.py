"""Closed-form on-axis coupling kernel and collective coupling matrices.

The chain couples to the vacuum field, which mediates a coherent frequency
shift and a correlated decay between every pair of (site, polarization)
states.  Both come from the normalized free-space dyadic Green's function

    G(r) = (e^{iu} / (4 pi r)) [ (1 + i/u - 1/u^2) I
                                 + (-1 - 3i/u + 3/u^2) rhat rhat ],   u = k0 r,

contracted with the circular dipole unit vectors d_(+/-) = -/+ (x +/- i y)/sqrt(2):

    decay_{ns,ms'} = (6 pi GAMMA0 / k0) * Im[ d_s^* . G(r_n - r_m) . d_s' ]   (n != m)
    shift_{ns,ms'} = -(3 pi GAMMA0 / k0) * Re[ d_s^* . G(r_n - r_m) . d_s' ]  (n != m)

with decay_{ns,ns} = GAMMA0 and shift_{ns,ns} = 0 (the self shift is absorbed
into the transition frequency).  This normalization reproduces
Im[d^* . G(0) . d] -> k0 / (6 pi), i.e. the single-atom linewidth.

On the z axis rhat = z is orthogonal to both dipoles, so the rhat rhat term
drops out of every contraction, and on the transverse plane G is the scalar

    g(r) = e^{iu} (1 + i/u - 1/u^2) / (4 pi r)

times the identity: G_xx = G_yy = g and G_xy = 0.  Hence
d_s^* . G . d_s' = g * delta_ss': one kernel serves both polarizations, and
the cross-polarization contraction d_+^* . G . d_- = -(G_xx - G_yy)/2
vanishes identically, because the xx and yy components cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .chain_model import GAMMA0, K0, ChainConfig, positions


@dataclass(frozen=True)
class CouplingMatrices:
    """Real symmetric collective shift and PSD decay matrices, flattened indexing."""

    shift: np.ndarray
    decay: np.ndarray


def build_couplings(vc: ChainConfig) -> CouplingMatrices:
    """Assemble shift and decay over the flattened (site, polarization) index.

    The chain is translation invariant, so g is evaluated once on the
    n_atoms - 1 distinct separations; the per-polarization blocks are
    symmetric Toeplitz and the cross-polarization entries exact zeros.
    """
    n = vc.n_atoms
    r = positions(vc)[1:]
    u = K0 * r
    g = np.exp(1.0j * u) * (1.0 + 1.0j / u - 1.0 / u**2) / (4.0 * np.pi * r)
    decay_block = toeplitz(np.concatenate(([GAMMA0], (6.0 * np.pi * GAMMA0 / K0) * g.imag)))
    shift_block = toeplitz(np.concatenate(([0.0], -(3.0 * np.pi * GAMMA0 / K0) * g.real)))

    decay = np.zeros((2 * n, 2 * n))
    shift = np.zeros((2 * n, 2 * n))
    for off in (0, 1):  # plus block then minus block, interleaved site-major
        decay[off::2, off::2] = decay_block
        shift[off::2, off::2] = shift_block
    return CouplingMatrices(shift=shift, decay=decay)
