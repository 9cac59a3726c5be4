# atomchain.cli pins the BLAS thread pools to one thread on import, which only
# takes effect before numpy is first imported; ensemble tests with several
# worker processes would otherwise oversubscribe the cores.
import atomchain.cli  # noqa: F401  (must stay the first import)

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from atomchain.chain_model import ChainConfig, validate
from atomchain.collective_couplings import build_couplings
from atomchain.dynamics import TaylorPropagator
from atomchain.spectrum import NormalModes

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def rec24():
    return validate(ChainConfig(n_atoms=24, lattice_const=0.125, mixing_angle=0.0))


@pytest.fixture(scope="session")
def dir24():
    return validate(ChainConfig(n_atoms=24, lattice_const=0.125, mixing_angle=np.pi / 4))


@pytest.fixture(scope="session")
def rec24_couplings(rec24):
    return build_couplings(rec24)


@pytest.fixture(scope="session")
def dir24_couplings(dir24):
    return build_couplings(dir24)


def _hermitian_part(h):
    return 0.5 * (h + h.conj().T)


@pytest.fixture(scope="session")
def hermitian_part():
    """Return h -> (h + h^dag) / 2: what KMatrixScattering takes for the matrix h of H."""
    return _hermitian_part


def _basis(h, name):
    # "schur": the Schur vectors of H, in which H is upper triangular;
    # "spectral": the eigenvectors of H's Hermitian part, in which it is diagonal
    if name == "schur":
        from scipy.linalg import schur

        return schur(h, output="complex")[1]
    return np.linalg.eigh(_hermitian_part(h))[1]


@pytest.fixture(scope="session")
def change_basis():
    """Return (h, modes, name) -> (q, h', modes'): the chain in the basis q.

    h' = q^dag h q and S' = q^dag S q, so the channels q @ U' of a
    ChannelSMatrix found in the new basis give back the site-basis S.
    """

    def rotate(h, modes, name):
        q = _basis(h, name)
        return q, q.conj().T @ h @ q, NormalModes(
            rates=modes.rates, vectors=q.conj().T @ modes.vectors, floor=modes.floor
        )

    return rotate


def _lu_transmittances(energy, h, gamma_half, pairs):
    """T for each (source, target) site pair at one energy, from LU solves.

    The LU reference of scattering.s_matrix solved for the source sites'
    columns alone: one lu_factor of E - H, (E - H) x = sqrt(gamma)[:, columns]
    refined once, and each pair's 2 x 2 block of 1 - i sqrt(gamma) x summed
    as scattering.transmittance sums it.
    """
    from scipy.linalg import lu_factor, lu_solve

    sources = sorted({source for source, _ in pairs})
    columns = [2 * site + p for site in sources for p in (0, 1)]
    a = energy * np.eye(h.shape[0], dtype=complex) - h
    lu = lu_factor(a)
    rhs = gamma_half[:, columns]
    x = lu_solve(lu, rhs)
    x += lu_solve(lu, rhs - a @ x)
    out = []
    for source, target in pairs:
        rows, cols = [2 * target, 2 * target + 1], [2 * source, 2 * source + 1]
        at = 2 * sources.index(source)
        block = np.equal.outer(rows, cols) - 1j * gamma_half[rows] @ x[:, at : at + 2]
        out.append(float(np.sum(np.abs(block) ** 2)))
    return np.array(out)


@pytest.fixture(scope="session")
def lu_transmittances():
    """Return (energy, h, gamma_half, pairs) -> the LU reference T of each site pair."""
    return _lu_transmittances


class OneNormTaylor(TaylorPropagator):
    """TaylorPropagator with its steps sized by the exact 1-norm of H - mu I.

    The step rule TaylorPropagator had before its 2-norm bound, kept as the
    oracle that the bound moves the results only at rounding: the series,
    the early stop and the block product are the same code.
    """

    def _shift(self):
        mu, shifted, _ = super()._shift()
        n = shifted.shape[0]
        k = self.stacked[:n] + 1.0j * self.stacked[n:]
        # column (m, s) holds K's column m, the diagonal entry and the Raman
        # entry of the other polarization's row
        columns = np.abs(k).sum(axis=0)[:, None] + np.abs(shifted) + np.abs(self.raman[:, ::-1])
        return mu, shifted, float(np.max(columns))


@pytest.fixture(scope="session")
def one_norm_taylor():
    return OneNormTaylor
