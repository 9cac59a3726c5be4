# atomchain.cli pins the BLAS thread pools to one thread on import, which only
# takes effect before numpy is first imported; ensemble tests with several
# worker processes would otherwise oversubscribe the cores.
import atomchain.cli  # noqa: F401  (must stay the first import)

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from atomchain.chain_model import ChainConfig, validate
from atomchain.collective_couplings import build_couplings

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
