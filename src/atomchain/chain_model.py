"""Chain geometry, drive parameters, units, and the single-excitation index space.

Natural units throughout the package: the single-atom linewidth GAMMA0 = 1 sets
the frequency scale, the transition wavelength LAMBDA0 = 1 sets the length
scale (so k0 = 2*pi), and hbar = c = 1.  Atoms sit on the z axis at
z_n = n * lattice_const for n = 0 .. n_atoms - 1.  Each atom carries two
excited states labelled by a circular polarization s in {+1, -1}; the
corresponding dipole unit vectors are d_(+/-) = -/+ (x +/- i y) / sqrt(2),
both transverse to the chain axis.

Single-excitation amplitudes are flattened site-major with the plus state
first: flat index = 2 * site + (0 if s == +1 else 1).  Every matrix in the
package uses this ordering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

GAMMA0 = 1.0
LAMBDA0 = 1.0
K0 = 2.0 * np.pi / LAMBDA0

#: Largest lattice constant (in units of LAMBDA0) at which strictly guided,
#: lossless collective modes can exist: half the transition wavelength.
SUBRADIANCE_LATTICE_LIMIT = 0.5


class ConfigError(ValueError):
    """Raised when a configuration value is rejected; names the bad field."""


class Polarization(enum.IntEnum):
    PLUS = +1
    MINUS = -1


POLARIZATIONS = (Polarization.PLUS, Polarization.MINUS)

# Circular dipole unit vectors in the Cartesian (x, y, z) basis.
DIPOLE_VECTORS = {
    Polarization.PLUS: np.array([-1.0, -1.0j, 0.0]) / np.sqrt(2.0),
    Polarization.MINUS: np.array([1.0, -1.0j, 0.0]) / np.sqrt(2.0),
}


def flatten_index(site: int, pol: Polarization) -> int:
    """Site-major flattening, plus before minus."""
    return 2 * site + (0 if pol == Polarization.PLUS else 1)


def unflatten_index(flat: int) -> tuple[int, Polarization]:
    site, rem = divmod(flat, 2)
    return site, Polarization.PLUS if rem == 0 else Polarization.MINUS


@dataclass(frozen=True)
class ChainConfig:
    """Geometry and drive parameters of the chain.

    Units: lattice_const in LAMBDA0; delta_shift (two-photon light shift) and
    detuning in GAMMA0; mixing_angle in radians; control_wavevector in units
    of 1/lattice_const, so the drive phase at site n is simply
    control_wavevector * n.
    """

    n_atoms: int
    lattice_const: float
    delta_shift: float = 10.0 / 3.0
    mixing_angle: float = 0.0
    control_wavevector: float = np.pi / 5.0
    detuning: float = 0.0

    @property
    def control_wavevector_abs(self) -> float:
        """The control wavevector in absolute units (1/LAMBDA0)."""
        return self.control_wavevector / self.lattice_const

    @property
    def subradiant(self) -> bool:
        """The spacing admits strictly guided, lossless collective modes."""
        return self.lattice_const <= SUBRADIANCE_LATTICE_LIMIT

    @property
    def reciprocal(self) -> bool:
        """The Raman mixing vanishes, so transport is direction symmetric."""
        return abs(np.sin(self.mixing_angle)) < 1e-12


_DRIVE_FIELDS = ("delta_shift", "mixing_angle", "control_wavevector", "detuning")


def validate(config: ChainConfig) -> ChainConfig:
    """Check physicality; return the config with plain int/float fields."""
    if not isinstance(config.n_atoms, (int, np.integer)) or config.n_atoms < 1:
        raise ConfigError(f"n_atoms must be a positive integer, got {config.n_atoms!r}")
    if not config.lattice_const > 0.0:
        raise ConfigError(f"lattice_const must be > 0, got {config.lattice_const!r}")
    for name in _DRIVE_FIELDS:
        if not np.isfinite(getattr(config, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(config, name)!r}")
    return ChainConfig(
        n_atoms=int(config.n_atoms),
        lattice_const=float(config.lattice_const),
        **{name: float(getattr(config, name)) for name in _DRIVE_FIELDS},
    )


def positions(vc: ChainConfig) -> np.ndarray:
    """Atom z coordinates z_n = n * a, strictly increasing, length n_atoms."""
    return np.arange(vc.n_atoms) * vc.lattice_const


# --------------------------------------------------------------------------
# Flat key=value config files.  Exactly these keys are accepted; `seed` is
# carried alongside the chain parameters for the CLI and ensemble front ends.

_CONFIG_KEYS = (
    "n_atoms",
    "lattice_const",
    "delta_shift",
    "mixing_angle",
    "control_wavevector",
    "detuning",
    "seed",
)


def read_config(path: str | Path) -> tuple[ChainConfig, int | None]:
    """Parse a flat key=value config file; '#' starts a comment.

    Returns the chain config and the optional seed (None if absent).
    Unknown keys are rejected so typos cannot silently fall back to defaults.
    """
    text = Path(path).read_text()
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val.strip()

    if "n_atoms" not in values or "lattice_const" not in values:
        raise ConfigError(f"{path}: n_atoms and lattice_const are required")

    def _num(key: str, cast):
        try:
            return cast(values[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key}: {values[key]!r}") from exc

    kwargs = {"n_atoms": _num("n_atoms", int), "lattice_const": _num("lattice_const", float)}
    for key in _DRIVE_FIELDS:
        if key in values:
            kwargs[key] = _num(key, float)
    seed = _num("seed", int) if "seed" in values else None
    return ChainConfig(**kwargs), seed


def write_config(path: str | Path, config: ChainConfig, seed: int | None = None) -> None:
    lines = [f"{f.name} = {getattr(config, f.name)!r}" for f in fields(config)]
    if seed is not None:
        lines.append(f"seed = {seed}")
    Path(path).write_text("\n".join(lines) + "\n")


def with_mixing_angle(config: ChainConfig, mixing_angle: float) -> ChainConfig:
    """Copy of the config with only the drive mixing angle changed."""
    return replace(config, mixing_angle=mixing_angle)
