import numpy as np
import pytest

from atomchain.chain_model import (
    DIPOLES,
    GAMMA0,
    K0,
    LAMBDA0,
    ChainConfig,
    ConfigError,
    positions,
    read_config,
    validate,
)


def test_natural_units():
    assert GAMMA0 == 1.0
    assert LAMBDA0 == 1.0
    assert K0 == pytest.approx(2.0 * np.pi, abs=0.0)


def test_dipole_vectors_orthonormal_and_transverse():
    # one row per polarization in layout order: d_+ = -(x + i y) / sqrt(2), then d_-
    x, y, _ = np.eye(3)
    assert DIPOLES.shape == (2, 3)
    assert np.abs(DIPOLES.conj() @ DIPOLES.T - np.eye(2)).max() < 1e-15
    assert np.all(DIPOLES[:, 2] == 0.0)
    assert np.abs(DIPOLES[0] + (x + 1j * y) / np.sqrt(2.0)).max() < 1e-15
    assert np.abs(DIPOLES[1] - (x - 1j * y) / np.sqrt(2.0)).max() < 1e-15


def test_positions_spacing():
    vc = validate(ChainConfig(n_atoms=7, lattice_const=0.3))
    zs = positions(vc)
    assert zs.shape == (7,)
    assert np.allclose(np.diff(zs), 0.3)
    assert zs[0] == 0.0


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"n_atoms": 0}, "n_atoms"),
        ({"n_atoms": -3}, "n_atoms"),
        ({"lattice_const": 0.0}, "lattice_const"),
        ({"lattice_const": -1.0}, "lattice_const"),
        ({"lattice_const": float("nan")}, "lattice_const"),
        ({"delta_shift": float("inf")}, "delta_shift"),
        ({"lattice_const": float("inf")}, "lattice_const"),
    ],
)
def test_validation_errors_name_field(kwargs, field):
    base = {"n_atoms": 5, "lattice_const": 0.125}
    base.update(kwargs)
    with pytest.raises(ConfigError, match=field):
        validate(ChainConfig(**base))


def test_single_atom_allowed():
    vc = validate(ChainConfig(n_atoms=1, lattice_const=0.125))
    assert vc.n_atoms == 1


def test_control_wavevector_per_site_scaling():
    vc = validate(ChainConfig(n_atoms=4, lattice_const=0.25, control_wavevector=np.pi / 5))
    assert vc.control_wavevector_abs == pytest.approx((np.pi / 5) / 0.25, rel=1e-15)


def test_as_config_round_trip():
    cfg = ChainConfig(n_atoms=9, lattice_const=0.2, mixing_angle=0.4, detuning=-0.3)
    assert validate(cfg) == cfg


def test_config_file_round_trip(tmp_path):
    cfg = ChainConfig(
        n_atoms=17,
        lattice_const=0.1875,
        delta_shift=2.5,
        mixing_angle=0.7,
        control_wavevector=0.9,
        detuning=-0.25,
    )
    path = tmp_path / "chain.cfg"
    path.write_text(
        "n_atoms = 17\nlattice_const = 0.1875\ndelta_shift = 2.5\nmixing_angle = 0.7\n"
        "control_wavevector = 0.9\ndetuning = -0.25\nseed = 12345\n"
    )
    loaded, seed = read_config(str(path))
    assert loaded == cfg
    assert seed == 12345


def test_config_file_seed_optional(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("n_atoms = 3\nlattice_const = 0.125\n")
    cfg, seed = read_config(str(path))
    assert cfg.n_atoms == 3
    assert seed is None


def test_config_file_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# header\n\nn_atoms = 3\n# inline section\nlattice_const = 0.125\n")
    cfg, _ = read_config(str(path))
    assert cfg.lattice_const == 0.125


@pytest.mark.parametrize(
    "body, message",
    [
        ("n_atoms = 3\n", "lattice_const"),
        ("n_atoms = 3\nlattice_const = 0.1\nwavelength = 2\n", "wavelength"),
        ("n_atoms = 3\nn_atoms = 4\nlattice_const = 0.1\n", "duplicate"),
        ("n_atoms three\nlattice_const = 0.1\n", "key=value"),
        ("n_atoms = 3\nlattice_const = 0.1\nseed = -1\n", "seed"),
    ],
)
def test_config_file_errors(tmp_path, body, message):
    path = tmp_path / "bad.cfg"
    path.write_text(body)
    with pytest.raises(ConfigError, match=message):
        read_config(str(path))
