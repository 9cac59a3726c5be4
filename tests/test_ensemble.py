import numpy as np
import pytest

from atomchain.chain_model import ChainConfig, with_mixing_angle
from atomchain.ensemble import (
    EnsembleSpec,
    _ConfigRunner,
    compare_configs,
    realization_seed,
    run_ensemble,
)
from atomchain.hamiltonian import disorder_sample

SMALL = ChainConfig(n_atoms=16, lattice_const=0.125, mixing_angle=np.pi / 4)


def small_spec(**overrides):
    kwargs = dict(
        base_config=SMALL,
        w_values=(0.0, 0.5),
        n_realizations=6,
        master_seed=101,
        observation_time=4.0,
    )
    kwargs.update(overrides)
    return EnsembleSpec(**kwargs)


def test_spec_validation():
    with pytest.raises(ValueError, match="n_realizations"):
        small_spec(n_realizations=0)
    with pytest.raises(ValueError, match="variances"):
        small_spec(w_values=(-0.1,))
    with pytest.raises(ValueError, match="variances"):
        small_spec(w_values=(0.0, float("nan")))


def test_realization_seed_is_stable_and_cell_specific():
    a = realization_seed(5, 0, 3)
    b = realization_seed(5, 0, 3)
    c = realization_seed(5, 1, 3)
    assert np.array_equal(
        np.random.default_rng(a).integers(0, 2**31, 8),
        np.random.default_rng(b).integers(0, 2**31, 8),
    )
    assert not np.array_equal(
        np.random.default_rng(a).integers(0, 2**31, 8),
        np.random.default_rng(c).integers(0, 2**31, 8),
    )


def test_zero_disorder_column_degenerate():
    result = run_ensemble(small_spec())
    for name, values in result.scalars.items():
        assert np.ptp(values[0]) == 0.0, name
        assert result.aggregates[name][0, 1] == 0.0, name
        assert result.aggregates[name][0, 0] == values[0, 0], name
    # and matches a direct single run of the same machinery
    runner = _ConfigRunner(small_spec())
    scalars = runner.run_cell(None)
    assert result.scalars["survival"][0, 0] == scalars["survival"]


def test_deterministic_across_worker_counts():
    serial = run_ensemble(small_spec(max_workers=1))
    threaded = run_ensemble(small_spec(max_workers=4))
    for name in serial.scalars:
        assert np.array_equal(serial.scalars[name], threaded.scalars[name]), name
        assert np.array_equal(serial.aggregates[name], threaded.aggregates[name])


def test_rerun_bitwise_identical():
    one = run_ensemble(small_spec())
    two = run_ensemble(small_spec())
    for name in one.scalars:
        assert np.array_equal(one.scalars[name], two.scalars[name])


def test_aggregate_shape_and_content():
    spec = small_spec()
    result = run_ensemble(spec)
    agg = result.aggregates["survival"]
    assert agg.shape == (2, 3)
    vals = result.scalars["survival"][1]
    assert agg[1, 0] == pytest.approx(vals.mean(), rel=1e-15)
    assert agg[1, 1] == pytest.approx(vals.std(ddof=1) / np.sqrt(len(vals)), rel=1e-12)
    assert agg[:, 2].tolist() == [6, 6]
    assert np.isfinite(result.transparency_window)


def test_disorder_mean_unbiased():
    # ensemble mean of on-site energies approaches 0 within 3 standard errors
    w, n, cells = 1.0, 64, 200
    draws = np.concatenate(
        [disorder_sample(realization_seed(11, 0, r), w, n).energies for r in range(cells)]
    )
    sem = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean()) < 3 * sem


def test_failure_fraction_aborts(monkeypatch):
    spec = small_spec()

    def explode(self, disorder):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(_ConfigRunner, "run_cell", explode)
    with pytest.raises(RuntimeError, match="realizations failed"):
        run_ensemble(spec)


def test_compare_configs_identical_inputs_zero_diff():
    spec = small_spec(n_realizations=3)
    comp = compare_configs(spec, SMALL)
    for name in comp.diff_mean:
        assert np.all(comp.diff_mean[name] == 0.0)
        assert np.all(comp.diff_sem[name] == 0.0)
        assert np.all(comp.z_score[name] == 0.0)


def test_compare_configs_paired_draws_and_w0_column():
    spec = small_spec(n_realizations=4)
    twin = with_mixing_angle(SMALL, 0.0)
    assert twin.mixing_angle == 0.0
    comp = compare_configs(spec, twin)
    # no randomness at W = 0: paired spread vanishes but the means differ
    assert comp.diff_sem["survival"][0] == 0.0
    assert comp.diff_mean["survival"][0] != 0.0
    # both results saw identical draws, so cells line up one to one
    assert comp.result_a.scalars["survival"].shape == (2, 4)


def test_compare_configs_rejects_mismatched_geometry():
    spec = small_spec()
    other = ChainConfig(n_atoms=8, lattice_const=0.125)
    with pytest.raises(ValueError, match="n_atoms"):
        compare_configs(spec, other)
    stretched = ChainConfig(n_atoms=16, lattice_const=0.25)
    with pytest.raises(ValueError, match="lattice_const"):
        compare_configs(spec, stretched)
