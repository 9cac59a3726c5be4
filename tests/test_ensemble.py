import multiprocessing
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from atomchain import ensemble
from atomchain.chain_model import ChainConfig, read_config
from atomchain.dynamics import spin_wave, taylor_pays
from atomchain.ensemble import (
    EnsembleSpec,
    _cell_scalars,
    _ConfigRunner,
    compare_configs,
    realization_seed,
    run_ensemble,
)
from atomchain.hamiltonian import assemble, disorder_sample

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
    # --sqrt-w 1e200 and 1e154: W = inf, and a finite W whose bound sqrt(3 W) overflows
    for sqrt_w in (1e200, 1e154):
        with pytest.raises(ValueError, match="variances"):
            small_spec(w_values=(sqrt_w * sqrt_w,))
    # each of these times would fail every cell, and the run with them
    for t in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="observation_time"):
            small_spec(observation_time=t)


@pytest.mark.parametrize("workers", [0, -2])
def test_spec_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="max_workers"):
        small_spec(max_workers=workers)


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
    twin = replace(SMALL, mixing_angle=0.0)
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


def is_draw(runner, disorder, w_index, realization):
    """Whether disorder is the documented draw of cell (w_index, realization) in runner's spec."""
    spec = runner.spec
    seed = realization_seed(spec.master_seed, w_index, realization)
    draw = disorder_sample(seed, spec.w_values[w_index], runner.vc.n_atoms)
    return disorder is not None and np.array_equal(disorder.energies, draw.energies)


def test_non_finite_cell_is_a_recorded_failure(monkeypatch):
    spec = small_spec(n_realizations=21)
    run_cell = _ConfigRunner.run_cell

    def blank(self, disorder):
        scalars = run_cell(self, disorder)
        if is_draw(self, disorder, 1, 3):
            scalars["realspace_ipr"] = scalars["realspace_participation"] = np.nan
        return scalars

    monkeypatch.setattr(_ConfigRunner, "run_cell", blank)
    result = run_ensemble(spec)
    assert result.failures == [(1, 3, "non-finite realspace_ipr, realspace_participation")]
    # the whole cell drops out of every observable, and the count says so
    for name, values in result.scalars.items():
        assert np.isnan(values[1, 3]), name
        assert result.aggregates[name][:, 2].tolist() == [21, 20], name


def fail_on_draw(cell, fail):
    """A run_cell that calls fail() on the W > 0 draw of cell; forked workers inherit it."""
    run_cell = _ConfigRunner.run_cell

    def patched(self, disorder):
        if is_draw(self, disorder, *cell):
            fail()
        return run_cell(self, disorder)

    return patched


def synthetic_failure():
    raise RuntimeError("synthetic failure")


def two_cpus(monkeypatch):
    """Let the ensemble see two usable CPUs, so max_workers=2 forks on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_raising_cell_is_recorded_alike_in_workers_and_serially(monkeypatch):
    two_cpus(monkeypatch)
    monkeypatch.setattr(_ConfigRunner, "run_cell", fail_on_draw((1, 3), synthetic_failure))
    spec = small_spec(n_realizations=21)
    serial, pooled = (run_ensemble(replace(spec, max_workers=w)) for w in (1, 2))
    assert multiprocessing.active_children() == []
    for result in (serial, pooled):
        assert result.failures == [(1, 3, "RuntimeError: synthetic failure")]
        for name, values in result.scalars.items():
            assert np.isnan(values[1, 3]), name
            assert result.aggregates[name][:, 2].tolist() == [21, 20], name
    for name in serial.scalars:
        assert np.array_equal(serial.scalars[name], pooled.scalars[name], equal_nan=True)
        assert np.array_equal(serial.aggregates[name], pooled.aggregates[name])


def test_dead_worker_aborts_naming_the_lost_cells(monkeypatch):
    two_cpus(monkeypatch)  # os._exit must run in a worker, never in this process
    monkeypatch.setattr(_ConfigRunner, "run_cell", fail_on_draw((1, 3), lambda: os._exit(1)))
    with pytest.raises(RuntimeError, match=r"worker process died; \d+ realizations") as info:
        run_ensemble(small_spec(max_workers=2))
    assert "(1, 3)" in str(info.value)
    assert multiprocessing.active_children() == []


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool run_ensemble starts, on a 4-CPU view of the host."""
    import concurrent.futures

    sizes = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    return sizes


def test_pool_never_outnumbers_the_cells(pool_sizes):
    serial = run_ensemble(small_spec(n_realizations=1))
    # one W = 0 cell and one W > 0 draw: two cells, so two workers of three
    pooled = run_ensemble(small_spec(n_realizations=1, max_workers=3))
    # a single cell runs in this process
    run_ensemble(small_spec(w_values=(0.5,), n_realizations=1, max_workers=3))
    assert pool_sizes == [2]
    assert multiprocessing.active_children() == []
    for name in serial.scalars:
        assert np.array_equal(serial.scalars[name], pooled.scalars[name]), name


def test_pool_never_outnumbers_the_usable_cpus(pool_sizes, monkeypatch):
    # one W = 0 cell and three W > 0 draws: four cells, asking for eight workers
    spec = small_spec(n_realizations=3, max_workers=8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pooled = run_ensemble(spec)
    # a process pinned to one CPU runs its cells in a plain loop
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    serial = run_ensemble(spec)
    assert pool_sizes == [2]
    assert multiprocessing.active_children() == []
    for name in serial.scalars:
        assert np.array_equal(serial.scalars[name], pooled.scalars[name]), name


SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "directional.cfg"


def test_cell_bits_do_not_depend_on_the_global_rng():
    # scipy's expm_multiply estimates norms with numpy's global RNG, so its
    # output can depend on np.random.seed; a cell must neither read nor move it
    vc, seed = read_config(SHIPPED)
    runner = _ConfigRunner(EnsembleSpec(base_config=vc, w_values=(1.0,), master_seed=seed))
    draw = disorder_sample(realization_seed(seed, 0, 0), 1.0, vc.n_atoms)
    assert runner.blocks.with_onsite(draw.energies).steps(13.0) * 200 <= vc.n_atoms**2
    runs = []
    for global_seed in (0, 12345):
        np.random.seed(global_seed)
        before = np.random.get_state()
        runs.append(runner.run_cell(draw))
        after = np.random.get_state()
        assert after[2] == before[2] and np.array_equal(after[1], before[1])
    assert runs[0] == runs[1]


def test_long_times_take_the_propagator_path_and_agree(monkeypatch):
    vc = ChainConfig(n_atoms=24, lattice_const=0.125, mixing_angle=np.pi / 4)
    draw = disorder_sample(realization_seed(3, 0, 0), 1.0, vc.n_atoms)
    spectral = []
    propagator = ensemble.Propagator
    monkeypatch.setattr(ensemble, "Propagator", lambda h: spectral.append(h) or propagator(h))
    blocks = _ConfigRunner(small_spec(base_config=vc)).blocks.with_onsite(draw.energies)
    step = 9.9 / blocks._shift()[2]  # the time one Taylor step covers
    last = vc.n_atoms**2 // 200  # the most steps the Taylor path takes
    state0 = spin_wave(vc)
    cases = (((last - 0.5) * step, False), ((last + 0.5) * step, True), (30.0, True))
    for t, on_spectral_path in cases:
        spectral.clear()
        runner = _ConfigRunner(small_spec(base_config=vc, observation_time=t))
        got = runner.run_cell(draw)
        assert bool(spectral) == on_spectral_path, t
        # the other path, at the same time and through the same observables
        if on_spectral_path:
            amps = blocks.apply(state0.amps, t)
        else:
            amps = propagator(assemble(runner.vc, runner.couplings, draw)).apply(state0.amps, t)
        other = _cell_scalars(runner.vc, replace(state0, amps=amps, time=t))
        for name, value in got.items():
            assert value == pytest.approx(other[name], rel=1e-12), (t, name)


@pytest.mark.parametrize("n_atoms", [16, 205])
def test_shared_rule_keeps_the_cell_decision(monkeypatch, n_atoms):
    vc = ChainConfig(n_atoms=n_atoms, lattice_const=0.125, mixing_angle=np.pi / 4)
    spectral = []
    propagator = ensemble.Propagator
    monkeypatch.setattr(ensemble, "Propagator", lambda h: spectral.append(h) or propagator(h))
    blocks = _ConfigRunner(small_spec(base_config=vc)).blocks
    step = 9.9 / blocks._shift()[2]  # the time one Taylor step covers
    last = n_atoms**2 // 200
    for steps in (last, last + 1):
        t = (steps - 0.5) * step
        assert blocks.steps(t) == steps
        spectral.clear()
        _ConfigRunner(small_spec(base_config=vc, observation_time=t)).run_cell(None)
        # run_cell's inline rule before taylor_pays: spectral when s * 200 > N^2
        assert bool(spectral) == (steps * 200 > n_atoms**2) == (not taylor_pays(steps, n_atoms))
