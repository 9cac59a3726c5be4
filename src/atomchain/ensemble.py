"""Seeded, reproducible disorder ensembles and paired-configuration studies.

Each (w_index, realization_index) cell derives its random stream as
SeedSequence(master_seed, spawn_key=(w_index, realization_index)), so any
single cell can be recomputed bit-exactly in isolation and results cannot
depend on execution order or worker count.  With max_workers > 1 the cells
run in a pool of worker processes started by fork (POSIX only), at most one
per CPU the process may run on.  The workers inherit the configuration's
shared pieces, so only a cell's indices and its five scalars cross the
pipe; one worker runs them in a plain loop, with no pool.  Aggregation
reads the preallocated result arrays in fixed index order.

Observables per realization, evaluated on the state at observation_time:

    survival                total excited population
    kspace_ipr              Sum p^2/(Sum p)^2 of the minus-branch momentum
                            distribution (the initially populated branch)
    kspace_participation    its reciprocal: occupied momentum modes
    realspace_ipr           same functional on total site populations;
                            grows under disorder-induced localization
    realspace_participation its reciprocal: occupied sites

Every cell starts from the same spin wave, launched at the default site of
dynamics.spin_wave.  A cell propagates it with dynamics.TaylorPropagator,
built once per configuration from the disorder-free H, with the cell's
on-site energies added in O(N); no cell factorizes H.  Cells whose Taylor
series would need more than N^2 / 200 steps (long observation times; the
rule is dynamics.taylor_pays) fall back to the spectral
dynamics.Propagator of the assembled H, whose cost does not grow with t.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .chain_model import ChainConfig, validate
from .collective_couplings import build_couplings
from .dynamics import (
    Propagator,
    TaylorPropagator,
    momentum_distribution,
    propagate_to,
    site_participation,
    spin_wave,
    taylor_pays,
)
from .hamiltonian import DisorderRealization, assemble, disorder_sample

SCALAR_OBSERVABLES = (
    "survival",
    "kspace_ipr",
    "kspace_participation",
    "realspace_ipr",
    "realspace_participation",
)
_FAILURE_FRACTION_LIMIT = 0.05


@dataclass(frozen=True)
class EnsembleSpec:
    base_config: ChainConfig
    w_values: tuple[float, ...]
    n_realizations: int = 50
    master_seed: int = 0
    observation_time: float = 13.0
    max_workers: int = 1

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if not 0.0 <= self.observation_time < np.inf:
            raise ValueError("observation_time must be finite and >= 0")
        # disorder_sample draws on [-sqrt(3 W), sqrt(3 W)], so that bound must be finite
        if not all(0.0 <= 3.0 * w < np.inf for w in self.w_values):
            raise ValueError("disorder variances must be >= 0 with sqrt(3 W) finite")


def realization_seed(master_seed: int, w_index: int, realization_index: int) -> np.random.SeedSequence:
    """The documented per-cell seed derivation."""
    return np.random.SeedSequence(master_seed, spawn_key=(w_index, realization_index))


@dataclass
class EnsembleResult:
    scalars: dict[str, np.ndarray]          # (n_w, n_realizations)
    aggregates: dict[str, np.ndarray]       # (n_w, 3): mean, sem, n
    failures: list[tuple[int, int, str]] = field(default_factory=list)


def _cell_scalars(vc: ChainConfig, state) -> dict[str, float]:
    mom = momentum_distribution(state, vc)
    site_ipr, site_part = site_participation(state)
    return {
        "survival": state.norm,
        "kspace_ipr": mom.ipr_minus,
        "kspace_participation": mom.participation_minus,
        "realspace_ipr": site_ipr,
        "realspace_participation": site_part,
    }


class _ConfigRunner:
    """Shared immutable pieces for the spec's chain configuration."""

    def __init__(self, spec: EnsembleSpec):
        self.vc = validate(spec.base_config)
        self.couplings = build_couplings(self.vc)
        self.blocks = TaylorPropagator.from_hamiltonian(assemble(self.vc, self.couplings))
        self.state0 = spin_wave(self.vc)
        self.spec = spec

    def run_cell(self, disorder: DisorderRealization | None) -> dict[str, float]:
        t = self.spec.observation_time
        prop = self.blocks if disorder is None else self.blocks.with_onsite(disorder.energies)
        if not taylor_pays(prop.steps(t), self.vc.n_atoms):
            prop = Propagator(assemble(self.vc, self.couplings, disorder))
        state = propagate_to(self.state0, prop, t)
        return _cell_scalars(self.vc, state)


def _aggregate(values: np.ndarray) -> np.ndarray:
    """(n_w, 3) rows of mean, standard error, count along the realization axis.

    Only finite cells count: a failed realization (NaN, and listed among the
    failures) drops out of the mean, the standard error and the reported count.
    """
    rows = []
    for row in values:
        ok = row[np.isfinite(row)]
        n = ok.size
        if n == 0:
            rows.append((np.nan, np.nan, 0))
        elif np.ptp(ok) == 0.0:
            # identical realizations (the W = 0 column) must aggregate without
            # summation rounding: mean is the common value, spread exactly zero
            rows.append((ok[0], 0.0, n))
        else:
            rows.append((ok.mean(), ok.std(ddof=1) / np.sqrt(n), n))
    return np.array(rows, dtype=float).reshape(-1, 3)


# The _ConfigRunner of a forked pool worker, set by _init_worker as it starts.
_worker_runner: _ConfigRunner | None = None


def _init_worker(runner: _ConfigRunner) -> None:
    global _worker_runner
    _worker_runner = runner


def _run_cell(cell, runner: _ConfigRunner | None = None):
    """(cell, scalars, None) or (cell, None, error) for one (w_index, slots) cell.

    Pool workers pass no runner and use the one they inherited at fork.
    """
    runner = _worker_runner if runner is None else runner
    spec = runner.spec
    wi, slots = cell
    w = spec.w_values[wi]
    try:
        disorder = None
        if w > 0.0:
            disorder = disorder_sample(
                realization_seed(spec.master_seed, wi, slots[0]),
                w,
                runner.vc.n_atoms,
            )
        payload = runner.run_cell(disorder)
    except Exception as exc:  # recorded, not raised: partial ensembles are useful
        return cell, None, f"{type(exc).__name__}: {exc}"
    bad = [name for name, val in payload.items() if not np.isfinite(val)]
    if bad:
        return cell, None, f"non-finite {', '.join(bad)}"
    return cell, payload, None


def _run_in_processes(runner: _ConfigRunner, cells: list, workers: int) -> list:
    """Every cell's _run_cell outcome, in cell order, from `workers` forked processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a spawned worker would import numpy and atomchain afresh
    # (about 0.26 s, against about 17 ms per cell) and need the runner pickled.
    # The executor forks every worker before it starts its own threads.
    outcomes = []
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(runner,),
    ) as pool:
        try:
            # a cell takes milliseconds, so one cell per pipe message costs nothing
            for outcome in pool.map(_run_cell, cells, chunksize=1):
                outcomes.append(outcome)
        except BrokenProcessPool as exc:
            lost = [(wi, ri) for wi, slots in cells[len(outcomes):] for ri in slots]
            raise RuntimeError(
                f"an ensemble worker process died; {len(lost)} realizations "
                f"(w_index, realization) never returned: {lost}"
            ) from exc
    return outcomes


def run_ensemble(spec: EnsembleSpec) -> EnsembleResult:
    """Sweep disorder variances with n_realizations seeded draws of spec.base_config.

    Each W = 0 entry is one cell that fills every realization slot (zero
    disorder is seed independent); each W > 0 entry is one cell per draw.
    A cell fails when it raises or when any of its scalars is non-finite;
    failures are recorded for every slot they cover and skipped, and more
    than 5 percent failing aborts the run.  Up to spec.max_workers forked
    processes run the cells, never more than there are cells or CPUs this
    process may run on; a worker process that dies aborts the run with a
    RuntimeError naming the realizations that never returned.
    """
    runner = _ConfigRunner(spec)
    n_w, n_r = len(spec.w_values), spec.n_realizations
    scalars = {name: np.full((n_w, n_r), np.nan) for name in SCALAR_OBSERVABLES}
    failures: list[tuple[int, int, str]] = []

    # a cell is (w_index, the realization slots it fills)
    cells = []
    for wi, w in enumerate(spec.w_values):
        if w == 0.0:
            cells.append((wi, range(n_r)))
        else:
            cells.extend((wi, range(ri, ri + 1)) for ri in range(n_r))

    workers = min(spec.max_workers, len(cells), len(os.sched_getaffinity(0)))
    if workers <= 1:
        outcomes = [_run_cell(cell, runner) for cell in cells]
    else:
        outcomes = _run_in_processes(runner, cells, workers)

    for (wi, slots), payload, err in outcomes:
        if err is not None:
            failures.extend((wi, ri, err) for ri in slots)
            continue
        for name, val in payload.items():
            scalars[name][wi, slots] = val

    total_cells = n_w * n_r
    if len(failures) > _FAILURE_FRACTION_LIMIT * total_cells:
        raise RuntimeError(
            f"{len(failures)} of {total_cells} realizations failed; first: {failures[0]}"
        )

    aggregates = {name: _aggregate(vals) for name, vals in scalars.items()}
    return EnsembleResult(scalars=scalars, aggregates=aggregates, failures=failures)


@dataclass
class PairedComparison:
    """Per-W paired statistics of spec.base_config minus its twin, identical disorder."""

    result_a: EnsembleResult
    result_b: EnsembleResult
    diff_mean: dict[str, np.ndarray]
    diff_sem: dict[str, np.ndarray]
    z_score: dict[str, np.ndarray]


def compare_configs(spec: EnsembleSpec, twin: ChainConfig) -> PairedComparison:
    """Run spec.base_config and twin on identical disorder draws and difference them.

    The twin must share the base geometry (n_atoms and lattice_const); drive
    parameters may differ.  The paired design removes the draw-to-draw
    variance, so orderings resolve at far fewer realizations.
    """
    base = spec.base_config
    if base.n_atoms != twin.n_atoms:
        raise ValueError(
            f"paired configs need equal n_atoms, got {base.n_atoms} and {twin.n_atoms}"
        )
    if base.lattice_const != twin.lattice_const:
        raise ValueError("paired configs need identical lattice_const")
    result_a = run_ensemble(spec)
    result_b = run_ensemble(replace(spec, base_config=twin))
    diff_mean, diff_sem, z_score = {}, {}, {}
    for name in SCALAR_OBSERVABLES:
        # a cell that failed in either config is NaN here and drops out
        mean, sem, _ = _aggregate(result_a.scalars[name] - result_b.scalars[name]).T
        diff_mean[name] = mean
        diff_sem[name] = sem
        with np.errstate(divide="ignore", invalid="ignore"):
            z_score[name] = np.where(sem > 0, mean / sem, np.where(mean == 0, 0.0, np.nan))
    return PairedComparison(
        result_a=result_a,
        result_b=result_b,
        diff_mean=diff_mean,
        diff_sem=diff_sem,
        z_score=z_score,
    )
