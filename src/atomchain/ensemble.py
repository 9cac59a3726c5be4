"""Seeded, reproducible disorder ensembles and paired-configuration studies.

A spec holds one or more chain configurations of one geometry (a driven
chain and its zero-angle twin, say) and one sweep of disorder variances.
Each (w_index, realization_index) cell derives its random stream as
SeedSequence(master_seed, spawn_key=(w_index, realization_index)), the same
for every configuration, so the configurations see identical draws, any
single cell can be recomputed bit-exactly in isolation, and results cannot
depend on execution order or worker count.  The cells of all configurations
form one list and, with max_workers > 1, run in one pool of worker
processes started by fork (POSIX only), at most one per CPU the process may
run on.  The workers inherit every configuration's shared pieces, so only
a cell's indices and its five scalars cross the pipe; one worker runs them
in a plain loop, with no pool.  Aggregation reads the preallocated result
arrays in fixed index order.

Observables per realization, evaluated on the state at observation_time:

    survival                total excited population
    kspace_ipr              Sum p^2/(Sum p)^2 of the minus-branch momentum
                            distribution (the initially populated branch)
    kspace_participation    its reciprocal: occupied momentum modes
    realspace_ipr           same functional on total site populations;
                            grows under disorder-induced localization
    realspace_participation its reciprocal: occupied sites

Every cell starts from the same spin wave, launched at the default site of
dynamics.spin_wave, and adds one disorder draw to H; the W = 0 cell is a
zero draw (exact +0.0 energies, which change no value) like any other.  A
cell propagates it with dynamics.TaylorPropagator, built once per
configuration from the disorder-free H (the couplings, which depend on the
geometry alone, are built once for all configurations), with the cell's
on-site energies added in O(N); no cell factorizes H.  A cell's
Taylor steps grow with the observation time times a bound on the 2-norm of
its H, which the disorder draw raises (7 steps at W = 0 and 9 at W = 1 on
the shipped chains at the default time).  Cells whose Taylor series would
need more than N^2 / 200 steps (long observation times or strong disorder)
take the spectral Propagator of the assembled H, whose cost does not grow
with t, as dynamics.choose_propagator decides.  Each result records the
least and the most Taylor steps over the cells that ran the series and
how many cells took the spectral path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .chain_model import ChainConfig, validate
from .collective_couplings import CouplingMatrices, build_couplings
from .dynamics import (
    TaylorPropagator,
    choose_propagator,
    momentum_distribution,
    propagate_to,
    site_participation,
    spin_wave,
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
    configs: tuple[ChainConfig, ...]
    w_values: tuple[float, ...]
    n_realizations: int = 50
    master_seed: int = 0
    observation_time: float = 13.0
    max_workers: int = 1

    def __post_init__(self):
        geometries = [(c.n_atoms, c.lattice_const) for c in self.configs]
        if len(set(geometries)) != 1:
            raise ValueError(f"configs must share one (n_atoms, lattice_const), got {geometries}")
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
    failures: list[tuple[int, int, str]]    # (w_index, realization, error)
    taylor_steps: tuple[int, int] | None    # least and most steps of the Taylor cells
    spectral_cells: int                     # cells that took the spectral Propagator


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
    """Shared immutable pieces for one of the spec's chain configurations."""

    def __init__(self, spec: EnsembleSpec, vc: ChainConfig, couplings: CouplingMatrices):
        self.vc = vc
        self.couplings = couplings
        self.blocks = TaylorPropagator.from_hamiltonian(assemble(self.vc, self.couplings))
        self.state0 = spin_wave(self.vc)
        self.spec = spec

    def run_cell(self, disorder: DisorderRealization) -> tuple[int | None, dict[str, float]]:
        """(Taylor steps taken, None on the spectral path; the cell's scalars)."""
        t = self.spec.observation_time
        taylor = self.blocks.with_onsite(disorder.energies)
        steps = taylor.steps(t)
        prop = choose_propagator(taylor, steps, lambda: assemble(self.vc, self.couplings, disorder))
        state = propagate_to(self.state0, prop, t)
        return (steps if prop is taylor else None), _cell_scalars(self.vc, state)


def _aggregate(values: np.ndarray) -> np.ndarray:
    """(n_w, 3) rows of mean, standard error, count along the realization axis.

    Only finite cells count: a failed realization (NaN, and listed among the
    failures) drops out of the mean, the standard error and the reported count.
    Fewer than two finite values estimate no spread: the standard error is NaN.
    """
    rows = []
    for row in values:
        ok = row[np.isfinite(row)]
        n = ok.size
        if n < 2:
            rows.append((ok[0] if n else np.nan, np.nan, n))
        elif np.ptp(ok) == 0.0:
            # identical realizations (the W = 0 column) must aggregate without
            # summation rounding: mean is the common value, spread exactly zero
            rows.append((ok[0], 0.0, n))
        else:
            rows.append((ok.mean(), ok.std(ddof=1) / np.sqrt(n), n))
    return np.array(rows, dtype=float).reshape(-1, 3)


# The _ConfigRunners of a forked pool worker, set by _init_worker as it starts.
_worker_runners: list[_ConfigRunner] | None = None


def _init_worker(runners: list[_ConfigRunner]) -> None:
    global _worker_runners
    _worker_runners = runners


def _run_cell(cell, runners: list[_ConfigRunner] | None = None):
    """(cell, steps, scalars, None) or (cell, None, None, error) for one cell.

    A cell is (config, w_index, slots) and steps are run_cell's.  Pool
    workers pass no runners and use the ones they inherited at fork.
    """
    runners = _worker_runners if runners is None else runners
    ci, wi, slots = cell
    runner = runners[ci]
    spec = runner.spec
    try:
        seed = realization_seed(spec.master_seed, wi, slots[0])
        disorder = disorder_sample(seed, spec.w_values[wi], runner.vc.n_atoms)
        steps, payload = runner.run_cell(disorder)
    except Exception as exc:  # recorded, not raised: partial ensembles are useful
        return cell, None, None, f"{type(exc).__name__}: {exc}"
    bad = [name for name, val in payload.items() if not np.isfinite(val)]
    if bad:
        return cell, None, None, f"non-finite {', '.join(bad)}"
    return cell, steps, payload, None


def _run_in_processes(runners: list[_ConfigRunner], cells: list, workers: int) -> list:
    """Every cell's _run_cell outcome, in cell order, from `workers` forked processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a spawned worker would import numpy and atomchain afresh
    # (about 0.26 s, against about 17 ms per cell) and need the runners pickled.
    # The executor forks every worker before it starts its own threads.
    outcomes = []
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(runners,),
    ) as pool:
        try:
            # a cell takes milliseconds, so one cell per pipe message costs nothing
            for outcome in pool.map(_run_cell, cells, chunksize=1):
                outcomes.append(outcome)
        except BrokenProcessPool as exc:
            lost: dict[int, list[tuple[int, int]]] = {}
            for ci, wi, slots in cells[len(outcomes):]:
                lost.setdefault(ci, []).extend((wi, ri) for ri in slots)
            raise RuntimeError(
                f"an ensemble worker process died; {sum(map(len, lost.values()))} "
                f"realizations never returned, as (w_index, realization) by config "
                f"index: {lost}"
            ) from exc
    return outcomes


def run_ensemble(spec: EnsembleSpec) -> list[EnsembleResult]:
    """One EnsembleResult per spec.configs entry, over n_realizations seeded draws per W.

    Each W = 0 entry is one cell per config, a zero draw, that fills every
    realization slot (zero disorder is seed independent); each W > 0 entry
    is one cell per config and draw.  A cell fails when it raises or when
    any of its scalars is non-finite; failures are recorded for every slot
    they cover and skipped, and more than 5 percent of one config's
    realizations failing aborts the run.  Up to spec.max_workers forked
    processes run the cells of every config, never more than there are
    cells or CPUs this process may run on; a worker process that dies
    aborts the run with a RuntimeError naming the realizations of each
    config that never returned.
    """
    configs = [validate(config) for config in spec.configs]
    # the couplings depend on the geometry alone, which the configs share
    couplings = build_couplings(configs[0])
    runners = [_ConfigRunner(spec, vc, couplings) for vc in configs]
    n_w, n_r = len(spec.w_values), spec.n_realizations
    scalars = [
        {name: np.full((n_w, n_r), np.nan) for name in SCALAR_OBSERVABLES} for _ in runners
    ]
    failures: list[list[tuple[int, int, str]]] = [[] for _ in runners]
    # Taylor step counts of each config's cells; None marks a spectral cell
    paths: list[list[int | None]] = [[] for _ in runners]

    # a cell is (config index, w_index, the realization slots it fills), config-major
    w_cells = []
    for wi, w in enumerate(spec.w_values):
        if w == 0.0:
            w_cells.append((wi, range(n_r)))
        else:
            w_cells.extend((wi, range(ri, ri + 1)) for ri in range(n_r))
    cells = [(ci, wi, slots) for ci in range(len(runners)) for wi, slots in w_cells]

    workers = min(spec.max_workers, len(cells), len(os.sched_getaffinity(0)))
    if workers <= 1:
        outcomes = [_run_cell(cell, runners) for cell in cells]
    else:
        outcomes = _run_in_processes(runners, cells, workers)

    for (ci, wi, slots), steps, payload, err in outcomes:
        if err is not None:
            failures[ci].extend((wi, ri, err) for ri in slots)
            continue
        paths[ci].append(steps)
        for name, val in payload.items():
            scalars[ci][name][wi, slots] = val

    total_cells = n_w * n_r
    for ci, failed in enumerate(failures):
        if len(failed) > _FAILURE_FRACTION_LIMIT * total_cells:
            raise RuntimeError(
                f"{len(failed)} of {total_cells} realizations failed in config {ci}; "
                f"first: {failed[0]}"
            )

    results = []
    for values, failed, steps in zip(scalars, failures, paths):
        taylor = [s for s in steps if s is not None]
        results.append(
            EnsembleResult(
                scalars=values,
                aggregates={name: _aggregate(vals) for name, vals in values.items()},
                failures=failed,
                taylor_steps=(min(taylor), max(taylor)) if taylor else None,
                spectral_cells=len(steps) - len(taylor),
            )
        )
    return results


def paired_difference(a: EnsembleResult, b: EnsembleResult) -> dict[str, np.ndarray]:
    """(n_w, 3) rows of mean, standard error and z score of a minus b, per observable.

    a and b come from one run_ensemble call, so their cells saw identical
    draws; the paired design removes the draw-to-draw variance, so
    orderings resolve at far fewer realizations.  A cell that failed in
    either result is NaN in the difference and drops out; with fewer than
    two finite differences the standard error and z score are NaN.
    """
    rows = {}
    for name in SCALAR_OBSERVABLES:
        mean, sem, _ = _aggregate(a.scalars[name] - b.scalars[name]).T
        with np.errstate(divide="ignore", invalid="ignore"):
            z_score = np.where(sem == 0, np.where(mean == 0, 0.0, np.nan), mean / sem)
        rows[name] = np.column_stack((mean, sem, z_score))
    return rows
