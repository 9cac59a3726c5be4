"""Seeded, reproducible disorder ensembles and paired-configuration studies.

Each (w_index, realization_index) cell derives its random stream as
SeedSequence(master_seed, spawn_key=(w_index, realization_index)), so any
single cell can be recomputed bit-exactly in isolation and results cannot
depend on execution order or worker count.  Aggregation reads the
preallocated result arrays in fixed index order.

Observables per realization, evaluated on the state at observation_time:

    survival                total excited population
    kspace_ipr              Sum p^2/(Sum p)^2 of the minus-branch momentum
                            distribution (the initially populated branch)
    kspace_participation    its reciprocal: occupied momentum modes
    realspace_ipr           same functional on total site populations;
                            grows under disorder-induced localization
    realspace_participation its reciprocal: occupied sites
    populations, momentum   full per-site / per-k arrays (optional)

The transparency window of each configuration is recomputed from the Bloch
bands and logged with the results so disorder strengths can be read against
it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chain_model import ChainConfig, validate
from .collective_couplings import build_couplings
from .dynamics import (
    Propagator,
    momentum_distribution,
    populations,
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
ARRAY_OBSERVABLES = ("populations", "momentum")
_FAILURE_FRACTION_LIMIT = 0.05


@dataclass(frozen=True)
class EnsembleSpec:
    base_config: ChainConfig
    w_values: tuple[float, ...]
    n_realizations: int = 50
    master_seed: int = 0
    observation_time: float = 13.0
    observables: tuple[str, ...] = ("survival", "kspace_ipr", "realspace_ipr")
    disorder_shape: str = "uniform"
    n0: int = 100
    width_sq: float = 60.0
    k_carrier: float = 0.0
    excited_fraction: float = 0.2
    max_workers: int = 1

    def __post_init__(self):
        known = set(SCALAR_OBSERVABLES) | set(ARRAY_OBSERVABLES)
        bad = [o for o in self.observables if o not in known]
        if bad:
            raise ValueError(f"unknown observables {bad}; choose from {sorted(known)}")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if any(w < 0 for w in self.w_values):
            raise ValueError("disorder variances must be >= 0")


def realization_seed(master_seed: int, w_index: int, realization_index: int) -> np.random.SeedSequence:
    """The documented per-cell seed derivation."""
    return np.random.SeedSequence(master_seed, spawn_key=(w_index, realization_index))


@dataclass
class EnsembleResult:
    spec: EnsembleSpec
    scalars: dict[str, np.ndarray]          # (n_w, n_realizations)
    aggregates: dict[str, np.ndarray]       # (n_w, 3): mean, sem, n
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    failures: list[tuple[int, int, str]] = field(default_factory=list)
    transparency_window: float = float("nan")


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
    """Shared immutable pieces for one chain configuration."""

    def __init__(self, config: ChainConfig, spec: EnsembleSpec):
        self.vc = validate(config)
        self.couplings = build_couplings(self.vc)
        self.state0 = spin_wave(
            self.vc,
            n0=spec.n0,
            width_sq=spec.width_sq,
            k_carrier=spec.k_carrier,
            excited_fraction=spec.excited_fraction,
        )
        self.spec = spec

    def run_cell(self, disorder: DisorderRealization | None):
        h = assemble(self.vc, self.couplings, disorder)
        state = propagate_to(self.state0, Propagator(h), self.spec.observation_time)
        scalars = _cell_scalars(self.vc, state)
        arrays = {}
        if "populations" in self.spec.observables:
            p_plus, p_minus = populations(state)
            arrays["populations"] = np.stack([p_plus, p_minus])
        if "momentum" in self.spec.observables:
            mom = momentum_distribution(state, self.vc)
            arrays["momentum"] = np.stack([mom.p_plus, mom.p_minus])
        return scalars, arrays


def _aggregate(values: np.ndarray) -> np.ndarray:
    """(n_w, 3) rows of mean, standard error, count along the realization axis.

    Only finite cells count: a failed realization (NaN) drops out of the
    mean, the standard error and the reported count.
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


def run_ensemble(spec: EnsembleSpec, config: ChainConfig | None = None) -> EnsembleResult:
    """Sweep disorder variances with n_realizations seeded draws each.

    Each W = 0 entry is one cell that fills every realization slot (zero
    disorder is seed independent); each W > 0 entry is one cell per draw.
    Individual cell failures are recorded for every slot they cover and
    skipped; more than 5 percent failing aborts the run.
    """
    from .spectrum import transparency_window

    runner = _ConfigRunner(config if config is not None else spec.base_config, spec)
    n_w, n_r = len(spec.w_values), spec.n_realizations
    scalars = {name: np.full((n_w, n_r), np.nan) for name in SCALAR_OBSERVABLES}
    array_store: dict[str, np.ndarray] = {}
    failures: list[tuple[int, int, str]] = []

    # a cell is (w_index, the realization slots it fills)
    cells = []
    for wi, w in enumerate(spec.w_values):
        if w == 0.0:
            cells.append((wi, range(n_r)))
        else:
            cells.extend((wi, range(ri, ri + 1)) for ri in range(n_r))

    def worker(cell):
        wi, slots = cell
        w = spec.w_values[wi]
        try:
            disorder = None
            if w > 0.0:
                disorder = disorder_sample(
                    realization_seed(spec.master_seed, wi, slots[0]),
                    w,
                    runner.vc.n_atoms,
                    shape=spec.disorder_shape,
                )
            return cell, runner.run_cell(disorder), None
        except Exception as exc:  # recorded, not raised: partial ensembles are useful
            return cell, None, f"{type(exc).__name__}: {exc}"

    if spec.max_workers > 1 and cells:
        with ThreadPoolExecutor(max_workers=spec.max_workers) as pool:
            outcomes = list(pool.map(worker, cells))
    else:
        outcomes = [worker(c) for c in cells]

    for (wi, slots), payload, err in outcomes:
        if err is not None:
            failures.extend((wi, ri, err) for ri in slots)
            continue
        cell_scalars, cell_arrays = payload
        for name, val in cell_scalars.items():
            scalars[name][wi, slots] = val
        for name, arr in cell_arrays.items():
            store = array_store.setdefault(name, np.full((n_w, n_r) + arr.shape, np.nan))
            store[wi, slots] = arr

    total_cells = n_w * n_r
    if len(failures) > _FAILURE_FRACTION_LIMIT * total_cells:
        raise RuntimeError(
            f"{len(failures)} of {total_cells} realizations failed; first: {failures[0]}"
        )

    aggregates = {name: _aggregate(vals) for name, vals in scalars.items()}
    return EnsembleResult(
        spec=spec,
        scalars=scalars,
        aggregates=aggregates,
        arrays=array_store,
        failures=failures,
        transparency_window=transparency_window(runner.vc),
    )


@dataclass
class PairedComparison:
    """Per-W paired statistics of config_a minus config_b, identical disorder."""

    spec: EnsembleSpec
    result_a: EnsembleResult
    result_b: EnsembleResult
    diff_mean: dict[str, np.ndarray]
    diff_sem: dict[str, np.ndarray]
    z_score: dict[str, np.ndarray]


def compare_configs(
    spec: EnsembleSpec, config_a: ChainConfig, config_b: ChainConfig
) -> PairedComparison:
    """Run both configs on identical disorder draws and difference them.

    The configs must share geometry (n_atoms and lattice_const); drive
    parameters may differ.  The paired design removes the draw-to-draw
    variance, so orderings resolve at far fewer realizations.
    """
    if config_a.n_atoms != config_b.n_atoms:
        raise ValueError(
            f"paired configs need equal n_atoms, got {config_a.n_atoms} and {config_b.n_atoms}"
        )
    if config_a.lattice_const != config_b.lattice_const:
        raise ValueError("paired configs need identical lattice_const")
    result_a = run_ensemble(spec, config_a)
    result_b = run_ensemble(spec, config_b)
    diff_mean, diff_sem, z_score = {}, {}, {}
    for name in SCALAR_OBSERVABLES:
        # a cell that failed in either config is NaN here and drops out
        mean, sem, _ = _aggregate(result_a.scalars[name] - result_b.scalars[name]).T
        diff_mean[name] = mean
        diff_sem[name] = sem
        with np.errstate(divide="ignore", invalid="ignore"):
            z_score[name] = np.where(sem > 0, mean / sem, np.where(mean == 0, 0.0, np.nan))
    return PairedComparison(
        spec=spec,
        result_a=result_a,
        result_b=result_b,
        diff_mean=diff_mean,
        diff_sem=diff_sem,
        z_score=z_score,
    )
