"""Workload inputs, derived from the benchmark seed, and their output checks.

A workload is a round of atomchain CLI invocations on the two shipped
205-atom configs.  Every invocation carries a count of operations in the
units of the rate metric it feeds (energies, cells, k-points, snapshots).
The checks compare outputs against the independent oracle in oracle.py and
against properties the method must have; an operation that fails a check
is counted as failed, a check on a whole table marks the run incorrect.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

CONFIGS = ("directional", "reciprocal")
EXCITED_FRACTION = 0.2  # CLI default for evolve and disorder
WIDTH_SQ = 60.0  # CLI default for evolve and disorder


def launch_site(chain: oracle.Chain) -> int:
    """Spin-wave centre the CLI uses for evolve and disorder."""
    return min(100, chain.n_atoms // 2)

# Tolerances.  T from a dense solve of the oracle H agrees with the program's
# refined LU solve only to the accuracy of Gamma^1/2: Gamma has ~290 numerically
# null eigenvalues, known to ~eps, whose square roots (~sqrt(eps) = 1.5e-8)
# make each Gamma^1/2 entry uncertain at that level.  The observed worst |dT|
# over 80 energies on both shipped chains is 1.1e-9; 1e-7 leaves two decades.
T_TOL = 1e-7
UNITARITY_LIMIT = 1e-8
RECIPROCAL_T_TOL = 1e-10
MIN_DIRECTIONAL_ASYMMETRY = 0.1
BAND_TOL = 1e-8  # Clausen closed forms vs 30-digit mpmath: observed 1.1e-13
BAND_IM_LIMIT = 1e-6
EVEN_TOL = 1e-9
DYNAMICS_RTOL = 1e-8  # eig-based propagation vs expm; cond(V) ~ 1e2 on these chains
NORM_SLACK = 1e-12


@dataclass
class Invocation:
    command: str
    config: str
    args: list[str]
    ops: int
    rate: str
    params: dict = field(default_factory=dict)

    def argv(self, repo: Path, outdir: Path, seed: int) -> list[str]:
        return [
            self.command,
            "--config",
            str(repo / "configs" / f"{self.config}.cfg"),
            "--out",
            str(outdir),
            "--seed",
            str(seed),
            *self.args,
        ]


@dataclass
class Report:
    """Failed operations of one invocation, and whole-table problems."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def read_table(path: Path) -> np.ndarray:
    """Data rows of a CSV table written by the CLI, header dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)


def _tally(report: Report, bad: np.ndarray, checks: dict[str, np.ndarray]) -> Report:
    """Count the operations that fail any per-row check, and name the checks."""
    for label, flags in checks.items():
        if flags.any():
            report.notes.append(f"{label}: {int(flags.sum())} rows")
        bad = bad | flags
    report.failed = int(bad.sum())
    return report


# ------------------------------------------------------------ transmit_scan

# scripts/transmission_contrast.py scans 500 energies over [-4, 10]; both
# chains transmit more than 1e-3 only inside [-0.25, 3.75], so the benchmark
# scans that band more coarsely; per-energy work is ~88 % of an invocation.
E_LO, E_HI, N_E = -0.75, 4.25, 64
TRANSMIT_SAMPLES = 3


def transmit_round(seed: int) -> list[Invocation]:
    step = (E_HI - E_LO) / (N_E - 1)
    offset = float(np.random.default_rng([seed, 1]).uniform(0.0, step))
    params = {"e_min": E_LO + offset, "e_max": E_HI + offset, "n_e": N_E}
    args = ["--e-min", repr(params["e_min"]), "--e-max", repr(params["e_max"]), "--n-e", str(N_E)]
    return [Invocation("transmit", c, args, N_E, "energies_per_s", params) for c in CONFIGS]


def check_transmit(outdir: Path, chain: oracle.Chain, params: dict, seed: int) -> Report:
    report = Report()
    t = read_table(outdir / "transmit.csv")
    n_e = params["n_e"]
    if t.shape != (n_e, 6):
        return Report(failed=n_e, problems=[f"transmit.csv has shape {t.shape}"])
    energy, fwd, bwd, _, _, defect = t.T
    bad = ~np.all(np.isfinite(t), axis=1)
    expected = np.linspace(params["e_min"], params["e_max"], n_e)
    checks = {
        "energy grid": np.abs(energy - expected) > 1e-12,
        "unitarity": ~(defect < UNITARITY_LIMIT),
        "0 <= T <= 2": ~((fwd >= 0) & (fwd <= 2) & (bwd >= 0) & (bwd <= 2)),
    }
    if math.sin(chain.mixing_angle) == 0.0:
        checks["T_fwd = T_bwd"] = ~(np.abs(fwd - bwd) <= RECIPROCAL_T_TOL)
    rng = np.random.default_rng([seed, 2, int(chain.mixing_angle * 1e6)])
    oracle_bad = np.zeros(n_e, dtype=bool)
    last = chain.n_atoms - 1
    for i in rng.choice(n_e, size=min(TRANSMIT_SAMPLES, n_e), replace=False):
        ref_f, ref_b = oracle.transmittance(chain, float(energy[i]), 0, last)
        oracle_bad[i] = not (abs(fwd[i] - ref_f) <= T_TOL and abs(bwd[i] - ref_b) <= T_TOL)
    checks["oracle solve"] = oracle_bad
    _tally(report, bad, checks)
    if math.sin(chain.mixing_angle) != 0.0:
        peak = np.maximum(fwd, bwd)
        live = peak >= 1e-3
        asym = float(np.max(np.abs(fwd - bwd)[live] / peak[live])) if live.any() else 0.0
        if not asym > MIN_DIRECTIONAL_ASYMMETRY:
            report.problems.append(f"peak relative asymmetry {asym:.3g} <= {MIN_DIRECTIONAL_ASYMMETRY}")
    return report


# ---------------------------------------------------------- disorder_paired

SQRT_W = (0.0, 0.625, 1.0)
REALIZATIONS = 8  # scripts/disorder_comparison.py --quick; the full run uses 50
OBSERVATION_TIME = 13.0
DISORDER_SAMPLES = 2  # oracle cells per config
THREADS = min(2, os.cpu_count() or 1)


def disorder_cells(sqrt_w, realizations: int) -> int:
    """Computed cells of one config: every W > 0 realization plus one at W = 0."""
    positive = sum(1 for s in sqrt_w if s > 0)
    return positive * realizations + (1 if 0.0 in sqrt_w else 0)


def disorder_round(seed: int) -> list[Invocation]:
    args = [
        "--sqrt-w", ",".join(repr(s) for s in SQRT_W),
        "--realizations", str(REALIZATIONS),
        "--time", repr(OBSERVATION_TIME),
        "--threads", str(THREADS),
    ]
    params = {"sqrt_w": SQRT_W, "realizations": REALIZATIONS, "time": OBSERVATION_TIME}
    cells = 2 * disorder_cells(SQRT_W, REALIZATIONS)
    return [Invocation("disorder", "directional", args, cells, "cells_per_s", params)]


def _cell_table(outdir: Path, obs: str, tag: str, sqrt_w, realizations: int) -> np.ndarray:
    t = read_table(outdir / f"{obs}_{tag}.csv")
    if t.shape != (len(sqrt_w) * realizations, 3):
        raise ValueError(f"{obs}_{tag}.csv has shape {t.shape}")
    return t[:, 2].reshape(len(sqrt_w), realizations)


def check_disorder(outdir: Path, chain: oracle.Chain, params: dict, seed: int) -> Report:
    report = Report()
    sqrt_w, n_r, t_obs = params["sqrt_w"], params["realizations"], params["time"]
    n = chain.n_atoms
    rng = np.random.default_rng([seed, 3])
    for tag, cfg in (("base", chain), ("twin", chain.with_mixing_angle(0.0))):
        cells = disorder_cells(sqrt_w, n_r)
        try:
            tables = {
                obs: _cell_table(outdir, obs, tag, sqrt_w, n_r)
                for obs in ("survival", "realspace_ipr", "realspace_participation", "kspace_ipr")
            }
        except (OSError, ValueError) as exc:
            report.failed += cells
            report.problems.append(str(exc))
            continue
        # one cell per W = 0 column (computed once, replicated), one per W > 0 draw
        cell_ids = [(wi, ri) for wi, s in enumerate(sqrt_w) for ri in range(n_r if s > 0 else 1)]
        bad = {cid: [] for cid in cell_ids}
        for wi, s in enumerate(sqrt_w):
            if s == 0.0:
                for obs, vals in tables.items():
                    if np.ptp(vals[wi]) != 0.0:
                        report.problems.append(f"{tag} W=0 realizations differ in {obs}")
        for wi, ri in cell_ids:
            cols = slice(None) if sqrt_w[wi] == 0.0 else ri
            surv = np.atleast_1d(tables["survival"][wi, cols])
            ipr = np.atleast_1d(tables["realspace_ipr"][wi, cols])
            part = np.atleast_1d(tables["realspace_participation"][wi, cols])
            kipr = np.atleast_1d(tables["kspace_ipr"][wi, cols])
            if not all(np.all(np.isfinite(v)) for v in (surv, ipr, part, kipr)):
                bad[(wi, ri)].append("NaN")
                continue
            if not np.all((surv > 0) & (surv <= EXCITED_FRACTION + NORM_SLACK)):
                bad[(wi, ri)].append("survival range")
            if not np.all((ipr >= 1.0 / n - 1e-15) & (ipr <= 1.0)):
                bad[(wi, ri)].append("ipr range")
            if not np.all(np.abs(ipr * part - 1.0) <= 1e-12):
                bad[(wi, ri)].append("participation = 1/ipr")
        for k in rng.choice(len(cell_ids), size=min(DISORDER_SAMPLES, len(cell_ids)), replace=False):
            wi, ri = cell_ids[k]
            if bad[(wi, ri)]:
                continue
            onsite = oracle.disorder_energies(seed, wi, ri, sqrt_w[wi] ** 2, n)
            psi0 = oracle.spin_wave(cfg, launch_site(cfg), WIDTH_SQ, 0.0, EXCITED_FRACTION)
            psi = oracle.evolve(oracle.hamiltonian(cfg, onsite), psi0, t_obs)
            ref_s, ref_ipr = float(np.sum(np.abs(psi) ** 2)), oracle.realspace_ipr(psi)
            col = 0 if sqrt_w[wi] == 0.0 else ri
            got_s, got_ipr = tables["survival"][wi, col], tables["realspace_ipr"][wi, col]
            if not (
                abs(got_s - ref_s) <= DYNAMICS_RTOL * ref_s
                and abs(got_ipr - ref_ipr) <= DYNAMICS_RTOL * ref_ipr
            ):
                bad[(wi, ri)].append("oracle expm")
        for cid, why in bad.items():
            if why:
                report.failed += 1
                report.notes.append(f"{tag} cell {cid}: {', '.join(why)}")
    return report


# ------------------------------------------------------------- bands_evolve

N_K = 1024
N_SNAPSHOTS = 16
T_SNAP_MAX = 26.0  # two chain traversals at the guided group velocity
BAND_SAMPLES = 3


def snapshot_times(seed: int) -> list[float]:
    rng = np.random.default_rng([seed, 4])
    return sorted(round(float(t), 6) for t in rng.uniform(0.5, T_SNAP_MAX, N_SNAPSHOTS))


def bands_round(seed: int) -> list[Invocation]:
    times = snapshot_times(seed)
    round_ = [
        Invocation("dispersion", c, ["--n-k", str(N_K)], N_K, "kpoints_per_s", {"n_k": N_K})
        for c in CONFIGS
    ]
    evolve_args = ["--times", ",".join(repr(t) for t in times)]
    round_ += [
        Invocation("evolve", c, evolve_args, len(times), "snapshots_per_s", {"times": times})
        for c in CONFIGS
    ]
    return round_


def _mirror_pairs(k: np.ndarray, zone: float) -> list[tuple[int, int]]:
    """Index pairs (i, j) with k[j] = -k[i], inside the zone and off k = 0."""
    order = np.argsort(k)
    ks = k[order]
    pairs = []
    for i in np.flatnonzero((k > 0) & (k < zone * (1 - 1e-12))):
        pos = int(np.searchsorted(ks, -k[i]))
        for p in (pos - 1, pos):
            if 0 <= p < ks.size and abs(ks[p] + k[i]) <= 1e-9 * zone:
                pairs.append((int(i), int(order[p])))
                break
    return pairs


def check_dispersion(outdir: Path, chain: oracle.Chain, params: dict, seed: int) -> Report:
    report = Report()
    n_k = params["n_k"]
    t = read_table(outdir / "bands.csv")
    if t.shape != (n_k, 6):
        return Report(failed=n_k, problems=[f"bands.csv has shape {t.shape}"])
    k, re_up, im_up, re_lo, im_lo, weight = t.T
    bad = ~np.all(np.isfinite(t), axis=1)
    checks = {
        "Im <= 1e-6": ~((im_up <= BAND_IM_LIMIT) & (im_lo <= BAND_IM_LIMIT)),
        "weight in [0, 1]": ~((weight >= 0) & (weight <= 1)),
    }
    if math.sin(chain.mixing_angle) == 0.0:
        uneven = np.zeros(n_k, dtype=bool)
        for i, j in _mirror_pairs(k, math.pi / chain.lattice_const):
            if max(abs(re_up[i] - re_up[j]), abs(im_up[i] - im_up[j]),
                   abs(re_lo[i] - re_lo[j]), abs(im_lo[i] - im_lo[j])) > EVEN_TOL:
                uneven[i] = uneven[j] = True
        checks["even in k"] = uneven
    # the lattice sum diverges on a light line, so the oracle samples off it
    rng = np.random.default_rng([seed, 5, int(chain.mixing_angle * 1e6)])
    candidates = [i for i in range(n_k) if oracle.light_line_distance(chain, float(k[i])) > 1e-6]
    oracle_bad = np.zeros(n_k, dtype=bool)
    for i in rng.choice(candidates, size=min(BAND_SAMPLES, len(candidates)), replace=False):
        lower, upper = oracle.bloch_bands(chain, float(k[i]))
        got_lo, got_up = complex(re_lo[i], im_lo[i]), complex(re_up[i], im_up[i])
        oracle_bad[i] = not (abs(got_lo - lower) <= BAND_TOL and abs(got_up - upper) <= BAND_TOL)
    checks["oracle mpmath"] = oracle_bad
    return _tally(report, bad, checks)


def check_evolve(outdir: Path, chain: oracle.Chain, params: dict, seed: int) -> Report:
    report = Report()
    times = params["times"]
    n_t, n = len(times), chain.n_atoms
    norms = read_table(outdir / "norms.csv")
    pops = read_table(outdir / "populations.csv")
    if norms.shape != (n_t, 2) or pops.shape != (n_t * n, 4):
        return Report(failed=n_t, problems=[f"norms {norms.shape}, populations {pops.shape}"])
    checks = {
        "snapshot times": np.abs(norms[:, 0] - np.asarray(times)) > 0,
        "finite": ~np.isfinite(norms[:, 1]),
        "norm non-increasing": ~(
            norms[:, 1] <= np.concatenate([[EXCITED_FRACTION], norms[:-1, 1]]) + NORM_SLACK
        ),
    }
    negative = np.zeros(n_t, dtype=bool)
    for i in range(n_t):
        ring = read_table(outdir / f"intensity_{i}.csv")
        negative[i] = not (ring.size and np.all(ring[:, 2] >= 0.0))
    checks["intensity >= 0"] = negative
    i = int(np.random.default_rng([seed, 6, int(chain.mixing_angle * 1e6)]).integers(n_t))
    psi0 = oracle.spin_wave(chain, launch_site(chain), WIDTH_SQ, 0.0, EXCITED_FRACTION)
    psi = oracle.evolve(oracle.hamiltonian(chain), psi0, times[i])
    ref_plus, ref_minus = oracle.site_populations(psi)
    block = pops[i * n : (i + 1) * n]
    scale = float(np.max(ref_plus + ref_minus))
    oracle_bad = np.zeros(n_t, dtype=bool)
    oracle_bad[i] = not (
        np.all(block[:, 0] == times[i])
        and np.max(np.abs(block[:, 2] - ref_plus)) <= DYNAMICS_RTOL * scale
        and np.max(np.abs(block[:, 3] - ref_minus)) <= DYNAMICS_RTOL * scale
        and abs(norms[i, 1] - np.sum(np.abs(psi) ** 2)) <= DYNAMICS_RTOL * EXCITED_FRACTION
    )
    checks["oracle expm"] = oracle_bad
    return _tally(report, np.zeros(n_t, dtype=bool), checks)


CHECKS = {
    "transmit": check_transmit,
    "disorder": check_disorder,
    "dispersion": check_dispersion,
    "evolve": check_evolve,
}


# Every end-to-end metric is reported on every workload.  A workload whose
# round does not run a command takes that command's rate from a fixed probe,
# run outside the measured invocations.  A rate's run-to-run spread shrinks
# with the time a run spends sampling it, so each probe takes 2-3 s: the
# dispersion probe runs 4096 k so that bloch_bands, not start-up, fills it.
PROBES = {
    "energies_per_s": lambda seed: Invocation(
        "transmit", "directional", ["--e-min", repr(E_LO), "--e-max", repr(E_HI), "--n-e", "24"],
        24, "energies_per_s"),
    "cells_per_s": lambda seed: Invocation(
        "disorder", "directional",
        ["--sqrt-w", "1.0", "--realizations", "4", "--single", "--threads", "1"], 4, "cells_per_s"),
    "kpoints_per_s": lambda seed: Invocation(
        "dispersion", "directional", ["--n-k", str(4 * N_K)], 4 * N_K, "kpoints_per_s"),
    "snapshots_per_s": lambda seed: Invocation(
        "evolve", "directional", ["--times", ",".join(repr(t) for t in snapshot_times(seed))],
        N_SNAPSHOTS, "snapshots_per_s"),
}


@dataclass(frozen=True)
class Workload:
    round: Callable[[int], list[Invocation]]
    setup_scattering: bool  # set-up also builds decay_modes and gamma_sqrt

    def probes(self, seed: int) -> list[Invocation]:
        own = {inv.rate for inv in self.round(seed)}
        return [make(seed) for rate, make in PROBES.items() if rate not in own]


WORKLOADS = {
    "transmit_scan": Workload(transmit_round, setup_scattering=True),
    "disorder_paired": Workload(disorder_round, setup_scattering=False),
    "bands_evolve": Workload(bands_round, setup_scattering=False),
}
