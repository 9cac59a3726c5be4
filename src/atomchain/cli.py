"""Command line front end with deterministic, manifest-stamped outputs.

Each command computes and returns its tables, self-checks and extras; it
touches no file.  main alone writes the tables and then a manifest.json
next to them, recording the resolved configuration, seed, conventions in
force, self-check outcomes and the produced filenames.  A command that
raises writes no table; its manifest names the error and lists no outputs.
All table files are byte-identical across reruns and across --threads
settings: BLAS libraries are pinned to a single thread before numpy is
first imported (--threads sets the worker processes for ensemble cells,
whose results land in preallocated slots), and floats are serialized
with shortest round-trip repr.  The manifest is deterministic
except for its wall_clock_seconds field.

Exit codes: 0 success, 2 configuration or usage error, 3 runtime or
self-check failure, 4 I/O error.
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .chain_model import ConfigError, GAMMA0, read_config, validate
from .collective_couplings import build_couplings
from .dynamics import (
    Propagator,
    TaylorPropagator,
    far_field_ring,
    far_field_rows,
    launch_site,
    mirror_ratio_flip,
    momentum_distribution,
    populations,
    propagate_to,
    spin_wave,
    taylor_pays,
)
from .ensemble import SCALAR_OBSERVABLES, EnsembleSpec, paired_difference, run_ensemble
from .hamiltonian import assemble
from .scattering import (
    SchurScattering,
    gamma_sqrt,
    representation_equivalence_check,
    reciprocity_defect,
    s_matrix,
    spectrum_scan,
    transmittance,
)
from .spectrum import (
    bloch_bands,
    decay_modes,
    default_k_grid,
    guided_group_velocity,
    transparency_window,
)

CONVENTIONS = {
    "units": "gamma0 = 1, wavelength = 1, k0 = 2*pi",
    "flattening": "site-major, plus branch before minus branch",
    "momentum_transform": "psi_s(k) = sum_n exp(-i (k - s*k_c) z_n) c_ns",
    "transparency_window": "real-energy span of the dark upper Bloch branch on the chain's own k grid",
    "disorder": "uniform on [-sqrt(3W), sqrt(3W)], identical shift for both internal states",
    "smoothing": "boxcar over energy samples, window rounded to the grid step",
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    limit: float


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_table(path: str, header: list[str], rows, fmt: str) -> None:
    if fmt == "json":
        payload = {"columns": header, "rows": [[_coerce(v) for v in row] for row in rows]}
        with open(path, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=1, allow_nan=False)
            fh.write("\n")
        return
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _coerce(value):
    """JSON-native value; non-finite floats become null (JSON has no NaN)."""
    if isinstance(value, dict):
        return {key: _coerce(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_coerce(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value) if np.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma separated numbers, got {text!r}") from exc
    if not values:
        raise ConfigError(f"{flag} expects at least one number, got {text!r}")
    _require_finite(values, flag)
    return values


def _require_finite(value, flag: str) -> None:
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{flag} must be finite, got {value!r}")


# ----------------------------------------------------------------- commands


def _require_at_least(value, floor, flag: str) -> None:
    if value < floor:
        raise ConfigError(f"{flag} must be >= {floor}, got {value!r}")


def cmd_dispersion(args, vc, seed):
    _require_at_least(args.n_k, 1, "--n-k")
    bands = bloch_bands(vc, default_k_grid(vc, args.n_k))
    columns = {
        "k": bands.k_grid,
        "re_upper": bands.upper.real,
        "im_upper": bands.upper.imag,
        "re_lower": bands.lower.real,
        "im_lower": bands.lower.imag,
        "pol_weight_upper": bands.polarization_weight_upper,
    }
    checks = []
    max_im = float(max(bands.upper.imag.max(), bands.lower.imag.max()))
    checks.append(CheckResult("bands_non_amplifying", max_im <= 1e-6, max_im, 1e-6))
    if vc.reciprocal:
        # grid row j sits at k = -k of row n_k - 2 - j; the last row, pi/a, is its own mirror
        asym = float(
            max(
                np.max(np.abs(band[:-1] - band[-2::-1]), initial=0.0)
                for band in (bands.upper, bands.lower)
            )
        )
        checks.append(CheckResult("bands_even_in_k", asym < 1e-9, asym, 1e-9))
    extras = {"transparency_window": transparency_window(vc)}
    return {"bands": (list(columns), zip(*columns.values()))}, checks, extras


def cmd_transmit(args, vc, seed):
    _require_at_least(args.n_e, 1, "--n-e")
    if args.n_e > 1 and not args.e_max > args.e_min:
        raise ConfigError(
            f"--e-max must exceed --e-min when --n-e > 1, got {args.e_max!r} <= {args.e_min!r}"
        )
    if args.n_e > 1 and args.smoothing > args.e_max - args.e_min:
        raise ConfigError(
            f"--smoothing {args.smoothing!r} is wider than the scan from --e-min to --e-max"
        )
    _require_at_least(args.smoothing, 0.0, "--smoothing")
    source = 0 if args.source is None else args.source
    target = vc.n_atoms - 1 if args.target is None else args.target
    for site, flag in ((source, "--source"), (target, "--target")):
        if not 0 <= site < vc.n_atoms:
            raise ConfigError(f"{flag} site {site} outside chain of {vc.n_atoms} atoms")
    couplings = build_couplings(vc)
    modes = decay_modes(couplings)
    scattering = SchurScattering(assemble(vc, couplings).matrix, modes)
    energies = np.linspace(args.e_min, args.e_max, args.n_e)
    scan = spectrum_scan(scattering, energies, source, target, smoothing_window=args.smoothing)
    columns = {
        "energy": scan.energies,
        "t_forward": scan.forward,
        "t_backward": scan.backward,
        "t_forward_smoothed": scan.forward_smoothed,
        "t_backward_smoothed": scan.backward_smoothed,
        "unitarity_defect": scan.unitarity_defect,
    }
    checks = []
    worst_at = int(np.argmax(scan.unitarity_defect))
    worst = float(scan.unitarity_defect[worst_at])
    checks.append(CheckResult("unitarity", worst < 1e-8, worst, 1e-8))
    # a defect near the limit within a few widths of the nearest eigenvalue
    # is a resonance too narrow for the double-precision H, not a bad solve
    energy = float(scan.energies[worst_at])
    pole = complex(scattering.eigenvalues[np.argmin(np.abs(energy - scattering.eigenvalues))])
    if vc.reciprocal:
        asym = float(np.max(np.abs(scan.forward - scan.backward)))
        checks.append(CheckResult("direction_symmetry", asym < 1e-8, asym, 1e-8))
    extras = {
        "reciprocity_defect": reciprocity_defect(vc, couplings),
        "worst_resolvent_residual": scan.worst_residual,
        "decay_channels": scattering.channels.shape[1],
        "decay_rate_floor": modes.floor,
        "worst_unitarity": {
            "energy": energy,
            "defect": worst,
            "nearest_eigenvalue": [pole.real, pole.imag],
            "offset_in_widths": abs(energy - pole.real) / abs(pole.imag) if pole.imag else np.inf,
        },
    }
    return {"transmit": (list(columns), zip(*columns.values()))}, checks, extras


def _default_times(vc, n0: int) -> list[float]:
    speed = guided_group_velocity(vc)
    if speed > 1e-9:
        t_edge = (vc.n_atoms - 1 - n0) * vc.lattice_const / speed
        t_return = (vc.n_atoms - 1) * vc.lattice_const / speed
        return [0.5 * t_edge, t_edge, t_edge + t_return]
    return [6.5, 13.0, 26.0]


def cmd_evolve(args, vc, seed):
    _require_at_least(args.n_angles, 1, "--n-angles")
    n0 = launch_site(vc) if args.n0 is None else args.n0
    try:
        state0 = spin_wave(
            vc,
            n0=n0,
            width_sq=args.width_sq,
            k_carrier=args.k_carrier,
            excited_fraction=args.excited_fraction,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    times = (
        _parse_float_list(args.times, "--times") if args.times else _default_times(vc, n0)
    )
    if any(t < 0 for t in times):
        raise ConfigError("--times must be non-negative")
    times = sorted(times)

    couplings = build_couplings(vc)
    h = assemble(vc, couplings)
    taylor = TaylorPropagator.from_hamiltonian(h)
    # the snapshot chain, the composition check and the site-reversed launch
    # of mirror_ratio_flip each run to times[-1]
    taylor_steps = 3 * taylor.steps(times[-1])
    propagator = taylor if taylor_pays(taylor_steps, vc.n_atoms) else Propagator(h)
    ring = far_field_ring(vc, n_angles=args.n_angles)

    states, state = [], state0
    for t in times:
        state = propagate_to(state, propagator, t)
        states.append(state)
    # every snapshot's field on the ring from one (3M x 2N) @ (2N x T) product
    amps = np.stack([s.amps for s in states], axis=1)
    fields = np.tensordot(far_field_rows(ring, vc), amps, axes=1)
    intensities = np.sum(fields.real**2 + fields.imag**2, axis=1)

    pop_rows, mom_rows, norm_rows = [], [], []
    tables = {}
    for idx, (t, state) in enumerate(zip(times, states)):
        p_plus, p_minus = populations(state)
        for site in range(vc.n_atoms):
            pop_rows.append((t, site, p_plus[site], p_minus[site]))
        mom = momentum_distribution(state, vc)
        for k, a, b in zip(mom.k_grid, mom.p_plus, mom.p_minus):
            mom_rows.append((t, k, a, b))
        norm_rows.append((t, state.norm))
        tables[f"intensity_{idx}"] = (
            ["x", "z", "intensity"], zip(ring[:, 0], ring[:, 2], intensities[:, idx])
        )
    tables["populations"] = (["time", "site", "p_plus", "p_minus"], pop_rows)
    tables["momentum"] = (["time", "k", "psi2_plus", "psi2_minus"], mom_rows)
    tables["norms"] = (["time", "norm"], norm_rows)

    checks = []
    norms = [state0.norm] + [s.norm for s in states]
    growth = float(max(b - a for a, b in zip(norms[:-1], norms[1:])))
    checks.append(CheckResult("norm_non_increasing", growth <= 1e-12, growth, 1e-12))

    probe = states[-1]
    dt = 1e-4
    if times[-1] > 2 * dt:
        # norm loss rate must match the decay-matrix expectation value
        start = next(s for s in reversed([state0, *states]) if s.time <= times[-1] - dt)
        before = propagate_to(start, propagator, times[-1] - dt)
        after = propagate_to(probe, propagator, times[-1] + dt)
        fd_rate = (after.norm - before.norm) / (2 * dt)
        expected = -float(np.real(probe.amps.conj() @ (couplings.decay @ probe.amps)))
        denom = max(abs(expected), 1e-300)
        rel = abs(fd_rate - expected) / denom
        checks.append(CheckResult("norm_loss_rate", rel < 1e-4, rel, 1e-4))

        # one long step must equal two half steps
        half = propagate_to(state0, propagator, times[-1] / 2)
        composed = propagate_to(half, propagator, times[-1])
        comp = float(np.linalg.norm(composed.amps - probe.amps))
        checks.append(CheckResult("composition", comp < 1e-9, comp, 1e-9))

    # emission-side directionality at the last snapshot; a zero state has no ratio
    flip = None
    if np.any(probe.amps):
        flip = mirror_ratio_flip(state0, probe, propagator, vc)
        if vc.reciprocal:
            checks.append(CheckResult("mirror_symmetry", flip < 1e-9, flip, 1e-9))

    extras = {
        "snapshot_times": times,
        "spin_wave_center": n0,
        "mirror_ratio_flip": flip,
        "propagator": "taylor" if propagator is taylor else "spectral",
        "taylor_steps": taylor_steps,
    }
    return tables, checks, extras


def cmd_disorder(args, vc, seed):
    sqrt_w = _parse_float_list(args.sqrt_w, "--sqrt-w")
    if any(s < 0 for s in sqrt_w):
        raise ConfigError("--sqrt-w values must be non-negative")
    w_values = tuple(s * s for s in sqrt_w)
    if not all(3.0 * w < np.inf for w in w_values):
        raise ConfigError(f"--sqrt-w values must keep the draw bound sqrt(3 W) finite: {sqrt_w}")
    _require_at_least(args.realizations, 1, "--realizations")
    _require_at_least(args.time, 0.0, "--time")
    _require_at_least(args.threads, 1, "--threads")
    # keyed by the suffix of each result's table stems and manifest keys
    configs = {"": vc} if args.single else {"_base": vc, "_twin": replace(vc, mixing_angle=0.0)}
    spec = EnsembleSpec(
        configs=tuple(configs.values()),
        w_values=w_values,
        n_realizations=args.realizations,
        master_seed=seed,
        observation_time=args.time,
        max_workers=args.threads,
    )
    results = dict(zip(configs, run_ensemble(spec)))

    tables, agg_rows = {}, []
    for suffix, result in results.items():
        for obs in SCALAR_OBSERVABLES:
            tables[obs + suffix] = (
                ["sqrt_w", "realization", "value"],
                [
                    (s, ri, result.scalars[obs][wi, ri])
                    for wi, s in enumerate(sqrt_w)
                    for ri in range(spec.n_realizations)
                ],
            )
            for wi, s in enumerate(sqrt_w):
                mean, sem, n = result.aggregates[obs][wi]
                agg_rows.append((suffix[1:] or "base", obs, s, mean, sem, int(n)))
    if not args.single:
        diff = paired_difference(results["_base"], results["_twin"])
        tables["paired_diff"] = (
            ["observable", "sqrt_w", "diff_mean", "diff_sem", "z"],
            [(obs, s, *diff[obs][wi]) for obs in SCALAR_OBSERVABLES for wi, s in enumerate(sqrt_w)],
        )
    tables["aggregate"] = (["config", "observable", "sqrt_w", "mean", "sem", "n"], agg_rows)

    extras = {"sqrt_w": sqrt_w, "paired": not args.single}
    extras.update({"transparency_window" + s: transparency_window(c) for s, c in configs.items()})
    extras.update({"failures" + s: r.failures for s, r in results.items()})
    checks = []
    if 0.0 in sqrt_w:
        # peak-to-peak, not std: the mean of n identical floats rounds at the
        # ulp; np.max keeps the NaN of a failed cell, so a row with no data fails
        zero = [wi for wi, s in enumerate(sqrt_w) if s == 0.0]
        blocks = [r.scalars[obs][zero] for r in results.values() for obs in SCALAR_OBSERVABLES]
        spread = float(np.max(np.ptp(blocks, axis=2)))
        checks.append(CheckResult("zero_disorder_spread", spread == 0.0, spread, 0.0))
    return tables, checks, extras


def cmd_verify(args, vc, seed):
    """Invariant suite on a small chain; no data files, checks only."""
    checks = []
    for angle in (0.0, np.pi / 4):
        tag = "reciprocal" if angle == 0.0 else "directional"
        small = validate(replace(vc, n_atoms=24, mixing_angle=angle))
        couplings = build_couplings(small)
        h = assemble(small, couplings).matrix
        anti = float(np.max(np.abs((h - h.conj().T) + 1j * couplings.decay)))
        checks.append(CheckResult(f"{tag}_anti_hermitian", anti < 1e-12, anti, 1e-12))

        modes = decay_modes(couplings)
        scattering = SchurScattering(h, modes)
        eigs = scattering.eigenvalues
        trace_defect = abs(float(np.sum(eigs.imag)) + small.n_atoms * GAMMA0) / (
            small.n_atoms * GAMMA0
        )
        checks.append(
            CheckResult(f"{tag}_decay_trace", trace_defect < 1e-10, trace_defect, 1e-10)
        )

        half = gamma_sqrt(modes)
        rng = np.random.default_rng(0)
        energies = rng.uniform(-3, 8, size=5)
        worst_unit, worst_sym, worst_lu = 0.0, 0.0, 0.0
        last = small.n_atoms - 1
        for energy in energies:
            result = scattering.s_matrix(float(energy))
            worst_unit = max(worst_unit, result.unitarity_defect)
            fwd = result.transmittance(0, last)
            bwd = result.transmittance(last, 0)
            worst_sym = max(worst_sym, abs(fwd - bwd))
            # the LU path is the reference the Schur path must reproduce
            reference = s_matrix(float(energy), h, half)
            lu_fwd = transmittance(reference, 0, last)
            lu_bwd = transmittance(reference, last, 0)
            worst_lu = max(worst_lu, abs(fwd - lu_fwd), abs(bwd - lu_bwd))
        checks.append(CheckResult(f"{tag}_unitarity", worst_unit < 1e-8, worst_unit, 1e-8))
        if angle == 0.0:
            checks.append(
                CheckResult(f"{tag}_symmetry", worst_sym < 1e-10, worst_sym, 1e-10)
            )
        checks.append(
            CheckResult(f"{tag}_schur_matches_lu", worst_lu < 1e-11, worst_lu, 1e-11)
        )

        report = representation_equivalence_check(small, couplings)
        checks.append(
            CheckResult(
                f"{tag}_normal_mode_equiv",
                report.normal_mode_defect < 1e-10,
                report.normal_mode_defect,
                1e-10,
            )
        )
        checks.append(
            CheckResult(
                f"{tag}_detector_equiv", report.detector_defect < 1e-4,
                report.detector_defect, 1e-4,
            )
        )
    return {}, checks, {}


COMMANDS = {
    "dispersion": cmd_dispersion,
    "transmit": cmd_transmit,
    "evolve": cmd_evolve,
    "disorder": cmd_disorder,
    "verify": cmd_verify,
}


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomchain",
        description="Collective photon transport on a driven two-branch atomic chain.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p):
        p.add_argument("--config", required=True, help="key=value chain configuration file")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    def tables(p):
        common(p)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("dispersion", help="Bloch bands and transparency window")
    tables(p)
    p.add_argument("--n-k", type=int, default=1024)

    p = sub.add_parser("transmit", help="two-directional transmittance scan")
    tables(p)
    p.add_argument("--e-min", type=float, default=-4.0)
    p.add_argument("--e-max", type=float, default=10.0)
    p.add_argument("--n-e", type=int, default=500)
    p.add_argument("--smoothing", type=float, default=0.05 * GAMMA0)
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--target", type=int, default=None)

    p = sub.add_parser("evolve", help="spin-wave launch, bounce and emission pattern")
    tables(p)
    p.add_argument("--n0", type=int, default=None, help="wave packet center site")
    p.add_argument("--width-sq", type=float, default=60.0)
    p.add_argument("--k-carrier", type=float, default=0.0)
    p.add_argument("--excited-fraction", type=float, default=0.2)
    p.add_argument("--times", type=str, default=None, help="comma list of snapshot times")
    p.add_argument("--n-angles", type=int, default=360)

    p = sub.add_parser("disorder", help="seeded disorder ensembles, optionally paired")
    tables(p)
    p.add_argument("--sqrt-w", type=str, default="0,0.625,1.0")
    p.add_argument("--realizations", type=int, default=50)
    p.add_argument("--time", type=float, default=13.0)
    p.add_argument("--single", action="store_true", help="skip the zero-angle twin")
    p.add_argument("--threads", type=int, default=1, help="worker processes for ensemble cells")

    p = sub.add_parser("verify")  # intentionally undocumented maintenance suite
    common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()

    try:
        if args.seed is not None:
            _require_at_least(args.seed, 0, "--seed")
        for dest, value in vars(args).items():
            if isinstance(value, float):
                _require_finite(value, "--" + dest.replace("_", "-"))
        config, file_seed = read_config(args.config)
        vc = validate(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 4

    seed = args.seed if args.seed is not None else (file_seed if file_seed is not None else 0)

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 4

    outputs, error = [], None
    try:
        tables, checks, extras = COMMANDS[args.command](args, vc, seed)
        for stem, (header, rows) in tables.items():
            name = f"{stem}.{args.format}"
            write_table(os.path.join(args.out, name), header, rows, args.format)
            outputs.append(name)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # runtime/self-consistency problems map to 3
        error = f"{type(exc).__name__}: {exc}"
        print(f"runtime error: {error}", file=sys.stderr)
        checks, extras = [], {}

    manifest = {
        "subcommand": args.command,
        "package_version": __version__,
        "config": {**asdict(vc), "gamma0": GAMMA0},
        "seed": seed,
        **{key: getattr(args, key) for key in ("threads", "format") if hasattr(args, key)},
        "conventions": CONVENTIONS,
        "extras": extras,
        "self_checks": [
            {"name": c.name, "passed": bool(c.passed), "value": c.value, "limit": c.limit}
            for c in checks
        ],
        "outputs": outputs,
        **({"error": error} if error else {}),
        "wall_clock_seconds": time.monotonic() - started,
    }
    try:
        with open(os.path.join(args.out, "manifest.json"), "w", newline="\n") as fh:
            json.dump(_coerce(manifest), fh, indent=1, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write manifest: {exc}", file=sys.stderr)
        return 4

    if error:
        return 3
    failed = [c for c in checks if not c.passed]
    for check in checks:
        status = "ok" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.value:.3e} (limit {check.limit:.3e})")
    if failed:
        print(f"{len(failed)} self-check(s) failed", file=sys.stderr)
        return 3
    print(f"wrote {len(outputs)} file(s) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
