"""One benchmark child process: a traced CLI command or one set-up pass.

    python3 bench/child.py trace SPANS.json -- <atomchain CLI arguments>
    python3 bench/child.py setup CONFIG [--scattering]

The parent sets the BLAS thread variables and PYTHONPATH; nothing here
imports numpy before atomchain.cli has pinned BLAS.  The traced form
records a `cli.import` span around the import of atomchain.cli and a
`cli.main` span around the command, writes every span to SPANS.json when
the command returns, and exits with the command's exit code.
"""

from __future__ import annotations

import importlib
import json
import sys


def run_traced(spans_path: str, argv: list[str]) -> int:
    from tracer import Tracer, install

    tracer = Tracer()
    cli = tracer.call("cli.import", importlib.import_module, ("atomchain.cli",), {})
    install(tracer)
    try:
        code = cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


def run_setup(config: str, scattering: bool) -> int:
    from atomchain.cli import read_config, validate, build_couplings, assemble

    vc = validate(read_config(config)[0])
    couplings = build_couplings(vc)
    assemble(vc, couplings)
    if scattering:
        from atomchain.cli import decay_modes, gamma_sqrt

        gamma_sqrt(decay_modes(couplings))
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "trace" and argv[2] == "--":
        return run_traced(argv[1], argv[3:])
    if len(argv) in (2, 3) and argv[0] == "setup":
        return run_setup(argv[1], argv[2:] == ["--scattering"])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
