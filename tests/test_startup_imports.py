"""Importing the CLI loads numpy only; scipy waits for the code that factorizes.

scipy's import costs several times the physics of a short `dispersion` or
`evolve` run, so no atomchain module imports it at module level.  `transmit`
scans by eigh of H's Hermitian part on every chain and loads none of it,
also on a chain whose eigenvectors of H are badly conditioned.  Nor does
any command load a process pool module (`concurrent.*`, `multiprocessing*`)
unless an ensemble runs on more than one worker.  The
benchmark's set-up child takes `read_config, validate, build_couplings,
assemble, decay_modes, gamma_sqrt` from atomchain.cli, so those names must
stay importable from there without pulling scipy in either.  `import
atomchain` itself loads no numpy and no submodule, which is what lets the
CLI pin BLAS thread counts before numpy loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
import atomchain.cli as cli
from atomchain.cli import (
    read_config, validate, build_couplings, assemble, decay_modes, gamma_sqrt,
)

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def pool_modules():
    return sorted(m for m in sys.modules if m.startswith(("concurrent", "multiprocessing")))

cfg, ill, out = sys.argv[1], sys.argv[2], sys.argv[3]
vc = validate(read_config(cfg)[0])
couplings = build_couplings(vc)
assemble(vc, couplings)
gamma_sqrt(decay_modes(couplings))
report = {"setup": scipy_modules() + pool_modules()}
for argv in (
    ["dispersion", "--n-k", "64"],
    ["evolve", "--times", "0.5,1", "--n-angles", "16"],
    ["disorder", "--realizations", "2", "--sqrt-w", "0,1", "--threads", "1"],
):
    code = cli.main(argv + ["--config", cfg, "--out", out + "/" + argv[0]])
    report[argv[0]] = [code, scipy_modules(), pool_modules()]
argv = ["transmit", "--n-e", "16", "--smoothing", "3"]  # a 3-sample boxcar
code = cli.main(argv + ["--config", cfg, "--out", out + "/transmit"])
report["transmit"] = [code, scipy_modules()]
# H's eigenvectors at 100 atoms, a = 1/4, pi/4: 1-norm condition number 2.6e4
code = cli.main(argv + ["--config", ill, "--out", out + "/ill"])
report["ill"] = [code, scipy_modules()]
print(json.dumps(report))
"""


PACKAGE_PROBE = """
import json, sys
import atomchain
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith(("numpy.", "atomchain.")))
from atomchain import cli
print(json.dumps([loaded, atomchain.__version__, callable(cli.main)]))
"""


def probe_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def test_package_import_loads_no_numpy_and_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", PACKAGE_PROBE],
        capture_output=True,
        text=True,
        env=probe_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], "0.1.0", True]


def test_cli_commands_without_factorization_load_no_scipy(tmp_path):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("n_atoms = 24\nlattice_const = 0.125\nmixing_angle = 0.7853981633974483\n")
    ill = tmp_path / "ill.cfg"
    ill.write_text("n_atoms = 100\nlattice_const = 0.25\nmixing_angle = 0.7853981633974483\n")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(cfg), str(ill), str(tmp_path)],
        capture_output=True,
        text=True,
        env=probe_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["setup"] == []
    for command in ("dispersion", "evolve", "disorder"):
        assert report[command] == [0, [], []], command
    assert report["transmit"] == [0, []]
    assert report["ill"] == [0, []]
