"""Importing the CLI loads numpy only; scipy waits for the code that factorizes.

scipy's import costs several times the physics of a short `dispersion` or
`evolve` run, so no atomchain module imports it at module level.  Nor does
any command load a process pool module (`concurrent.*`, `multiprocessing*`)
unless an ensemble runs on more than one worker.  The
benchmark's set-up child takes `read_config, validate, build_couplings,
assemble, decay_modes, gamma_sqrt` from atomchain.cli, so those names must
stay importable from there without pulling scipy in either.
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

cfg, out = sys.argv[1], sys.argv[2]
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
print(json.dumps(report))
"""


def test_cli_commands_without_factorization_load_no_scipy(tmp_path):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("n_atoms = 24\nlattice_const = 0.125\nmixing_angle = 0.7853981633974483\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(cfg), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["setup"] == []
    for command in ("dispersion", "evolve", "disorder"):
        assert report[command] == [0, [], []], command
    code, loaded = report["transmit"]
    assert code == 0
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.ndimage")]
