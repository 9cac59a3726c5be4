"""The benchmark's tracer still finds every function it times.

bench/tracer.py wraps atomchain's functions by name, and BENCHMARK.json
reports per-layer keys of the form <module>.<name>.<kind>.  A rename or a
deletion in src/ would silently zero those keys, so this test installs the
tracer in a fresh interpreter and checks every key against the package.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

INSTALL = """
import json, sys
import atomchain.cli
sys.path.insert(0, {bench!r})
import tracer
tracer.install(tracer.Tracer())
print(json.dumps(sorted(tracer.METHODS.values())))
"""


def test_tracer_installs_and_every_layer_key_names_a_function():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL.format(bench=str(REPO / "bench"))],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = set(json.loads(proc.stdout))

    keys = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]]
    checked = []
    for key in keys:
        parts = key.split(".")
        if len(parts) != 3 or importlib.util.find_spec(f"atomchain.{parts[0]}") is None:
            continue
        module, name, _ = parts
        public = not name.startswith("_") and hasattr(
            importlib.import_module(f"atomchain.{module}"), name
        )
        assert public or f"{module}.{name}" in spans, key
        checked.append(key)
    assert "dynamics.far_field_intensity.s" in checked
    assert "ensemble.run_cell.s" in checked
