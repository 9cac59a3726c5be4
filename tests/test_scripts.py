"""The reproduction scripts in scripts/ run end to end in their small modes.

Each script drives the CLI and then reads manifest extras or table columns
back, so a renamed extra or column would break it without breaking the CLI
tests; these runs catch that.
"""

import csv
import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def extras(outdir):
    return json.loads((outdir / "manifest.json").read_text())["extras"]


def test_bands_and_window(tmp_path, capsys):
    assert load("bands_and_window").run(["--out", str(tmp_path), "--n-k", "64"]) == 0
    for tag in ("reciprocal", "directional"):
        assert extras(tmp_path / tag)["transparency_window"] > 0.0, tag
    assert "cubic scaling predicts" in capsys.readouterr().out


def test_transmission_contrast(tmp_path, capsys):
    assert load("transmission_contrast").run(["--out", str(tmp_path), "--n-e", "8"]) == 0
    for tag in ("reciprocal", "directional"):
        header = (tmp_path / tag / "transmit.csv").read_text().splitlines()[0].split(",")
        assert len(header) >= 3, tag
        assert extras(tmp_path / tag)["reciprocity_defect"] >= 0.0, tag
    assert capsys.readouterr().out.count("max relative asymmetry") == 2


def test_disorder_comparison(tmp_path, capsys):
    rc = load("disorder_comparison").run(["--out", str(tmp_path), "--quick", "--threads", "1"])
    assert rc == 0
    with open(tmp_path / "paired_diff.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    # the columns the script prints, each a number
    for row in rows:
        [float(row[column]) for column in ("sqrt_w", "diff_mean", "z")]
    assert {row["observable"] for row in rows} >= {"survival", "realspace_ipr"}
    assert "paired driven-minus-undriven" in capsys.readouterr().out

