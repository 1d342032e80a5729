"""Headline CSVs against the committed golden copies (tests/golden/).

The CSVs are regenerated as `scripts/run_benchmarks.py` writes them: bare
`holdfix` sweeps from its `EXPERIMENTS` table, so the goldens also pin the
CLI flag defaults that make those sweeps the headline setup.

The goldens were written at master seed 0 by the per-trial implementation
that predates the trial-reuse sweep engine. Rule: where the golden mean
output SNR is below 250 dB the regenerated value must be within 1e-6 dB;
at or above 250 dB the rows sit on the floating-point floor, so both values
must merely be >= 250 dB. Every other column must match exactly (the std
column carries no tolerance rule and is not compared).
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from holdfix import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FLOOR_DB = 250.0
TOL_DB = 1e-6


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "run_benchmarks", ROOT / "scripts" / "run_benchmarks.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def snr_matches(golden: float, value: float) -> bool:
    if golden >= FLOOR_DB:
        return value >= FLOOR_DB
    return abs(value - golden) <= TOL_DB


EXPERIMENTS = _load_script().EXPERIMENTS


@pytest.mark.parametrize("name, command", EXPERIMENTS, ids=[name for name, _ in EXPERIMENTS])
def test_headline_csv_matches_golden(tmp_path, name, command):
    out = tmp_path / name
    assert cli.main([*command, "--trials", "100", "--seed", "0", "--out", str(out)]) == 0
    golden_header, golden_rows = _rows(GOLDEN / name)
    header, rows = _rows(out)
    assert header == golden_header
    assert len(rows) == len(golden_rows)
    for row, golden in zip(rows, golden_rows):
        assert row[:3] == golden[:3] and row[5] == golden[5], (row, golden)
        assert snr_matches(float(golden[3]), float(row[3])), (row, golden)


def _run_script(*args):
    script = ROOT / "scripts" / "run_benchmarks.py"
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True)


def test_script_writes_the_headline_csvs(tmp_path):
    proc = _run_script("--trials", "2", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = sorted(path.name for path in GOLDEN.glob("*.csv"))
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        golden_header, golden_rows = _rows(GOLDEN / name)
        header, rows = _rows(tmp_path / name)
        assert header == golden_header
        assert [row[:3] for row in rows] == [row[:3] for row in golden_rows]


@pytest.mark.parametrize("outdir, flags, code, prefix", [
    ("out", ["--trials", "0"], 2, "error: --trials: "),
    ("out", ["--seed", "-1"], 2, "error: --seed: "),
    ("taken", [], 1, "error: "),  # names a file, not a directory
], ids=["trials-0", "seed--1", "outdir-is-a-file"])
def test_script_refuses_bad_flags_without_csvs(tmp_path, outdir, flags, code, prefix):
    (tmp_path / "taken").write_text("")
    proc = _run_script("--outdir", str(tmp_path / outdir), *flags)
    assert proc.returncode == code
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert not list(tmp_path.rglob("*.csv"))
