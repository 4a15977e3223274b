"""The per-layer benchmark records at the root of the repository: every
BENCH_*.json is a list of records in one schema (name, layer, unit, a
numeric median, an integer iteration count and the Python version)."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def test_bench_records_exist():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_records_share_one_schema(path):
    records = json.loads(path.read_text())
    assert isinstance(records, list) and records, path.name
    for i, record in enumerate(records):
        where = f"{path.name}[{i}]"
        assert isinstance(record, dict), where
        for key in ("name", "layer", "unit", "python"):
            assert isinstance(record.get(key), str) and record[key], \
                f"{where}: {key}"
        assert _is_number(record.get("median")), f"{where}: median"
        assert math.isfinite(record["median"]), f"{where}: median"
        iterations = record.get("iterations")
        assert isinstance(iterations, int) and not isinstance(
            iterations, bool) and iterations >= 0, f"{where}: iterations"
