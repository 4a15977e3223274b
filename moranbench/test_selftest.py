"""Self-tests of the benchmark: python3 -m pytest moranbench

Every workload runs end to end at a tiny size in both modes, and every
checker rejects one corrupted result.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from checks import CheckError  # noqa: E402
from run import ROOT, SRC, WORK, load_moran  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def m():
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    return load_moran()


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "moranbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {d["name"]: d["unit"] for d in declared}


def test_per_layer_declared():
    assert [(d["name"], d["unit"], d["better"]) for d in BENCHMARK["per_layer"]] \
        == spans.per_layer_names()


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "cli", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def first_op(m, workload, kind):
    w = WORKLOADS[workload](5, WORK)
    shared = w.prepare(m)
    for ops in w.rounds(m, shared):
        for op in ops:
            if op.kind == kind:
                return op


def corrupted(op, m, corrupt):
    result = op.run(m)
    op.check(result)  # the untouched result passes
    with pytest.raises(CheckError):
        op.check(corrupt(result))


def test_dropped_spectrum_element(m):
    def drop(out):
        elems = out["spectrum"].elements
        return {**out, "spectrum": m.spectra.CandidateSet(elems[:-1])}
    corrupted(first_op(m, "certify", "depth3"), m, drop)


def test_q_off_by_1e6(m):
    def shift(samples):
        (xi, q), *rest = samples
        return [(xi, q + 1e-6), *rest]
    corrupted(first_op(m, "transform", "qgrid"), m, shift)


def test_infinite_value_off(m):
    def shift(out):
        i = next(i for i, (v, _) in enumerate(out) if not v.exact_zero)
        value, hit = out[i]
        return out[:i] + [(dataclasses.replace(value, value=value.value + 1e-5),
                           hit)] + out[i + 1:]
    corrupted(first_op(m, "transform", "infinite"), m, shift)


@pytest.mark.parametrize("kind,flip", [
    ("Tile", dict(kind="NotTile", certificate="window")),
    ("NotTile.T1", dict(kind="Tile", certificate=None, period=4,
                        complement=(0, 1, 2, 3))),
    ("NotTile.window", dict(kind="Tile", certificate=None, period=4,
                            complement=(0, 1, 2, 3))),
])
def test_flipped_tile_verdict(m, kind, flip):
    corrupted(first_op(m, "search", kind), m,
              lambda v: dataclasses.replace(v, **flip))


def test_search_answer_dropped(m):
    corrupted(first_op(m, "search", "search2"), m, lambda found: None)


def test_changed_stdout_byte(m):
    def change(result):
        code, out, err = result
        return code, out[:-2] + chr(ord(out[-2]) ^ 1) + out[-1], err
    corrupted(first_op(m, "cli", "spectrum"), m, change)

