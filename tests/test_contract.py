"""The CLI contract on generated inputs.

Every run ends in exit 0 (a verdict), 1 (an input error) or 2 (a resource
bound), never with a traceback; a verdict leaves stderr empty, and an input
error or a budget exit leaves stdout empty, so no verdict is half written.
Each input runs in its own interpreter, one at a time, with a wall-clock
timeout and a bounded address space.

The inputs come from a seeded generator over three families: digit counts
past 2^1024, deep levels, and scaled levels whose atoms collide.
"""

import itertools
import json
import os
import random
import resource
import subprocess
import sys

import pytest

import moran
from moran.fourier import MeasureWindow
from moran.spectra import window_atoms
from moran.system import parse_system

SEED = 11
TIMEOUT_S = 20
ADDRESS_SPACE = 2 ** 30


def _periodic(b, n, tail_b, tail_n, scale=None):
    prefix = {"b": b, "N": n}
    if scale:
        prefix["scale"] = scale
    return {"prefix": prefix,
            "tail": {"kind": "periodic", "b": tail_b, "N": tail_n}}


def _huge_counts(rng):
    # level 1 has 2^e digits; N_2 | b_2, so the truncations are spectral
    e = rng.randint(1024, 1100)
    doc = _periodic([2 ** (e + rng.randint(1, 8)), 4], [2 ** e, 2], [4], [2])
    for argv in (["spectrum", "--level", "1"], ["complement", "--level", "2"],
                 ["fuglede", "--level", "2"], ["analyze"],
                 ["search", "--level", "1"],
                 ["check-spectrum", "--level", "2", "--lambda", "{half}"]):
        yield doc, argv


def _deep_levels(rng):
    n = rng.choice([2, 3])
    doc = _periodic([n * rng.randint(1, 2)], [n], [n], [n])
    level = str(rng.choice([40, 64, 10 ** 4]))
    for argv in (["spectrum", "--level", level],
                 ["complement", "--level", level],
                 ["fuglede", "--level", level],
                 ["search", "--level", level],
                 ["check-spectrum", "--level", level, "--lambda", "{half}"]):
        yield doc, argv


def _colliding_scales(rng):
    # finite windows of 2-3 levels, b, N <= 4, scales <= 3, atoms colliding
    while True:
        depth = rng.choice([2, 3])
        b, n, a = ([rng.randint(lo, 4) for _ in range(depth)]
                   for lo in (2, 1, 1))
        doc = {"prefix": {"b": b, "N": n, "scale": a},
               "tail": {"kind": "none"}}
        window = MeasureWindow(parse_system(json.dumps(doc)), 1, depth)
        if window_atoms(window)[1]:
            break
    level = str(depth)
    for argv in (["search", "--level", level], ["analyze"],
                 ["complement", "--level", level],
                 ["check-spectrum", "--level", level, "--lambda", "{half}"]):
        yield doc, argv


def _cases():
    rng = random.Random(SEED)
    families = {"huge-counts": _huge_counts, "deep-levels": _deep_levels,
                "colliding-scales": _colliding_scales}
    return [pytest.param(doc, argv, id=f"{name}-{argv[0]}-{i}")
            for name, family in families.items()
            for i, (doc, argv) in enumerate(family(rng))]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("doc, argv", _cases())
def test_cli_contract(tmp_path, doc, argv):
    system = tmp_path / "system.json"
    system.write_text(json.dumps(doc), encoding="utf-8")
    half = tmp_path / "half.txt"
    half.write_text("0\n1/2\n", encoding="utf-8")
    argv = [argv[0], str(system)] + [a.format(half=half) for a in argv[1:]]
    src = os.path.dirname(os.path.dirname(moran.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "moran.cli", *argv], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), timeout=TIMEOUT_S,
        preexec_fn=_limit_address_space)
    code, out, err = done.returncode, done.stdout, done.stderr
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    if code == 1 or err.startswith("budget exceeded"):
        assert out == ""
