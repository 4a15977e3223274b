"""The CLI contract on generated inputs.

Every run ends in exit 0 (a verdict), 1 (an input error) or 2 (a resource
bound), never with a traceback; a verdict leaves stderr empty, and an input
error or a budget exit leaves stdout empty, so no verdict is half written;
stderr holds a message, never a whole input echoed back.  Each input runs
in its own interpreter, one at a time, with a wall-clock timeout and a
bounded address space.

The inputs come from a seeded generator over these families: digit counts
past 2^1024, deep levels, scaled levels whose atoms collide, integers too
long to parse (in a system, a candidate file, a digit file and a Q bound),
digit sets for tile and tijdeman (deep tiles, window refutations, non-tiles,
periods below 1), malformed candidate and digit files, formula tails with
rho = 1 and 3/2, malformed system documents, and level 0.
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
from moran.tiling import is_integer_tile

SEED = 11
TIMEOUT_S = 20
ADDRESS_SPACE = 2 ** 30
MAX_STDERR_BYTES = 2048  # a message, never a whole input echoed back
HALF = "0\n1/2\n"
BINARY = {"prefix": {"b": [2], "N": [2]}, "tail": {"kind": "none"}}


def _periodic(b, n, tail_b, tail_n, scale=None):
    prefix = {"b": b, "N": n}
    if scale:
        prefix["scale"] = scale
    return {"prefix": prefix,
            "tail": {"kind": "periodic", "b": tail_b, "N": tail_n}}


def _on_system(doc, argv):
    # the system file goes right after the command
    return ({"system": json.dumps(doc), "half": HALF},
            [argv[0], "{system}", *argv[1:]])


def _huge_counts(rng):
    # level 1 has 2^e digits; N_2 | b_2, so the truncations are spectral
    e = rng.randint(1024, 1100)
    doc = _periodic([2 ** (e + rng.randint(1, 8)), 4], [2 ** e, 2], [4], [2])
    for argv in (["spectrum", "--level", "1"], ["complement", "--level", "2"],
                 ["fuglede", "--level", "2"], ["analyze"],
                 ["search", "--level", "1"],
                 ["check-spectrum", "--level", "2", "--lambda", "{half}"]):
        yield _on_system(doc, argv)


def _deep_levels(rng):
    n = rng.choice([2, 3])
    doc = _periodic([n * rng.randint(1, 2)], [n], [n], [n])
    level = str(rng.choice([40, 64, 10 ** 4]))
    for argv in (["spectrum", "--level", level],
                 ["complement", "--level", level],
                 ["fuglede", "--level", level],
                 ["search", "--level", level],
                 ["check-spectrum", "--level", level, "--lambda", "{half}"]):
        yield _on_system(doc, argv)


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
        yield _on_system(doc, argv)


def _long_integers(rng):
    # 10^5 digits and more: past the interpreter's default cap of 4,300, and
    # below the 128 KiB a single command-line argument may hold
    big = str(rng.randint(1, 9)) + "0" * rng.randint(10 ** 5, 10 ** 5 + 1000)
    binary = json.dumps(BINARY)
    yield ({"system": '{"prefix": {"b": [%s], "N": [2]}, "tail": {"kind": '
                      '"none"}}' % big}, ["analyze", "{system}"])
    yield ({"system": binary, "lam": f"0\n{big}/2\n"},
           ["check-spectrum", "{system}", "--level", "1", "--lambda", "{lam}"])
    yield ({"system": binary, "half": HALF},
           ["qgrid", "{system}", "--level", "1", "--lambda", "{half}",
            "--from", big, "--to", "1", "--step", "1"])
    yield {"digits": f"0\n{big}\n"}, ["tile", "{digits}"]


def _digit_lines(digits):
    return "".join(f"{d}\n" for d in digits)


def _first_with(rng, certificate):
    # a random subset of [0, 24] holding 0 whose verdict has this certificate
    while True:
        dset = sorted({0, *rng.sample(range(1, 25), rng.randint(3, 8))})
        if is_integer_tile(dset).certificate == certificate:
            return dset


def _digit_sets(rng):
    # {0, 2^k} tiles Z_{2^(k+1)}, 2^k translates deep; past 2^11 the period
    # outgrows the tile bitmask
    for k in (rng.randint(9, 11), rng.randint(12, 40)):
        yield ({"digits": _digit_lines((0, 2 ** k))},
               ["tile", "{digits}", "--max-period", str(2 ** (k + 1))])
    for certificate in ("window", "T1"):
        yield ({"digits": _digit_lines(_first_with(rng, certificate))},
               ["tile", "{digits}"])
    k = rng.randint(2, 8)
    files = {"a": _digit_lines((0, 2 ** k)), "b": _digit_lines(range(2 ** k))}
    for period in (2 ** (k + 1), 0, -rng.randint(1, 64)):
        yield files, ["tijdeman", "--a", "{a}", "--b", "{b}",
                      "--period", str(period), "--r", str(2 * k + 1)]


def _malformed_files(rng):
    binary = json.dumps(BINARY)
    for text in ("0\nx\n", "0\n1/0\n", b"0\n\xff\xfe\n"):
        command = rng.choice(["check-spectrum", "qgrid", "decompose"])
        extra = {"check-spectrum": [],
                 "qgrid": ["--from", "0", "--to", "1", "--step", "1/4"],
                 "decompose": ["--split", "1"]}[command]
        yield ({"system": binary, "lam": text},
               [command, "{system}", "--level", "1", "--lambda", "{lam}",
                *extra])
    for text in ("0\n-3\n", "", "1\n2\n", b"\xff\n"):
        if rng.random() < 0.5:
            yield {"digits": text}, ["tile", "{digits}"]
        else:
            yield ({"a": text, "b": "0\n"},
                   ["tijdeman", "--a", "{a}", "--b", "{b}", "--period", "2",
                    "--r", "1"])


def _with_system(command, level="2"):
    # argv of a command that reads a system file, candidates {0, 1/2}
    if command == "analyze":
        return ["analyze"]
    extra = {"check-spectrum": ["--lambda", "{half}"],
             "decompose": ["--split", "1", "--lambda", "{half}"],
             "qgrid": ["--lambda", "{half}", "--from", "0", "--to", "1",
                       "--step", "1/4"]}.get(command, [])
    return [command, "--level", level, *extra]


LEVEL_COMMANDS = ("spectrum", "check-spectrum", "search", "decompose",
                  "qgrid", "complement", "fuglede")


def _formula_tails(rng):
    # rho = 1 holds the counts at max(2, round(c)); rho = 3/2 lets them
    # outgrow every base
    commands = ("analyze", "spectrum", "check-spectrum", "fuglede", "search",
                "complement", "qgrid")
    for i, command in enumerate(commands):
        doc = {"prefix": {"b": [rng.randint(2, 4)], "N": [2]},
               "tail": {"kind": "formula", "b": rng.randint(2, 4),
                        "c": rng.choice(["1", "5/2", "3"]),
                        "rho": ("1", "3/2")[i % 2]}}
        yield _on_system(doc, _with_system(command, str(rng.randint(2, 40))))


def _malformed_systems(rng):
    text = json.dumps(_periodic([2, 3], [2, 3], [4], [2]))
    formula = ('{"prefix": {"b": [2], "N": [2]}, "tail": {"kind": "formula", '
               '"b": 3, "c": %s, "rho": %s}}')
    documents = [
        text[:rng.randrange(1, len(text))],
        rng.choice(["[]", "3", '"prefix"', "null"]),
        "[" * 10 ** 5 + "]" * 10 ** 5,
        json.dumps(_periodic([2, 3], [2], [4], [2])),
        json.dumps(_periodic([2], [2], [], [])),
        json.dumps(_periodic([2], [rng.choice([2.5, "2", True])], [4], [2])),
        json.dumps({"prefix": {"b": [2], "N": [2]}, "tail": {
            "kind": rng.choice(["geometric", "", "Periodic"])}}),
    ]
    for bad in ('"x"', "1e400", "NaN"):
        documents.append(formula % ((bad, '"2"') if rng.random() < 0.5
                                    else ('"1"', bad)))
    for doc in documents:
        argv = _with_system(rng.choice(("analyze",) + LEVEL_COMMANDS))
        yield {"system": doc, "half": HALF}, [argv[0], "{system}", *argv[1:]]


def _level_zero(rng):
    doc = _periodic([rng.randint(2, 4)], [2], [4], [2])
    for command in LEVEL_COMMANDS:
        yield _on_system(doc, _with_system(command, "0"))


def _cases():
    rng = random.Random(SEED)
    families = {"huge-counts": _huge_counts, "deep-levels": _deep_levels,
                "colliding-scales": _colliding_scales,
                "long-integers": _long_integers, "digit-sets": _digit_sets,
                "malformed-files": _malformed_files,
                "formula-tails": _formula_tails,
                "malformed-systems": _malformed_systems,
                "level-zero": _level_zero}
    return [pytest.param(files, argv, id=f"{name}-{argv[0]}-{i}")
            for name, family in families.items()
            for i, (files, argv) in enumerate(family(rng))]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("files, argv", _cases())
def test_cli_contract(tmp_path, files, argv):
    paths = {name: tmp_path / name for name in files}
    for name, content in files.items():
        if isinstance(content, bytes):
            paths[name].write_bytes(content)
        else:
            paths[name].write_text(content, encoding="utf-8")
    argv = [a.format(**paths) for a in argv]
    src = os.path.dirname(os.path.dirname(moran.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "moran.cli", *argv], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), timeout=TIMEOUT_S,
        preexec_fn=_limit_address_space)
    code, out, err = done.returncode, done.stdout, done.stderr
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    assert len(err.encode()) <= MAX_STDERR_BYTES
    if code == 0:
        assert err == ""
    if code == 1 or err.startswith("budget exceeded"):
        assert out == ""
