import io
import json
import os
import resource
import subprocess
import sys

import pytest

import moran
from moran import cli
from moran.cli import run
from moran.errors import InvariantError


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def corpus(tmp_path):
    files = {}

    def put(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        files[name] = str(path)

    put("quarter.json", json.dumps(
        {"prefix": {"b": [4, 4], "N": [2, 2]},
         "tail": {"kind": "periodic", "b": [4], "N": [2]}}))
    put("mixed.json", json.dumps(
        {"prefix": {"b": [4, 6], "N": [3, 2]}, "tail": {"kind": "none"}}))
    put("nonspectral.json", json.dumps(
        {"prefix": {"b": [2, 3], "N": [2, 2]}, "tail": {"kind": "none"}}))
    put("spec.txt", "0\n2\n8\n10\n")
    put("tile.txt", "0\n1\n8\n9\n")
    put("nottile.txt", "0\n1\n3\n4\n")
    put("gap.txt", "0\n2\n")
    put("comp.txt", "0\n2\n4\n6\n")
    return files


def test_analyze(corpus):
    code, out, _ = _run(["analyze", corpus["quarter.json"]])
    assert code == 0
    assert out == ("convergence: Convergent\n"
                   "certificate: geometric-ratio\n"
                   "sum: 2/3\n"
                   "diameter: 1/3\n"
                   "spectral: Spectral\n")


def test_analyze_finite_and_formula_tails(corpus, tmp_path):
    code, out, _ = _run(["analyze", corpus["mixed.json"]])
    assert code == 0
    assert out == ("convergence: Convergent\n"
                   "certificate: finite-prefix\n"
                   "sum: 5/6\n"
                   "diameter: 13/24\n"
                   "spectral: Spectral\n")
    formula = tmp_path / "formula.json"
    formula.write_text(json.dumps(
        {"prefix": {"b": [4], "N": [2]},
         "tail": {"kind": "formula", "b": 10, "c": "1", "rho": "2"}}),
        encoding="utf-8")
    code, out, _ = _run(["analyze", str(formula)])
    assert code == 0
    assert out == ("convergence: Convergent\n"
                   "certificate: ratio-test\n"
                   "sum: 49/72\n"
                   "diameter: unavailable\n"
                   "spectral: NotSpectral(2)\n")


def test_spectrum(corpus):
    code, out, _ = _run(["spectrum", corpus["quarter.json"], "--level", "2"])
    assert code == 0 and out == "0\n2\n8\n10\n"


def test_spectrum_nonspectral_exits_zero(corpus):
    code, out, _ = _run(["spectrum", corpus["nonspectral.json"],
                         "--level", "2"])
    assert code == 0 and out == "NOTSPECTRAL level=2\n"


def test_check_spectrum_roundtrip(corpus, tmp_path):
    code, out, _ = _run(["spectrum", corpus["quarter.json"], "--level", "2"])
    path = tmp_path / "roundtrip.txt"
    path.write_text(out, encoding="utf-8")
    code, out, _ = _run(["check-spectrum", corpus["quarter.json"],
                         "--level", "2", "--lambda", str(path)])
    assert code == 0
    assert "status: Spectrum" in out


def test_check_spectrum_violating_pair(corpus, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0\n4\n8\n12\n", encoding="utf-8")
    code, out, _ = _run(["check-spectrum", corpus["quarter.json"],
                         "--level", "2", "--lambda", str(path)])
    assert code == 0
    assert "status: OrthogonalityFail" in out
    assert "violating-pair: 0 4" in out


def test_search(corpus):
    code, out, _ = _run(["search", corpus["quarter.json"], "--level", "2"])
    assert code == 0 and out == "0\n2\n8\n10\n"
    code, out, _ = _run(["search", corpus["nonspectral.json"], "--level", "2"])
    assert code == 0 and out == "NONE\n"


def test_search_deep_clique(tmp_path):
    # a 1,024-vertex clique: one search level per vertex
    path = tmp_path / "ten.json"
    path.write_text(json.dumps({"prefix": {"b": [2] * 10, "N": [2] * 10},
                                "tail": {"kind": "none"}}), encoding="utf-8")
    code, out, err = _cli_subprocess("search", str(path), "--level", "10")
    assert (code, out, err) == (0, "".join(f"{j}\n" for j in range(1024)),
                                "")


def test_decompose(corpus):
    code, out, _ = _run(["decompose", corpus["quarter.json"], "--level", "2",
                         "--split", "1", "--lambda", corpus["spec.txt"]])
    assert code == 0
    assert out == ("A: 0 2\n"
                   "Lambda[0]: 0 8\n"
                   "Lambda[2]: 2 10\n"
                   "verified: true\n")


def test_qgrid(corpus):
    code, out, _ = _run(["qgrid", corpus["quarter.json"], "--level", "2",
                         "--lambda", corpus["spec.txt"],
                         "--from", "0", "--to", "1", "--step", "1/1000"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "xi,Q" and len(lines) == 1002
    for line in lines[1:]:
        _, q = line.split(",")
        assert abs(float(q) - 1.0) <= 1e-9


def test_qgrid_work_is_bounded(corpus):
    code, out, err = _cli_subprocess(
        "qgrid", corpus["quarter.json"], "--level", "2",
        "--lambda", corpus["spec.txt"], "--from", "0", "--to", "1",
        "--step", f"1/{10**12}")
    assert code == 2 and out == ""
    assert err.startswith("budget exceeded:") and "Traceback" not in err


def test_qgrid_deep_level_finishes(corpus):
    # at level 540, r / den of the deepest kernels is below the smallest float
    code, out, err = _cli_subprocess(
        "qgrid", corpus["quarter.json"], "--level", "540",
        "--lambda", corpus["spec.txt"], "--from", "0", "--to", "0",
        "--step", "1")
    assert (code, out, err) == (0, "xi,Q\n0,1.0\n", "")


def test_qgrid_huge_digit_count(tmp_path):
    # N = 2^1024 is past the float range; t = 1/96 is a normal float
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"prefix": {"b": [2 ** 1030], "N": [2 ** 1024]},
         "tail": {"kind": "none"}}), encoding="utf-8")
    lam = tmp_path / "zero.txt"
    lam.write_text("0\n", encoding="utf-8")
    xi = f"{2 ** 1025}/3"
    code, out, err = _cli_subprocess(
        "qgrid", str(path), "--level", "1", "--lambda", str(lam),
        "--from", xi, "--to", xi, "--step", "1")
    assert (code, out, err) == (0, f"xi,Q\n{xi},0.0\n", "")


def test_check_spectrum_counts_atoms_without_enumerating(tmp_path):
    # 2^1024 atoms at level 1, and 2^60 at level 60 of b = N = 2
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(
        {"prefix": {"b": [2 ** 1030, 4], "N": [2 ** 1024, 2]},
         "tail": {"kind": "periodic", "b": [4], "N": [2]}}), encoding="utf-8")
    binary = tmp_path / "binary.json"
    binary.write_text(json.dumps(
        {"prefix": {"b": [2], "N": [2]},
         "tail": {"kind": "periodic", "b": [2], "N": [2]}}), encoding="utf-8")
    lam = tmp_path / "lam.txt"
    lam.write_text("0\n", encoding="utf-8")
    code, out, err = _cli_subprocess("check-spectrum", str(huge), "--level",
                                     "1", "--lambda", str(lam))
    assert (code, out, err) == (0, f"status: CardinalityFail\n"
                                f"atoms: {2 ** 1024}\ncardinality: 1\n", "")
    lam.write_text("0\n1/2\n", encoding="utf-8")
    code, out, err = _cli_subprocess("check-spectrum", str(binary), "--level",
                                     "60", "--lambda", str(lam))
    assert (code, out, err) == (0, f"status: OrthogonalityFail\n"
                                f"atoms: {2 ** 60}\ncardinality: 2\n"
                                "violating-pair: 0 1/2\n", "")


def test_check_spectrum_prints_big_integers_in_full(tmp_path):
    # 2^15000 atoms: 4,516 digits, past the interpreter's default cap on
    # int-to-str conversion, which run() lifts and then restores
    binary = tmp_path / "binary.json"
    binary.write_text(json.dumps(
        {"prefix": {"b": [2], "N": [2]},
         "tail": {"kind": "periodic", "b": [2], "N": [2]}}), encoding="utf-8")
    lam = tmp_path / "lam.txt"
    lam.write_text("0\n1/2\n", encoding="utf-8")
    lift = hasattr(sys, "set_int_max_str_digits")
    cap = sys.get_int_max_str_digits() if lift else None
    try:
        if lift:
            sys.set_int_max_str_digits(4300)
        code, out, err = _run(["check-spectrum", str(binary), "--level",
                               "15000", "--lambda", str(lam)])
        if lift:
            assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)
        atoms = str(2 ** 15000)
    finally:
        if lift:
            sys.set_int_max_str_digits(cap)
    assert (code, err) == (0, "")
    assert out == (f"status: OrthogonalityFail\natoms: {atoms}\n"
                   "cardinality: 2\nviolating-pair: 0 1/2\n")


HUGE = {"prefix": {"b": [2 ** 1030, 4], "N": [2 ** 1024, 2]},
        "tail": {"kind": "periodic", "b": [4], "N": [2]}}
BINARY = {"prefix": {"b": [2], "N": [2]},
          "tail": {"kind": "periodic", "b": [2], "N": [2]}}


@pytest.mark.parametrize("doc, command, level", [
    (HUGE, "spectrum", "1"),
    (HUGE, "complement", "2"),
    (HUGE, "fuglede", "2"),
    (BINARY, "spectrum", "40"),
])
def test_digit_sums_past_the_bound_exit_2(tmp_path, doc, command, level):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _cli_subprocess(command, str(path), "--level", level)
    assert (code, out) == (2, "")
    assert err == "budget exceeded: sumset of more than 1048576 terms\n"


TOO_LONG = "1" + "0" * 4300  # one digit past the interpreter's default cap


@pytest.mark.parametrize("argv", [
    ["analyze", "{long_base}"],
    ["check-spectrum", "{binary}", "--level", "1", "--lambda", "{long_lambda}"],
    ["qgrid", "{binary}", "--level", "1", "--lambda", "{half}",
     "--from", TOO_LONG, "--to", "1", "--step", "1"],
    ["tile", "{long_digits}"],
], ids=["system-base", "candidate", "qgrid-from", "digit-file"])
def test_over_long_input_integers_exit_1(tmp_path, argv):
    # run() prints big integers in full, but its inputs keep the cap
    files = {"long_base": '{"prefix": {"b": [%s], "N": [2]}, '
                          '"tail": {"kind": "none"}}' % TOO_LONG,
             "binary": json.dumps({"prefix": {"b": [2], "N": [2]},
                                   "tail": {"kind": "none"}}),
             "long_lambda": f"0\n{TOO_LONG}/2\n", "half": "0\n1/2\n",
             "long_digits": f"0\n{TOO_LONG}\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    paths = {name: tmp_path / name for name in files}
    code, out, err = _cli_subprocess(*(a.format(**paths) for a in argv))
    assert (code, out) == (1, "") and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["tile", "{long_digits}"],
    ["check-spectrum", "{binary}", "--level", "1", "--lambda", "{long_lambda}"],
    ["analyze", "{long_kind}"],
    ["search", "{binary}", "--level", "1" + "0" * 99_999],
], ids=["digit-file", "candidate", "tail-kind", "level"])
def test_input_errors_echo_a_bounded_message(tmp_path, argv):
    # the message is cut at cli.MAX_MESSAGE_CHARS, the input is not echoed
    long = "1" + "0" * 399_999
    files = {"long_digits": f"0\n{long}\n", "long_lambda": f"0\n{long}/2\n",
             "long_kind": json.dumps({"prefix": {"b": [2], "N": [2]},
                                      "tail": {"kind": "x" * 400_000}}),
             "binary": json.dumps({"prefix": {"b": [2], "N": [2]},
                                   "tail": {"kind": "none"}})}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    paths = {name: tmp_path / name for name in files}
    code, out, err = _cli_subprocess(*(a.format(**paths) for a in argv))
    assert (code, out) == (1, "")
    message = [line for line in err.splitlines(keepends=True)
               if not line.startswith(("usage:", " "))]
    assert len(message) == 1 and message[0].startswith("error: ")
    assert message[0].endswith(" more characters)\n")
    assert len(message[0].encode()) < 1200


def test_inputs_parse_up_to_the_default_cap(tmp_path):
    # 4,300 digits parse, whatever cap the calling process has set
    binary = tmp_path / "binary.json"
    binary.write_text(json.dumps({"prefix": {"b": [2], "N": [2]},
                                  "tail": {"kind": "none"}}), encoding="utf-8")
    lam = tmp_path / "lam.txt"
    lam.write_text(f"0\n{TOO_LONG[:-1]}\n", encoding="utf-8")
    code, out, err = _run(["check-spectrum", str(binary), "--level", "1",
                           "--lambda", str(lam)])
    assert (code, err) == (0, "")
    assert out == f"status: OrthogonalityFail\natoms: 2\ncardinality: 2\n" \
        f"violating-pair: 0 {TOO_LONG[:-1]}\n"


def test_search_with_colliding_atoms_prints_none(tmp_path):
    # 40 distinct atoms of 64 with unequal weights: no spectrum
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(
        {"prefix": {"b": [4, 4, 4], "N": [4, 4, 4], "scale": [2, 1, 2]},
         "tail": {"kind": "none"}}), encoding="utf-8")
    assert _cli_subprocess("search", str(path), "--level", "3") == \
        (0, "NONE\n", "")


def test_tile_verdicts(corpus):
    code, out, _ = _run(["tile", corpus["tile.txt"]])
    assert code == 0 and out == "TILE m=16 complement=0,2,4,6\n"
    code, out, _ = _run(["tile", corpus["nottile.txt"]])
    assert code == 0 and out == "NOTTILE T1 A(1)=4 prod=2\n"
    code, out, _ = _run(["tile", corpus["gap.txt"], "--max-period", "2"])
    assert code == 2 and out == "UNKNOWN m_max=2\n"


def test_tile_window_certificate(tmp_path):
    # T1 holds, but no packing of translates covers [0, 36)
    path = tmp_path / "window.txt"
    path.write_text("".join(f"{d}\n" for d in (0, 1, 2, 5, 6, 7, 10, 11, 12,
                                                15, 16, 17)), encoding="utf-8")
    assert _run(["tile", str(path)]) == (0, "NOTTILE WINDOW width=36\n", "")


def test_tile_digit_file_format(tmp_path):
    path = tmp_path / "digits.txt"
    path.write_text("# the tile {0, 1, 8, 9}\n0\n1\n\n8\n9\n",
                    encoding="utf-8")
    assert _run(["tile", str(path)]) == \
        (0, "TILE m=16 complement=0,2,4,6\n", "")
    path.write_text("0\nx\n", encoding="utf-8")
    assert _run(["tile", str(path)]) == \
        (1, "", "error: line 2: not an integer: 'x'\n")
    path.write_text("0\n-3\n", encoding="utf-8")
    assert _run(["tile", str(path)]) == \
        (1, "", "error: line 2: digits must be nonnegative\n")


def test_tile_deep_window_search(tmp_path):
    digits = tmp_path / "far.txt"
    digits.write_text("0\n1000\n", encoding="utf-8")
    code, out, err = _run(["tile", str(digits)])
    assert (code, out, err) == (0, "TILE m=16 complement=0,1,2,3,4,5,6,7\n",
                                "")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def _cli_subprocess(*argv):
    # a fresh interpreter with a timeout and 1 GiB of address space: a run
    # without bound fails the test
    src = os.path.dirname(os.path.dirname(moran.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "moran.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=20,
                          preexec_fn=_limit_address_space)
    return done.returncode, done.stdout, done.stderr


def _tile_subprocess(tmp_path, digits, *options):
    path = tmp_path / "digits.txt"
    path.write_text("".join(f"{d}\n" for d in digits), encoding="utf-8")
    return _cli_subprocess("tile", str(path), *options)


def test_tile_long_periods_finish(tmp_path):
    code, out, err = _tile_subprocess(tmp_path, (0, 64))
    complement = ",".join(str(t) for t in range(64))
    assert (code, out, err) == (0, f"TILE m=128 complement={complement}\n",
                                "")
    code, out, err = _tile_subprocess(tmp_path, (0, 2048),
                                      "--max-period", "4096")
    complement = ",".join(str(t) for t in range(2048))
    assert (code, out, err) == (0, f"TILE m=4096 complement={complement}\n",
                                "")


def test_tile_huge_digits_stay_bounded(tmp_path):
    code, out, err = _tile_subprocess(tmp_path, (0, 10**12))
    assert (code, out, err) == (2, "UNKNOWN m_max=256\n", "")
    code, out, err = _tile_subprocess(tmp_path, (0, 2**20),
                                      "--max-period", "4194304")
    assert code == 2 and out == ""
    assert err.startswith("budget exceeded:") and "Traceback" not in err


def test_complement(corpus):
    code, out, _ = _run(["complement", corpus["quarter.json"],
                         "--level", "2"])
    assert code == 0
    assert out == ('{"prefix":{"b":[4,4],"N":[1,2],"scale":[1,2]},'
                   '"tail":{"kind":"none"}}\n'
                   "L: 8\n"
                   "verified: true\n")
    code, out, _ = _run(["complement", corpus["nonspectral.json"],
                         "--level", "2"])
    assert code == 0 and out == "NOTSPECTRAL level=2\n"
    assert _run(["complement", corpus["quarter.json"], "--level", "0"]) == \
        (1, "", "error: level must be >= 1, got 0\n")


def test_fuglede_text_and_json(corpus):
    code, out, _ = _run(["fuglede", corpus["quarter.json"], "--level", "2"])
    assert code == 0
    assert "verdict: Spectral" in out
    assert "interval: [0, 1/2]" in out
    assert "kolmogorov: 1/8" in out
    assert "convolution_uniform: true" in out

    code, out, _ = _run(["fuglede", corpus["quarter.json"], "--level", "2",
                         "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Spectral" and doc["L"] == 8
    assert doc["kolmogorov_distance"] == "1/8"
    assert doc["spectrum"] == ["0", "2", "8", "10"]


def test_tijdeman(corpus):
    code, out, _ = _run(["tijdeman", "--a", corpus["tile.txt"],
                         "--b", corpus["comp.txt"],
                         "--period", "16", "--r", "3"])
    assert code == 0 and out == "0\n3\n8\n11\n"
    code, _, err = _run(["tijdeman", "--a", corpus["tile.txt"],
                         "--b", corpus["comp.txt"],
                         "--period", "16", "--r", "2"])
    assert code == 1 and "error" in err
    assert _run(["tijdeman", "--a", corpus["tile.txt"],
                 "--b", corpus["comp.txt"], "--period", "0", "--r", "3"]) == \
        (1, "", "error: period must be >= 1, got 0\n")


def test_usage_errors(corpus):
    code, out, err = _run(["frobnicate"])
    assert code == 1 and out == "" and err
    code, _, err = _run(["spectrum", corpus["quarter.json"]])
    assert code == 1 and "level" in err
    code, out, err = _run(["qgrid", corpus["quarter.json"], "--level", "2",
                           "--lambda", corpus["spec.txt"], "--from", "0",
                           "--to", "1", "--step", "1", "--eps", "1e-9"])
    assert code == 1 and out == "" and "--eps" in err


def test_help_is_written_to_out(monkeypatch):
    # one terminal width for argparse in this process and the subprocess
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _run(["--help"])
    assert (code, err) == (0, "") and out.startswith("usage: moran [-h]")
    assert _cli_subprocess("--help") == (0, out, "")
    code, out, err = _run(["search", "--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: moran search") and "--budget" in out


def test_input_errors(corpus, tmp_path):
    code, _, err = _run(["analyze", str(tmp_path / "missing.json")])
    assert code == 1 and err
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = _run(["analyze", str(bad)])
    assert code == 1 and "error" in err


def test_budget_exit_code(corpus, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps(
        {"prefix": {"b": [600, 600], "N": [2, 2]},
         "tail": {"kind": "none"}}), encoding="utf-8")
    code, _, err = _run(["search", str(big), "--level", "2"])
    assert code == 2 and "budget" in err


def test_parser_reuse_matches_fresh_parser(corpus, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps(
        {"prefix": {"b": [600, 600], "N": [2, 2]},
         "tail": {"kind": "none"}}), encoding="utf-8")
    qgrid = ["qgrid", corpus["quarter.json"], "--level", "2",
             "--lambda", corpus["spec.txt"],
             "--from", "0", "--to", "1", "--step", "1/100"]
    calls = [["frobnicate"], ["spectrum", corpus["quarter.json"]], qgrid,
             ["search", str(big), "--level", "2"], qgrid]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_run(argv))
    assert [code for code, _, _ in fresh] == [1, 1, 0, 2, 0]
    cli._build_parser.cache_clear()
    assert [_run(argv) for argv in calls] == fresh
    assert cli._build_parser.cache_info().misses == 1


def test_invariant_error_exit_code(corpus, monkeypatch):
    def broken(system):
        raise InvariantError("certificate failed")

    monkeypatch.setattr(moran.system, "check_convergence", broken)
    code, out, err = _run(["analyze", corpus["quarter.json"]])
    assert (code, out, err) == (3, "", "internal: certificate failed\n")


def test_outputs_are_reproducible(corpus):
    commands = [
        ["analyze", corpus["quarter.json"]],
        ["spectrum", corpus["mixed.json"], "--level", "2"],
        ["qgrid", corpus["quarter.json"], "--level", "2",
         "--lambda", corpus["spec.txt"],
         "--from", "0", "--to", "1", "--step", "1/100"],
        ["fuglede", corpus["mixed.json"], "--level", "2", "--json"],
    ]
    for argv in commands:
        first = _run(argv)
        second = _run(argv)
        assert first == second
