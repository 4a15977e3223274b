"""Command-line front end.

Exit codes: 0 = verdict computed (even NotSpectral/NotTile), 1 = input
error, 2 = resource bound hit (Unknown verdict or budget), 3 = internal
invariant breach (a bug, reported as 'internal: ...').  All rationals
print as p/q; floats print as shortest round-trip decimals; CSV uses ','
and '\\n'.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from . import fuglede, spectra, system, tiling
from .errors import (BudgetError, InvariantError, MoranError,
                     NotSpectralError, ParseError)
from .fourier import MeasureWindow
from .system import format_rational, parse_rational


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# the interpreter's default int/str digit cap, under which every input
# parses (Python 3.10 before 3.10.7 has no cap); output prints uncapped
_INPUT_DIGITS = getattr(sys.int_info, "default_max_str_digits", None)


def _digit_cap(cap: int, fn, *args):
    """fn(*args) with the int/str digit cap set to cap (0: no cap)."""
    if _INPUT_DIGITS is None:
        return fn(*args)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(cap)
    try:
        return fn(*args)
    finally:
        sys.set_int_max_str_digits(old)


# stderr keeps this many characters of a message: an input error must not
# echo a whole over-long input back
MAX_MESSAGE_CHARS = 1000


def _cut(message) -> str:
    text = str(message)
    rest = len(text) - MAX_MESSAGE_CHARS
    if rest <= 0:
        return text
    return f"{text[:MAX_MESSAGE_CHARS]}... ({rest} more characters)"


def _load(parse, path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _digit_cap(_INPUT_DIGITS, parse, fh.read())


def _parse_digits(text: str) -> list[int]:
    values = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            value = int(line)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: not an integer: {line!r}") from exc
        if value < 0:
            raise ParseError(f"line {lineno}: digits must be nonnegative")
        values.append(value)
    return values


def _rationals(values) -> str:
    return " ".join(format_rational(v) for v in values)


@functools.cache  # parse_args leaves the parser unchanged: build it once
def _build_parser() -> _Parser:
    parser = _Parser(prog="moran", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        return p

    def with_level(p):
        p.add_argument("system", help="system JSON file")
        p.add_argument("--level", type=int, required=True, metavar="N")
        return p

    command("analyze", _cmd_analyze).add_argument("system")
    with_level(command("spectrum", _cmd_spectrum))
    p = with_level(command("check-spectrum", _cmd_check_spectrum))
    p.add_argument("--lambda", dest="lam", required=True, metavar="FILE")
    p = with_level(command("search", _cmd_search))
    p.add_argument("--budget", type=int, default=5000)
    p = with_level(command("decompose", _cmd_decompose))
    p.add_argument("--split", type=int, required=True, metavar="K")
    p.add_argument("--lambda", dest="lam", required=True, metavar="FILE")
    p = with_level(command("qgrid", _cmd_qgrid))
    p.add_argument("--lambda", dest="lam", required=True, metavar="FILE")
    p.add_argument("--from", dest="start", required=True, metavar="Q")
    p.add_argument("--to", dest="stop", required=True, metavar="Q")
    p.add_argument("--step", required=True, metavar="Q")
    p = command("tile", _cmd_tile)
    p.add_argument("digits", help="digit-set file, one integer per line")
    p.add_argument("--max-period", type=int, default=256)
    with_level(command("complement", _cmd_complement))
    p = with_level(command("fuglede", _cmd_fuglede))
    p.add_argument("--json", action="store_true", dest="as_json")
    p = command("tijdeman", _cmd_tijdeman)
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    return parser


def _cmd_analyze(args, out: TextIO) -> int:
    sys_ = _load(system.parse_system, args.system)
    report = system.check_convergence(sys_)
    print(f"convergence: {report.verdict}", file=out)
    print(f"certificate: {report.certificate}", file=out)
    total = "-" if report.total is None else format_rational(report.total)
    print(f"sum: {total}", file=out)
    if isinstance(sys_.tail, system.FormulaTail):
        print("diameter: unavailable", file=out)
    else:
        info = system.support_info(sys_, sys_.horizon)
        print(f"diameter: {format_rational(info.diameter)}", file=out)
    verdict = spectra.truncation_spectral_verdict(sys_, sys_.horizon)
    print(f"spectral: {verdict}", file=out)
    return 0


def _cmd_spectrum(args, out: TextIO) -> int:
    sys_ = _load(system.parse_system, args.system)
    cs = spectra.canonical_spectrum(sys_, args.level)
    out.write(spectra.format_candidates(cs))
    return 0


def _cmd_check_spectrum(args, out: TextIO) -> int:
    sys_ = _load(system.parse_system, args.system)
    cert = spectra.is_spectrum(MeasureWindow(sys_, 1, args.level),
                               _load(spectra.parse_candidates, args.lam))
    print(f"status: {cert.status}", file=out)
    print(f"atoms: {cert.atom_count}", file=out)
    print(f"cardinality: {len(cert.candidate)}", file=out)
    if cert.violating_pair is not None:
        print(f"violating-pair: {_rationals(cert.violating_pair)}", file=out)
    return 0


def _cmd_search(args, out: TextIO) -> int:
    sys_ = _load(system.parse_system, args.system)
    found = spectra.spectrum_search(MeasureWindow(sys_, 1, args.level),
                                    budget=args.budget)
    if found is None:
        print("NONE", file=out)
    else:
        out.write(spectra.format_candidates(found))
    return 0


def _cmd_decompose(args, out: TextIO) -> int:
    sys_ = _load(system.parse_system, args.system)
    lam = _load(spectra.parse_candidates, args.lam)
    result = spectra.suitable_decomposition(sys_, args.level, args.split, lam)
    print(f"A: {_rationals(result.head)}", file=out)
    for alpha in result.head:
        part = result.parts[alpha]
        print(f"Lambda[{format_rational(alpha)}]: {_rationals(part)}", file=out)
    report = spectra.verify_decomposition(result)
    print(f"verified: {'true' if report.passed else 'false'}", file=out)
    return 0


def _cmd_qgrid(args, out: TextIO) -> int:
    sys_ = _load(system.parse_system, args.system)
    window = MeasureWindow(sys_, 1, args.level)
    lam = _load(spectra.parse_candidates, args.lam)
    bounds = [_digit_cap(_INPUT_DIGITS, parse_rational, q)
              for q in (args.start, args.stop, args.step)]
    samples = spectra.q_grid(window, lam, *bounds)
    out.write("xi,Q\n")
    for xi, q in samples:
        out.write(f"{format_rational(xi)},{q!r}\n")
    return 0


def _cmd_tile(args, out: TextIO) -> int:
    verdict = tiling.is_integer_tile(_load(_parse_digits, args.digits),
                                     m_max=args.max_period)
    if verdict.kind == tiling.TILE:
        complement = ",".join(str(t) for t in verdict.complement)
        print(f"TILE m={verdict.period} complement={complement}", file=out)
        return 0
    if verdict.kind == tiling.NOT_TILE:
        if verdict.certificate == "T1":
            print(f"NOTTILE T1 A(1)={verdict.mask_value} "
                  f"prod={verdict.phi_product}", file=out)
        else:
            print(f"NOTTILE WINDOW width={verdict.window}", file=out)
        return 0
    print(f"UNKNOWN m_max={verdict.searched_up_to}", file=out)
    return 2


def _cmd_complement(args, out: TextIO) -> int:
    sys_ = _load(system.parse_system, args.system)
    complement, cert = tiling.canonical_complement(sys_, args.level)
    print(system.serialize_system(complement), file=out)
    print(f"L: {cert.length}", file=out)
    print(f"verified: {'true' if cert.verified else 'false'}", file=out)
    return 0


def _fuglede_json(report) -> dict:
    doc = {
        "level": report.level,
        "verdict": str(report.verdict),
        "interval": [format_rational(x) for x in report.interval],
    }
    if report.spectrum is not None:
        doc["spectrum"] = [format_rational(x) for x in report.spectrum]
        doc["complement"] = json.loads(
            system.serialize_system(report.complement))
        doc["L"] = report.certificate.length
        doc["convolution_uniform"] = report.convolution_uniform
        doc["kolmogorov_distance"] = format_rational(
            report.kolmogorov_distance)
    return doc


def _cmd_fuglede(args, out: TextIO) -> int:
    sys_ = _load(system.parse_system, args.system)
    report = fuglede.fuglede_report(sys_, args.level)
    if args.as_json:
        print(json.dumps(_fuglede_json(report), separators=(",", ":")),
              file=out)
        return 0
    print(f"level: {report.level}", file=out)
    print(f"verdict: {report.verdict}", file=out)
    lo, hi = report.interval
    print(f"interval: [{format_rational(lo)}, {format_rational(hi)}]",
          file=out)
    if report.spectrum is not None:
        print(f"L: {report.certificate.length}", file=out)
        print(f"kolmogorov: {format_rational(report.kolmogorov_distance)}",
              file=out)
        uniform = "true" if report.convolution_uniform else "false"
        print(f"convolution_uniform: {uniform}", file=out)
        print(f"spectrum: {_rationals(report.spectrum)}", file=out)
        print(f"complement: {system.serialize_system(report.complement)}",
              file=out)
    return 0


def _cmd_tijdeman(args, out: TextIO) -> int:
    result = tiling.tijdeman_rescale(_load(_parse_digits, args.a),
                                     _load(_parse_digits, args.b),
                                     args.period, args.r)
    for x in result.scaled:
        print(x, file=out)
    return 0


def run(argv: Sequence[str], out: Optional[TextIO] = None,
        err: Optional[TextIO] = None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        # argparse prints --help to sys.stdout, then raises SystemExit(0)
        with contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {_cut(exc)}", file=err)
        parser.print_usage(err)
        return 1
    except SystemExit as exc:
        return exc.code
    try:
        return _digit_cap(0, args.handler, args, out)
    except NotSpectralError as exc:  # a verdict (spectrum, complement)
        print(f"NOTSPECTRAL level={exc.level}", file=out)
        return 0
    except BudgetError as exc:
        print(f"budget exceeded: {_cut(exc)}", file=err)
        return 2
    except InvariantError as exc:
        print(f"internal: {_cut(exc)}", file=err)
        return 3
    except (MoranError, OSError, ValueError) as exc:
        print(f"error: {_cut(exc)}", file=err)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
