"""The four workloads of the moran benchmark.

A workload turns a seed into rounds of operations.  Every operation is one
user-level question: ``run(m)`` asks it through the public API of the moran
modules held by ``m`` (the only timed part) and ``check(result)`` compares the
answer with a reference computed while the operation was generated.  Rounds
have a fixed composition, so every seed measures the same mix of input
classes; the seed picks the concrete inputs and their order.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from checks import (PeriodicLevels, canonical_set, check_complement,
                    check_is_spectrum_set, check_q_grid, check_tiling,
                    cli_digest, covering_nodes, digit_sums, first_violation,
                    infinite_zero, phi_product, reference_transform,
                    require)

HERE = Path(__file__).resolve().parent
CLI_GOLDEN = HERE / "cli_golden.json"


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    input: str = ""


def system_doc(prefix, block=None) -> str:
    """System document for (b, N, a) level lists; no block means finite."""
    def levels(lv):
        doc = {"b": [b for b, _, _ in lv], "N": [n for _, n, _ in lv]}
        if any(a != 1 for _, _, a in lv):
            doc["scale"] = [a for _, _, a in lv]
        return doc
    tail = {"kind": "none"} if block is None else {"kind": "periodic",
                                                   **levels(block)}
    return json.dumps({"prefix": levels(prefix), "tail": tail})


def shaped_levels(rng, shape, violate=False):
    """(b, N, 1) levels from a shape of (N, r) pairs with b = r N.

    The seed shuffles levels 2..n and may raise b_1 by one (level 1 carries
    no condition).  With violate, one level j >= 2 gets b_j = r N + 1, which
    N does not divide, so exactly that level breaks N_j | b_j.
    """
    (n1, r1), rest = shape[0], list(shape[1:])
    rng.shuffle(rest)
    levels = [(n1 * r1 + rng.randint(0, 1), n1, 1)]
    levels += [(n * r, n, 1) for n, r in rest]
    if violate:
        j = rng.randrange(1, len(levels))
        b, n, _ = levels[j]
        levels[j] = (b + 1, n, 1)
    return levels


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self, m) -> Any:
        """Shared moran state built before the first op (counted in setup_s)."""
        return None

    def rounds(self, m, shared):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# certify: exact set-level work on fresh finite systems


# (shape, spectral?) per slot: 4-64 atoms, b <= 12; 4 of the 16 slots break
# N_j | b_j at one level.  Equal shapes within a depth keep the median inside
# the depth-3 class and p90 inside the depth-5 class for every seed.
D3 = ((2, 3), (3, 2), (2, 2))
D5 = ((2, 2),) * 4 + ((2, 3),)
CERTIFY_ROUND = [
    (((2, 3), (3, 2)), False), (D3, False), (((2, 2),) * 4, False),
    (((2, 2),) * 6, False),
    (((2, 2), (2, 3)), True), (((3, 2), (2, 3)), True),
    (D3, True), (D3, True), (D3, True), (D3, True),
    (((2, 2), (2, 2), (2, 3), (2, 2)), True), (((2, 3), (2, 2), (3, 2), (2, 2)), True),
    (D5, True), (D5, True), (D5, True),
    (((2, 2),) * 5 + ((2, 3),), True),
]


class Certify(Workload):
    name = "certify"

    def rounds(self, m, shared):
        rng = random.Random(self.seed)
        while True:
            slots = list(CERTIFY_ROUND)
            rng.shuffle(slots)
            yield [self._op(m, rng, shape, ok) for shape, ok in slots]

    def _op(self, m, rng, shape, spectral) -> Op:
        levels = shaped_levels(rng, shape, violate=not spectral)
        n = len(levels)
        counts = [c for _, c, _ in levels]
        violate = first_violation(levels)
        doc = system_doc(levels)
        expected = canonical_set(levels)
        candidate = m.spectra.CandidateSet.of(expected)
        errors = m.errors

        def run(m):
            s = m.system.parse_system(doc)
            out = {"verdict": m.spectra.truncation_spectral_verdict(s, n)}
            try:
                out["spectrum"] = m.spectra.canonical_spectrum(s, n)
            except errors.NotSpectralError as exc:
                out["spectrum"] = exc.level
            tested = out["spectrum"] if violate is None else candidate
            out["cert"] = m.spectra.is_spectrum(m.fourier.MeasureWindow(s, 1, n),
                                                tested)
            out["splits"] = []
            if violate is None:
                for k in range(1, n):
                    dec = m.spectra.suitable_decomposition(s, n, k, tested)
                    out["splits"].append((dec, m.spectra.verify_decomposition(dec)))
            try:
                out["complement"] = m.tiling.canonical_complement(s, n)
            except errors.NotSpectralError as exc:
                out["complement"] = exc.level
            out["fuglede"] = m.fuglede.fuglede_report(s, n)
            return out

        def check(out):
            verdict, fug = out["verdict"], out["fuglede"]
            if violate is not None:
                require(verdict.kind == "NotSpectral" and verdict.level == violate,
                        f"verdict {verdict}, expected NotSpectral({violate})")
                require(out["spectrum"] == violate and out["complement"] == violate,
                        "canonical spectrum or complement built for a "
                        "non-spectral system")
                require(out["cert"].status != "Spectrum",
                        "a set passed as a spectrum of a non-spectral window")
                require(fug.verdict.kind == "NotSpectral" and fug.spectrum is None,
                        "fuglede report claims spectrality")
                return
            require(verdict.kind == "Spectral", f"verdict {verdict}, expected Spectral")
            require(list(out["spectrum"]) == expected, "canonical spectrum differs")
            cert = out["cert"]
            require(cert.status == "Spectrum" and cert.atom_count == len(expected),
                    f"is_spectrum: {cert.status}, {cert.atom_count} atoms")
            require(len(out["splits"]) == n - 1, "a split was skipped")
            for k, (dec, report) in enumerate(out["splits"], 1):
                require(report.passed, f"split {k}: a clause failed")
                require(len(dec.head) == math.prod(counts[:k]),
                        f"split {k}: |A| = {len(dec.head)}")
                union = sorted(x for part in dec.parts.values() for x in part)
                require(union == expected and all(
                    a in part for a, part in dec.parts.items()),
                        f"split {k}: parts do not partition the spectrum")
            comp, ccert = out["complement"]
            require(ccert.verified, "complement certificate not verified")
            check_complement(levels, [(lv.base, lv.count, lv.scale)
                                      for lv in comp.prefix], ccert.length)
            require(fug.verdict.kind == "Spectral"
                    and list(fug.spectrum) == expected
                    and fug.complement == comp
                    and fug.certificate.length == ccert.length
                    and fug.convolution_uniform is True
                    and fug.kolmogorov_distance == Fraction(1, ccert.length),
                    "fuglede report differs from its parts")

        return Op(f"depth{n}" + ("" if spectral else ".nonspectral"), run, check,
                  doc)


# ---------------------------------------------------------------------------
# transform: float kernels over a few shared periodic-tail systems


# (prefix shape, tail block shape) of the shared periodic-tail systems,
# |Lambda| = 2, 3, 4, 6, 4 at the prefix level
TRANSFORM_SYSTEMS = [
    (((2, 2),), ((2, 2),)),
    (((3, 2),), ((3, 2),)),
    (((2, 2), (2, 3)), ((2, 3),)),
    (((2, 3), (3, 2)), ((3, 2), (2, 2))),
    (((4, 2),), ((2, 2), (2, 3))),
]
DOUBLED = 3  # the |Lambda| = 6 system gets two ops of each kind per round
QGRID_POINTS = 1001
QGRID = [Fraction(i, QGRID_POINTS - 1) for i in range(QGRID_POINTS)]
INFINITE_BATCH = 16  # (xi, eps) pairs per infinite-window op
XI_DECADES = 12  # |xi| in [1, 1e12]
EPS_RANGE = (-12, -6)  # log10 of eps


class Transform(Workload):
    name = "transform"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(self.seed)
        self.systems = [(shaped_levels(rng, prefix), shaped_levels(rng, block))
                        for prefix, block in TRANSFORM_SYSTEMS]

    def prepare(self, m):
        shared = []
        for prefix, block in self.systems:
            s = m.system.parse_system(system_doc(prefix, block))
            level = len(prefix)
            window = m.fourier.MeasureWindow(s, 1, level)
            shared.append((s, window, m.spectra.canonical_spectrum(s, level)))
        return shared

    def rounds(self, m, shared):
        rng = random.Random(self.seed + 1)
        while True:
            ops = []
            for i, ((s, window, spectrum), (prefix, block)) in enumerate(
                    zip(shared, self.systems)):
                ops.append(self._qgrid_op(window, spectrum))
                ops.append(self._infinite_op(rng, s, PeriodicLevels(prefix, block)))
                if i == DOUBLED:
                    ops.append(self._qgrid_op(window, spectrum))
                    ops.append(self._infinite_op(rng, s, PeriodicLevels(prefix, block)))
            rng.shuffle(ops)
            yield ops

    @staticmethod
    def _qgrid_op(window, spectrum) -> Op:
        step = Fraction(1, QGRID_POINTS - 1)

        def run(m):
            return m.spectra.q_grid(window, spectrum, Fraction(0), Fraction(1), step)

        return Op("qgrid", run, lambda out: check_q_grid(out, QGRID))

    def _infinite_op(self, rng, s, levels) -> Op:
        # stratified: each op draws |xi| and eps once from each of
        # INFINITE_BATCH equal slices of their log ranges, paired at random
        xi_slices = rng.sample(range(INFINITE_BATCH), INFINITE_BATCH)
        eps_slices = rng.sample(range(INFINITE_BATCH), INFINITE_BATCH)
        lo, hi = EPS_RANGE
        cases = []
        for i, (xs, es) in enumerate(zip(xi_slices, eps_slices)):
            size = 10 ** (XI_DECADES * (xs + rng.random()) / INFINITE_BATCH)
            xi = self._aligned_xi(rng, levels, size) if i % 2 else \
                self._plain_xi(rng, size)
            eps = 10 ** (lo + (hi - lo) * (es + rng.random()) / INFINITE_BATCH)
            zero = infinite_zero(levels, xi)
            ref = None if zero else reference_transform(levels, xi, eps * 1e-3)
            cases.append((xi, eps, zero, ref))

        def run(m):
            window = m.fourier.MeasureWindow(s)
            return [(m.fourier.evaluate_transform(window, xi, eps),
                     m.fourier.zero_stratum(window, xi))
                    for xi, eps, _, _ in cases]

        def check(out):
            require(len(out) == len(cases), "a transform value is missing")
            for (value, hit), (xi, eps, zero, ref) in zip(out, cases):
                require(value.exact_zero == zero and (hit is not None) == zero,
                        f"zero-set membership of xi={xi} is wrong")
                if zero:
                    _, n, a = levels[hit.level]
                    big = math.prod(levels[k][0] for k in range(1, hit.level + 1))
                    require(value.value == 0 and hit.multiplier % n
                            and xi * a * n == hit.multiplier * big,
                            f"bad zero-stratum witness for xi={xi}")
                    continue
                require(value.error_bound <= 2 * eps,
                        f"error bound {value.error_bound} exceeds 2 eps")
                require(abs(value.value - ref) <= value.error_bound + 1e-13,
                        f"mu_hat({xi}) is {abs(value.value - ref)} from the "
                        f"reference (eps={eps})")

        return Op("infinite", run, check)

    @staticmethod
    def _plain_xi(rng, size) -> Fraction:
        q = rng.randint(2, 999)
        p = round(size * q)
        return Fraction(p if p % q else p + 1, q) * rng.choice([1, -1])

    @staticmethod
    def _aligned_xi(rng, levels, size) -> Fraction:
        """A point near +-size on the zero stratum of a random level."""
        big, strata = 1, []
        for k in range(1, 80):
            b, n, a = levels[k]
            big *= b
            step = Fraction(big, a * n)
            if step > 10 ** XI_DECADES:
                break
            strata.append((step, n))
        step, n = rng.choice([st for st in strata if st[0] <= size] or strata[:1])
        mult = max(1, round(size / step))
        if mult % n == 0:
            mult += 1
        return step * mult * rng.choice([1, -1])


# ---------------------------------------------------------------------------
# search: exhaustive spectrum search and integer-tile decisions


# spectrum searches: (shape, spectral?) with b, N <= 8.  Three-level
# searches that answer NONE keep to at most 12 atoms: an exhaustive sweep of
# that family (905 systems) ended within 0.3 s each, while larger ones can run
# without bound (the probe below).
S2 = ((2, 2), (4, 2))
S2_NONE = ((2, 2), (3, 2))
S3 = ((2, 3), (3, 2), (2, 4))
S3_NONE = ((2, 2), (2, 2), (3, 2))
SEARCH_ROUND = [(S2, True)] * 2 + [(S2_NONE, False)] * 4 + \
    [(S3_NONE, False)] * 2 + [(S3, True)] * 3
TILE_ROUND = ["Tile", "Tile", "NotTile.T1", "NotTile.window"]
TILE_SPAN_MAX = 64  # wider sets can spend seconds in the bounded window search
TILE_SIZE_MAX = 48
WINDOW_NODES_MAX = 5_000

# the two reproduced defects: (tile digits, expected period) and a search
# that must answer NONE; both run after the timed loop, never inside it
DEFECT_TILE = ((0, 1000), 2000)
DEFECT_SEARCH = [(8, 4, 1), (8, 4, 1), (8, 3, 1)]
DEFECT_DEADLINE_S = 2.0


class Search(Workload):
    name = "search"

    def rounds(self, m, shared):
        rng = random.Random(self.seed)
        while True:
            ops = [self.search_op(m, shaped_levels(rng, shape, violate=not ok))
                   for shape, ok in SEARCH_ROUND]
            ops += [self._tile_op(rng, kind) for kind in TILE_ROUND]
            rng.shuffle(ops)
            yield ops

    @staticmethod
    def search_op(m, levels) -> Op:
        s = m.system.parse_system(system_doc(levels))
        spectral = first_violation(levels) is None

        def run(m):
            return m.spectra.spectrum_search(m.fourier.MeasureWindow(s, 1, len(levels)))

        def check(found):
            require((found is not None) == spectral,
                    f"search answered {'NONE' if found is None else 'a set'}, "
                    f"N_j | b_j says {'spectral' if spectral else 'not spectral'}")
            if found is not None:
                check_is_spectrum_set(levels, list(found))

        return Op(f"search{len(levels)}" + ("" if spectral else ".none"), run, check,
                  system_doc(levels))

    def _tile_op(self, rng, kind) -> Op:
        for _ in range(10_000):
            depth = rng.randint(1, 3)
            if kind == "Tile":
                # N_j | b_j and unit scales: D (+) C = {0, ..., L-1} tiles Z_L
                levels = shaped_levels(rng, [(rng.randint(2, 4), rng.randint(1, 2))
                                             for _ in range(depth)])
                digits = tuple(sorted(digit_sums(levels)))
                if digits[-1] < TILE_SPAN_MAX:
                    return self.tile_op(digits, "Tile")
                continue
            levels = []
            for _ in range(depth):
                b = rng.randint(2, 8)
                levels.append((b, rng.randint(2, b), rng.choice([1, 1, 2, 3])))
            sums = digit_sums(levels)
            if (any(c > 1 for c in sums.values()) or len(sums) > TILE_SIZE_MAX
                    or max(sums) >= TILE_SPAN_MAX):
                continue
            digits = tuple(sorted(sums))
            if phi_product(digits) != len(digits):
                found = "NotTile.T1"
            elif covering_nodes(digits, 2 * (digits[-1] + 1), WINDOW_NODES_MAX):
                found = "NotTile.window"
            else:
                continue  # no cheap reference answer: Tile or Unknown
            if found == kind:
                return self.tile_op(digits, kind)
        raise RuntimeError(f"no {kind} digit set found")

    @staticmethod
    def tile_op(digits, kind) -> Op:
        def run(m):
            return m.tiling.is_integer_tile(digits)

        def check(v):
            got = v.kind if v.certificate is None else f"{v.kind}.{v.certificate}"
            require(got == kind, f"tile verdict {got}, expected {kind}")
            if kind == "Tile":
                check_tiling(digits, v.period, v.complement)
            elif kind == "NotTile.T1":
                require(v.mask_value == len(digits)
                        and v.phi_product == phi_product(digits),
                        f"T1 certificate {v.phi_product} != {phi_product(digits)}")
            else:
                require(v.window == 2 * (digits[-1] + 1), f"window {v.window}")

        return Op(kind, run, check, f"digits {list(digits)}")

    @classmethod
    def defect_probes(cls, m) -> list[Op]:
        digits, period = DEFECT_TILE

        def check_tile(v):
            require(v.kind == "Tile", f"tile verdict {v.kind}, expected Tile")
            check_tiling(digits, v.period, v.complement)
            require(v.period <= period, f"period {v.period} > {period}")

        return [Op("defect.tile_0_1000", cls.tile_op(digits, "Tile").run, check_tile),
                cls.search_op(m, DEFECT_SEARCH)]


# ---------------------------------------------------------------------------
# cli: in-process moran.cli.run over a fixed corpus with stored digests


CLI_FILES = {
    "quarter.json": system_doc([(4, 2, 1), (4, 2, 1)], [(4, 2, 1)]),
    "mixed.json": system_doc([(4, 3, 1), (6, 2, 1)]),
    "bad.json": system_doc([(2, 2, 1), (3, 2, 1)]),
    "depth5.json": system_doc([(4, 2, 1), (6, 3, 1), (4, 2, 1), (6, 2, 1),
                               (4, 2, 1)]),
    "search3.json": system_doc([(4, 2, 1), (6, 3, 1), (4, 2, 1)]),
    "none3.json": system_doc([(5, 2, 1), (6, 3, 1), (5, 2, 1)]),
    "spec.txt": "0\n2\n8\n10\n",
    "tile.txt": "0\n1\n8\n9\n",
    "comp.txt": "0\n2\n4\n6\n",
    "window.txt": "".join(f"{d}\n" for d in (0, 1, 2, 5, 6, 7, 10, 11, 12, 15,
                                              16, 17)),
    "tile9.txt": "".join(f"{d}\n" for d in (0, 1, 2, 12, 13, 14, 24, 25, 26)),
}

# the acceptance-criterion-8 corpus, then larger inputs
CLI_CORPUS = {
    "analyze.quarter": ["analyze", "quarter.json"],
    "analyze.mixed": ["analyze", "mixed.json"],
    "spectrum.quarter": ["spectrum", "quarter.json", "--level", "2"],
    "spectrum.bad": ["spectrum", "bad.json", "--level", "2"],
    "check-spectrum.quarter": ["check-spectrum", "quarter.json", "--level", "2",
                               "--lambda", "spec.txt"],
    "search.quarter": ["search", "quarter.json", "--level", "2"],
    "search.bad": ["search", "bad.json", "--level", "2"],
    "decompose.quarter": ["decompose", "quarter.json", "--level", "2", "--split",
                          "1", "--lambda", "spec.txt"],
    "qgrid.quarter": ["qgrid", "quarter.json", "--level", "2", "--lambda",
                      "spec.txt", "--from", "0", "--to", "1", "--step", "1/250"],
    "tile.tile": ["tile", "tile.txt"],
    "complement.mixed": ["complement", "mixed.json", "--level", "2"],
    "fuglede.quarter": ["fuglede", "quarter.json", "--level", "2"],
    "fuglede.mixed.json": ["fuglede", "mixed.json", "--level", "2", "--json"],
    "tijdeman.tile": ["tijdeman", "--a", "tile.txt", "--b", "comp.txt",
                      "--period", "16", "--r", "3"],
    "spectrum.depth5": ["spectrum", "depth5.json", "--level", "5"],
    "fuglede.depth5.json": ["fuglede", "depth5.json", "--level", "5", "--json"],
    "qgrid.quarter.1001": ["qgrid", "quarter.json", "--level", "2", "--lambda",
                           "spec.txt", "--from", "0", "--to", "1", "--step",
                           "1/1000"],
    "search.depth3": ["search", "search3.json", "--level", "3"],
    "search.none3": ["search", "none3.json", "--level", "3"],
    "tile.window": ["tile", "window.txt"],
    "tile.tile9": ["tile", "tile9.txt"],
}


class Cli(Workload):
    name = "cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.dir = workdir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, text in CLI_FILES.items():
            (self.dir / name).write_text(text, encoding="utf-8")
        self.golden = (json.loads(CLI_GOLDEN.read_text(encoding="utf-8"))
                       if CLI_GOLDEN.is_file() else {})

    def argv(self, label):
        return [str(self.dir / a) if a in CLI_FILES else a
                for a in CLI_CORPUS[label]]

    @staticmethod
    def call(m, argv):
        out, err = io.StringIO(), io.StringIO()
        code = m.cli.run(argv, out, err)
        return code, out.getvalue(), err.getvalue()

    def rounds(self, m, shared):
        rng = random.Random(self.seed)
        labels = sorted(CLI_CORPUS)
        while True:
            rng.shuffle(labels)
            yield [self.cli_op(label, self.argv(label), self.golden.get(label))
                   for label in labels]

    @classmethod
    def cli_op(cls, label, argv, expected) -> Op:
        def check(result):
            require(expected is not None, f"no stored digest for {label}")
            require(cli_digest(*result) == expected,
                    f"{label}: exit code, stdout or stderr changed")

        return Op(argv[0], lambda m: cls.call(m, argv), check)

    def record_golden(self, m) -> dict:
        return {label: cli_digest(*self.call(m, self.argv(label)))
                for label in sorted(CLI_CORPUS)}


WORKLOADS = {w.name: w for w in (Certify, Transform, Search, Cli)}
