"""Bi-zero and spectrum verification, canonical spectra, suitable
decompositions, the Jorgensen-Pedersen completeness functional, and a
brute-force clique oracle for spectrum existence.

All set arithmetic is exact over Fraction; floats appear only in Q values.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .errors import BudgetError, InvariantError, NotSpectralError, ParseError
from .fourier import (MeasureWindow, dirichlet, evaluate_transform,
                      zero_stratum)
from .system import (FormulaTail, MoranSystem, PeriodicTail, format_rational,
                     parse_rational)

SPECTRUM = "Spectrum"
BIZERO_ONLY = "BiZeroOnly"
ORTHOGONALITY_FAIL = "OrthogonalityFail"
CARDINALITY_FAIL = "CardinalityFail"

SPECTRAL = "Spectral"
NOT_SPECTRAL = "NotSpectral"
UNKNOWN_BEYOND_HORIZON = "UnknownBeyondHorizon"

# how far into a formula tail the divisibility scan looks before giving up
FORMULA_HORIZON = 64


@dataclass(frozen=True)
class CandidateSet:
    """A finite, strictly sorted, duplicate-free set of rationals."""

    elements: tuple[Fraction, ...]

    def __post_init__(self):
        for a, b in zip(self.elements, self.elements[1:]):
            if not a < b:
                raise ValueError("elements must be strictly sorted")

    @classmethod
    def of(cls, values: Iterable) -> "CandidateSet":
        return cls(tuple(sorted({Fraction(v) for v in values})))

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, value) -> bool:
        value = Fraction(value)
        i = bisect_left(self.elements, value)
        return i < len(self.elements) and self.elements[i] == value


def parse_candidates(text: str) -> CandidateSet:
    """One rational per line, 'p/q' or integer; '#' starts a comment."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(parse_rational(line))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return CandidateSet.of(values)


def format_candidates(cs: CandidateSet) -> str:
    return "".join(format_rational(x) + "\n" for x in cs)


def window_atoms(window: MeasureWindow) -> tuple[int, bool]:
    """(number of distinct atoms, collision flag) of a finite window."""
    if window.last is None:
        raise ValueError("atom counting needs a finite window")
    system = window.system
    b_last = system.level_product(window.last)
    sums = {0: 1}
    for k in range(window.first, window.last + 1):
        lev = system.level(k)
        step = lev.scale * (b_last // system.level_product(k))
        new: dict[int, int] = {}
        for v, mult in sums.items():
            for d in range(lev.count):
                key = v + d * step
                new[key] = new.get(key, 0) + mult
        sums = new
    distinct = len(sums)
    total = sum(sums.values())
    return distinct, total != distinct


def is_bizero(window: MeasureWindow, cs: CandidateSet
              ) -> tuple[bool, Optional[tuple[Fraction, Fraction]]]:
    """All nonzero pairwise differences lie in the window's zero set.

    On failure returns the lexicographically first violating pair.
    """
    elems = cs.elements
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if zero_stratum(window, elems[j] - elems[i]) is None:
                return False, (elems[i], elems[j])
    return True, None


@dataclass(frozen=True)
class SpectrumCertificate:
    window: MeasureWindow
    candidate: CandidateSet
    atom_count: int
    status: str
    violating_pair: Optional[tuple[Fraction, Fraction]] = None
    atom_collisions: bool = False


def is_spectrum(window: MeasureWindow, cs: CandidateSet) -> SpectrumCertificate:
    """Decide spectrum status of a finite window by orthogonality + counting.

    An orthogonal family of exponentials of full cardinality in the
    atom-count-dimensional L^2 space is a basis.
    """
    if window.last is None:
        raise ValueError("spectrum decision requires a finite window; "
                         "use q_grid for infinite-window evidence")
    atoms, collisions = window_atoms(window)
    ok, pair = is_bizero(window, cs)
    if not ok:
        status = ORTHOGONALITY_FAIL
    elif len(cs) == atoms:
        status = SPECTRUM
    else:
        status = CARDINALITY_FAIL
    return SpectrumCertificate(window, cs, atoms, status, pair, collisions)


def canonical_spectrum(system: MoranSystem, n: int) -> CandidateSet:
    """Direct sum of per-level spectra (B_k / (a_k N_k)) * {0, ..., N_k - 1}.

    Requires N_j | b_j for 2 <= j <= n (no condition at j = 1); the result
    is re-verified by is_spectrum before returning.
    """
    for j in range(2, n + 1):
        lev = system.level(j)
        if lev.base % lev.count != 0:
            raise NotSpectralError(j)
    elems = [Fraction(0)]
    for k in range(1, n + 1):
        lev = system.level(k)
        step = Fraction(system.level_product(k), lev.scale * lev.count)
        elems = [e + d * step for e in elems for d in range(lev.count)]
    cs = CandidateSet.of(elems)
    if len(cs) != len(elems):
        raise InvariantError("canonical spectrum summands collide")
    cert = is_spectrum(MeasureWindow(system, 1, n), cs)
    if cert.status != SPECTRUM:
        raise InvariantError(f"canonical spectrum failed verification: "
                             f"{cert.status}")
    return cs


@dataclass(frozen=True)
class SpectralVerdict:
    kind: str
    level: Optional[int] = None

    def __str__(self) -> str:
        if self.kind == NOT_SPECTRAL:
            return f"NotSpectral({self.level})"
        return self.kind


def truncation_spectral_verdict(system: MoranSystem,
                                n: Optional[int]) -> SpectralVerdict:
    """Spectral iff N_j | b_j for all 2 <= j <= n (all j >= 2 for n=None)."""
    def first_violation(last: int) -> Optional[int]:
        for j in range(2, last + 1):
            lev = system.level(j)
            if lev.base % lev.count != 0:
                return j
        return None

    if n is not None:
        j = first_violation(n)
        return SpectralVerdict(SPECTRAL) if j is None else \
            SpectralVerdict(NOT_SPECTRAL, j)

    p = system.prefix_length
    if isinstance(system.tail, PeriodicTail):
        j = first_violation(p + len(system.tail.levels))
        return SpectralVerdict(SPECTRAL) if j is None else \
            SpectralVerdict(NOT_SPECTRAL, j)
    if isinstance(system.tail, FormulaTail):
        j = first_violation(p + FORMULA_HORIZON)
        if j is not None:
            return SpectralVerdict(NOT_SPECTRAL, j)
        if system.tail.rho == 1:
            # counts are constant beyond the prefix, so the scan is a proof
            return SpectralVerdict(SPECTRAL)
        return SpectralVerdict(UNKNOWN_BEYOND_HORIZON)
    # tail None: only the finite prefix exists
    j = first_violation(p)
    return SpectralVerdict(SPECTRAL) if j is None else \
        SpectralVerdict(NOT_SPECTRAL, j)


def maximal_bizero_subset(window_head: MeasureWindow,
                          cs: CandidateSet) -> CandidateSet:
    """Greedy ascending scan from {0}; maximal bi-zero subset of the head."""
    if Fraction(0) not in cs:
        raise ValueError("candidate set must contain 0")
    kept: list[Fraction] = [Fraction(0)]
    for lam in cs:
        if lam == 0:
            continue
        if all(zero_stratum(window_head, lam - a) is not None for a in kept):
            kept.append(lam)
    return CandidateSet.of(kept)


@dataclass(frozen=True)
class DecompositionResult:
    system: MoranSystem
    n: int
    split: int
    head: CandidateSet  # the maximal bi-zero set A of mu_{1..split}
    parts: dict[Fraction, CandidateSet]
    candidate: CandidateSet  # the decomposed spectrum


def suitable_decomposition(system: MoranSystem, n: int, k: int,
                           cs: CandidateSet) -> DecompositionResult:
    """Partition a verified spectrum via a maximal bi-zero set of mu_{1..k}."""
    if not 1 <= k < n:
        raise ValueError(f"split must satisfy 1 <= k < n, got k={k}, n={n}")
    whole = MeasureWindow(system, 1, n)
    cert = is_spectrum(whole, cs)
    if cert.status != SPECTRUM:
        raise ValueError(f"candidate is not a spectrum ({cert.status}); "
                         "decomposition presupposes one")
    nu = MeasureWindow(system, 1, k)
    omega = MeasureWindow(system, k + 1, n)
    head = maximal_bizero_subset(nu, cs)
    parts: dict[Fraction, list[Fraction]] = {a: [a] for a in head}
    for lam in cs:
        for a in head:
            if lam == a:
                continue
            diff = lam - a
            if (zero_stratum(omega, diff) is not None
                    and zero_stratum(nu, diff) is None):
                parts[a].append(lam)
    sets = {a: CandidateSet.of(vals) for a, vals in parts.items()}
    covered = sorted(x for s in sets.values() for x in s)
    if covered != list(cs):
        raise InvariantError("suitable decomposition is not a partition")
    return DecompositionResult(system, n, k, head, sets, cs)


@dataclass(frozen=True)
class ClauseCheck:
    name: str
    ok: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class DecompositionReport:
    clauses: tuple[ClauseCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.clauses)


def verify_decomposition(result: DecompositionResult) -> DecompositionReport:
    """Re-check the four defining clauses of a suitable decomposition."""
    system, n, k = result.system, result.n, result.split
    nu = MeasureWindow(system, 1, k)
    omega = MeasureWindow(system, k + 1, n)
    clauses = []

    covered = sorted(x for s in result.parts.values() for x in s)
    total = sum(len(s) for s in result.parts.values())
    partition_ok = (covered == list(result.candidate)
                    and total == len(result.candidate)
                    and all(a in s for a, s in result.parts.items()))
    clauses.append(ClauseCheck(
        "partition", partition_ok,
        None if partition_ok else "parts do not partition the spectrum"))

    cert = is_spectrum(nu, result.head)
    clauses.append(ClauseCheck(
        "head-spectrum", cert.status == SPECTRUM,
        None if cert.status == SPECTRUM else f"A: {cert.status}"))

    part_ok, part_witness = True, None
    for a, s in sorted(result.parts.items()):
        c = is_spectrum(omega, s)
        if c.status != SPECTRUM:
            part_ok, part_witness = False, \
                f"Lambda[{format_rational(a)}]: {c.status}"
            break
    clauses.append(ClauseCheck("part-spectra", part_ok, part_witness))

    # (Lambda_a - Lambda_a) \ {0} in Z(omega) \ Z(nu); cross differences in Z(nu)
    cont_ok, cont_witness = True, None
    items = sorted(result.parts.items())
    for a, s in items:
        for x in s:
            for y in s:
                if x == y:
                    continue
                d = x - y
                if (zero_stratum(omega, d) is None
                        or zero_stratum(nu, d) is not None):
                    cont_ok, cont_witness = False, \
                        (f"within Lambda[{format_rational(a)}]: "
                         f"{format_rational(d)}")
                    break
            if not cont_ok:
                break
        if not cont_ok:
            break
    if cont_ok:
        for a, s in items:
            for a2, s2 in items:
                if a2 <= a:
                    continue
                for x in s:
                    for y in s2:
                        if zero_stratum(nu, x - y) is None:
                            cont_ok, cont_witness = False, \
                                (f"across parts: {format_rational(x)} - "
                                 f"{format_rational(y)}")
                            break
                    if not cont_ok:
                        break
                if not cont_ok:
                    break
            if not cont_ok:
                break
    clauses.append(ClauseCheck("containments", cont_ok, cont_witness))
    return DecompositionReport(tuple(clauses))


# ---------------------------------------------------------------------------
# Q functional


def _finite_q(window: MeasureWindow, cs: CandidateSet, den: int,
              nums: range) -> Iterator[float]:
    """Q(x / den) of a finite window for each x in nums, where den is a
    multiple of every candidate denominator: each argument x/den + lambda
    is one integer numerator until the Dirichlet kernel."""
    system = window.system
    factors = [(system.level(k).scale, system.level(k).count,
                den * system.level_product(k))
               for k in range(window.first, window.last + 1)]
    lams = [lam.numerator * (den // lam.denominator) for lam in cs]
    for x in nums:
        total = 0
        for lam in lams:
            y, acc = x + lam, 1.0
            for a, n, d in factors:
                r = a * y % d
                if r:
                    v = dirichlet(n, r, d)
                    acc *= v * v
            total += acc
        yield total


def q_function(window: MeasureWindow, cs: CandidateSet, xi: Fraction,
               eps: float = 1e-9) -> float:
    """Q(xi) = sum over the candidate set of |mu_hat(xi + lambda)|^2."""
    if window.last is not None:
        return q_grid(window, cs, xi, xi, Fraction(1))[0][1]
    return sum(abs(evaluate_transform(window, xi + lam, eps).value) ** 2
               for lam in cs)


def q_grid(window: MeasureWindow, cs: CandidateSet, start: Fraction,
           stop: Fraction, step: Fraction,
           eps: float = 1e-9) -> list[tuple[Fraction, float]]:
    """Q samples at start, start+step, ..., up to and including stop."""
    if step <= 0:
        raise ValueError("step must be positive")
    start, step = Fraction(start), Fraction(step)
    # xi, the step and every lambda over one common denominator
    den = math.lcm(start.denominator, step.denominator,
                   *(lam.denominator for lam in cs))
    first = start.numerator * (den // start.denominator)
    stride = step.numerator * (den // step.denominator)
    count = (Fraction(stop) - start) // step + 1
    nums = range(first, first + count * stride, stride)
    xis = [Fraction(x, den) for x in nums]
    if window.last is None:
        return [(xi, q_function(window, cs, xi, eps)) for xi in xis]
    return list(zip(xis, _finite_q(window, cs, den, nums)))


# ---------------------------------------------------------------------------
# brute-force spectrum existence (clique oracle)


def spectrum_search(window: MeasureWindow,
                    budget: int = 5000) -> Optional[CandidateSet]:
    """Exhaustive spectrum search for a finite window via clique enumeration.

    Vertices are the grid residues in [0, B_n) with denominator dividing
    lcm(a_k N_k) that are 0 or lie in the zero set; edges join residues
    whose difference mod B_n lies in the zero set.  Sound and complete:
    mu_hat is B_n-periodic and any spectrum reduces injectively mod B_n.
    Returns the lexicographically smallest full-cardinality clique
    containing 0, or None.
    """
    if window.last is None:
        raise ValueError("spectrum search requires a finite window")
    system = window.system
    b_n = system.level_product(window.last)
    grid = 1
    for k in range(window.first, window.last + 1):
        lev = system.level(k)
        grid = math.lcm(grid, lev.scale * lev.count)
    modulus = b_n * grid
    if modulus > 250_000:
        raise BudgetError(f"residue grid of size {modulus} is too large")

    def in_zero_set(j: int) -> bool:
        return j != 0 and zero_stratum(window, Fraction(j, grid)) is not None

    good = [in_zero_set(j) for j in range(modulus)]
    vertices = [j for j in range(modulus) if j == 0 or good[j]]
    if len(vertices) > budget:
        raise BudgetError(f"{len(vertices)} vertices exceed budget {budget}")

    target, _ = window_atoms(window)
    if target > len(vertices):
        return None

    def extend(clique: list[int], candidates: list[int]) -> Optional[list[int]]:
        if len(clique) == target:
            return clique
        if len(clique) + len(candidates) < target:
            return None
        for i, v in enumerate(candidates):
            rest = [u for u in candidates[i + 1:] if good[(u - v) % modulus]]
            found = extend(clique + [v], rest)
            if found is not None:
                return found
        return None

    neighbours = [v for v in vertices if v != 0 and good[v % modulus]]
    found = extend([0], neighbours)
    if found is None:
        return None
    return CandidateSet.of(Fraction(j, grid) for j in found)


def single_factor_spectrum_check(n: int, cs: CandidateSet) -> bool:
    """Spectrum test for delta on {0, ..., N-1}: residues mod 1 are {j/N}."""
    if Fraction(0) not in cs:
        raise ValueError("candidate set must contain 0")
    residues = {c % 1 for c in cs}
    return len(cs) == n and residues == {Fraction(j, n) for j in range(n)}
