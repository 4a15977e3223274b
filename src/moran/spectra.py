"""Bi-zero and spectrum verification, canonical spectra, suitable
decompositions, the Jorgensen-Pedersen completeness functional, and a
brute-force clique oracle for spectrum existence.

All set arithmetic is exact (zero-set tests run on integer numerators over
one common denominator); floats appear only in Q values.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BudgetError, InvariantError, NotSpectralError, ParseError
from .fourier import (MeasureWindow, dirichlet, evaluate_transform,
                      stratum_moduli, zero_set, zero_stratum)
from .system import (FormulaTail, MoranSystem, PeriodicTail, depth_first,
                     digit_progressions, first_nondividing_level,
                     format_rational, parse_rational, sumset_counts)

SPECTRUM = "Spectrum"
ORTHOGONALITY_FAIL = "OrthogonalityFail"
CARDINALITY_FAIL = "CardinalityFail"

SPECTRAL = "Spectral"
NOT_SPECTRAL = "NotSpectral"
UNKNOWN_BEYOND_HORIZON = "UnknownBeyondHorizon"

# how far into a formula tail the divisibility scan looks before giving up
FORMULA_HORIZON = 64

# grid points per block of a finite Q grid: the kernel columns held at once
# are (distinct level classes) x QGRID_BLOCK floats
QGRID_BLOCK = 256

# points x |Lambda| x window levels (one per transform on an infinite
# window) above which q_grid refuses to run
MAX_QGRID_WORK = 10 ** 7


@dataclass(frozen=True, init=False, repr=False)
class CandidateSet:
    """A finite, strictly sorted, duplicate-free set of rationals, held as
    numerators nums over den, the lcm of its denominators (1 when empty);
    ==, hash, len and in read this unique form, iteration builds Fractions."""

    den: int
    nums: tuple[int, ...]

    def __init__(self, elements: tuple[Fraction, ...]):
        den = math.lcm(*(x.denominator for x in elements))
        self._init(den, tuple(x.numerator * (den // x.denominator)
                              for x in elements))

    def _init(self, den: int, nums: tuple[int, ...]) -> "CandidateSet":
        if any(a >= b for a, b in zip(nums, nums[1:])):
            raise ValueError("elements must be strictly sorted")
        self.__dict__.update(den=den, nums=nums)  # frozen: no setattr
        return self

    @classmethod
    def of(cls, values: Iterable) -> "CandidateSet":
        return cls(tuple(sorted({Fraction(v) for v in values})))

    @classmethod
    def over(cls, den: int, nums: Iterable[int]) -> "CandidateSet":
        """{x / den : x in nums}, built without a Fraction when den > 0."""
        if den <= 0:  # den 0 raises, as Fraction(x, 0) does, unless empty
            return cls(tuple(Fraction(x, den) for x in nums))
        nums = tuple(nums)
        g = math.gcd(den, *nums)
        return object.__new__(cls)._init(den // g, tuple(x // g for x in nums))

    @cached_property
    def elements(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __repr__(self) -> str:
        return f"CandidateSet(elements={self.elements!r})"

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.nums)

    def __contains__(self, value) -> bool:
        value = Fraction(value)
        x, r = divmod(value.numerator * self.den, value.denominator)
        i = bisect_left(self.nums, x)
        return not r and i < len(self.nums) and self.nums[i] == x


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
    rows = window.system.levels(window.first, window.last)
    if (all(lev.scale == 1 for _, lev in rows)
            and all(lev.count <= lev.base for _, lev in rows[1:])):
        # B_last times an atom is a mixed-radix numeral (digit k < b_k past
        # the first level), so the prod N_k atoms are distinct
        return math.prod(lev.count for _, lev in rows), False
    sums = sumset_counts(
        digit_progressions(window.system, window.first, window.last))
    return len(sums), sum(sums.values()) != len(sums)


def _rescaled(cs: CandidateSet, den: int) -> list[int]:
    """cs's numerators over den, a multiple of cs.den."""
    return [x * (den // cs.den) for x in cs.nums]


def _nested_moduli(window: MeasureWindow,
                   den: int) -> Optional[list[tuple[int, int]]]:
    """A finite window's stratum moduli over den if h_k | g_{k+1} (the strata
    nest), else None.  Nested, d/den is in the zero set iff g_k | d at the
    first k with h_k not dividing d, so it depends on d mod the last h."""
    moduli = window.last is not None and stratum_moduli(window, den)
    if moduli and all(g % h == 0 for (_, h), (g, _) in zip(moduli, moduli[1:])):
        return moduli
    return None


def _refines(nums: list[int], moduli: list[tuple[int, int]]) -> bool:
    """Bi-zero test on nested moduli: each class of nums mod h_{k-1} (h_0 = 1)
    is one class mod g_k, and the classes mod the last h are singletons."""
    count = min(len(nums), 1)
    for g, h in moduli:
        if len({x % g for x in nums}) != count:
            return False
        count = len({x % h for x in nums})
    return count == len(nums)


def _status(window: MeasureWindow, atoms: Optional[int], moduli: Optional[list],
            den: int, nums: Sequence[int]) -> tuple[str, Optional[tuple]]:
    """Status of nums over den on a window of atoms atoms (None: bi-zero test
    only) and the first violating pair; moduli = _nested_moduli(window, den)."""
    if moduli is None or not _refines(nums, moduli):
        in_zero_set = zero_set(window, den)
        for i, x in enumerate(nums):
            for y in nums[i + 1:]:
                if not in_zero_set(y - x):
                    return ORTHOGONALITY_FAIL, (Fraction(x, den),
                                                Fraction(y, den))
    return (SPECTRUM if len(nums) == atoms else CARDINALITY_FAIL), None


def is_bizero(window: MeasureWindow, cs: CandidateSet
              ) -> tuple[bool, Optional[tuple[Fraction, Fraction]]]:
    """All nonzero pairwise differences lie in the window's zero set.

    On failure returns the lexicographically first violating pair.
    """
    pair = _status(window, None, _nested_moduli(window, cs.den), cs.den,
                   cs.nums)[1]
    return pair is None, pair


@dataclass(frozen=True)
class SpectrumCertificate:
    window: MeasureWindow
    candidate: CandidateSet
    atom_count: int
    status: str
    violating_pair: Optional[tuple[Fraction, Fraction]] = None
    atom_collisions: bool = False


def is_spectrum(window: MeasureWindow, cs: CandidateSet) -> SpectrumCertificate:
    """Spectrum status of a finite window: an orthogonal family of exponentials
    of full cardinality in the atom-count-dimensional L^2 space is a basis."""
    if window.last is None:
        raise ValueError("spectrum decision requires a finite window; "
                         "use q_grid for infinite-window evidence")
    atoms, collisions = window_atoms(window)
    status, pair = _status(window, atoms, _nested_moduli(window, cs.den),
                           cs.den, cs.nums)
    return SpectrumCertificate(window, cs, atoms, status, pair, collisions)


def canonical_spectrum(system: MoranSystem, n: int) -> CandidateSet:
    """Direct sum of per-level spectra (B_k / (a_k N_k)) * {0, ..., N_k - 1}.

    Requires N_j | b_j for 2 <= j <= n (no condition at j = 1); the result
    is re-verified by is_spectrum before returning.
    """
    j = first_nondividing_level(system, n)
    if j is not None:
        raise NotSpectralError(j)
    rows = system.levels(1, n)
    den = math.lcm(*(lev.scale * lev.count for _, lev in rows))
    # level k adds (B_k / (a_k N_k)) {0, ..., N_k - 1}, over den
    sums = sumset_counts(
        range(0, big * den // lev.scale, big * den // (lev.scale * lev.count))
        for big, lev in rows)
    if any(mult != 1 for mult in sums.values()):
        raise InvariantError("canonical spectrum summands collide")
    cs = CandidateSet.over(den, sorted(sums))
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
    p, tail, unknown = system.prefix_length, system.tail, False
    if n is None:
        if isinstance(tail, PeriodicTail):
            n = p + len(tail.levels)
        elif isinstance(tail, FormulaTail):
            # counts are constant beyond the prefix when rho = 1, so only
            # then is the scan to the horizon a proof
            n, unknown = p + FORMULA_HORIZON, tail.rho != 1
        else:
            n = p  # tail None: only the finite prefix exists
    j = first_nondividing_level(system, n)
    if j is not None:
        return SpectralVerdict(NOT_SPECTRAL, j)
    return SpectralVerdict(UNKNOWN_BEYOND_HORIZON if unknown else SPECTRAL)


def maximal_bizero_subset(window_head: MeasureWindow,
                          cs: CandidateSet) -> CandidateSet:
    """Greedy ascending scan from {0}; maximal bi-zero subset of the head."""
    if 0 not in cs:
        raise ValueError("candidate set must contain 0")
    in_zero_set = zero_set(window_head, cs.den)
    moduli = _nested_moduli(window_head, cs.den)
    # nested: an element fails iff the first of its class mod the last h did
    h = moduli[-1][1] if moduli else 0
    kept, seen = [0], {0}
    for x in cs.nums:
        if (key := x % h if h else x) not in seen:
            seen.add(key)
            if all(in_zero_set(x - a) for a in kept):
                kept.append(x)
    return CandidateSet.over(cs.den, sorted(kept))


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
    # each head element's part, as ascending numerators over cs.den
    parts: dict[int, list[int]] = {y: [] for y in _rescaled(head, cs.den)}
    moduli = _nested_moduli(whole, cs.den)
    if moduli is not None:
        # nested, x - y in Z(1..n): it is in Z(omega) \ Z(nu) iff h_k | x - y
        h = moduli[k - 1][1]
        heads = {y % h: part for y, part in parts.items()}
        for x in cs.nums:
            if (part := heads.get(x % h)) is not None:
                part.append(x)
    else:
        in_nu, in_omega = zero_set(nu, cs.den), zero_set(omega, cs.den)
        for x in cs.nums:
            for y, part in parts.items():
                if x == y or (in_omega(x - y) and not in_nu(x - y)):
                    part.append(x)
    if sorted(x for part in parts.values() for x in part) != list(cs.nums):
        raise InvariantError("suitable decomposition is not a partition")
    sets = [CandidateSet.over(cs.den, part) for part in parts.values()]
    return DecompositionResult(system, n, k, head, dict(zip(head, sets)), cs)


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


def _containment_witnesses(parts, den, in_nu, in_omega) -> Iterator[str]:
    """Differences breaking (Lambda_a - Lambda_a) \\ {0} in Z(omega) \\ Z(nu),
    then cross differences outside Z(nu); parts: (a, numerators over den)."""
    fmt = lambda x: format_rational(Fraction(x, den))
    for a, nums in parts:
        for p in nums:
            for q in nums:
                if p != q and (not in_omega(p - q) or in_nu(p - q)):
                    yield f"within Lambda[{format_rational(a)}]: {fmt(p - q)}"
    for i, (_, nums) in enumerate(parts):
        for _, nums2 in parts[i + 1:]:
            for p in nums:
                for q in nums2:
                    if not in_nu(p - q):
                        yield f"across parts: {fmt(p)} - {fmt(q)}"


def verify_decomposition(result: DecompositionResult) -> DecompositionReport:
    """Re-check the four defining clauses of a suitable decomposition."""
    system, n, k = result.system, result.n, result.split
    nu = MeasureWindow(system, 1, k)
    omega = MeasureWindow(system, k + 1, n)
    clauses = []

    # a hand-built result may mix denominators: put all of it over one
    den = math.lcm(result.candidate.den, *(a.denominator for a in result.parts),
                   *(s.den for s in result.parts.values()))
    items = sorted(result.parts.items(), key=lambda item: int(item[0] * den))
    parts = [(a, _rescaled(s, den)) for a, s in items]
    partition_ok = (sorted(x for _, nums in parts for x in nums)
                    == _rescaled(result.candidate, den)
                    and all(a in s for a, s in items))
    clauses.append(ClauseCheck(
        "partition", partition_ok,
        None if partition_ok else "parts do not partition the spectrum"))

    cert = is_spectrum(nu, result.head)
    clauses.append(ClauseCheck(
        "head-spectrum", cert.status == SPECTRUM,
        None if cert.status == SPECTRUM else f"A: {cert.status}"))

    atoms, moduli = window_atoms(omega)[0], _nested_moduli(omega, den)
    witness = next((f"Lambda[{format_rational(a)}]: {status}" for a, x in parts
                    if (status := _status(omega, atoms, moduli, den, x)[0])
                    != SPECTRUM), None)
    clauses.append(ClauseCheck("part-spectra", witness is None, witness))

    moduli = _nested_moduli(MeasureWindow(system, 1, n), den)
    # nested: it holds iff each part is bi-zero on omega (so one class mod h_k)
    # and one element per part is on nu (then so is each cross difference)
    if (moduli is not None
            and all(_refines(x, moduli[k:]) for _, x in parts)
            and _refines([x[0] for _, x in parts if x], moduli[:k])):
        witness = None
    else:
        witness = next(_containment_witnesses(
            parts, den, zero_set(nu, den), zero_set(omega, den)), None)
    clauses.append(ClauseCheck("containments", witness is None, witness))
    return DecompositionReport(tuple(clauses))


# ---------------------------------------------------------------------------
# Q functional


def _column(level: tuple[int, int, int], c: int, xs: range) -> list[float]:
    """Squared kernel of one level (a, N, den B_k) at the numerators
    c + a x mod den B_k, x in xs."""
    a, n, d = level
    r, s = (c + a * xs.start) % d, a * xs.step % d
    col = []
    for _ in range(len(xs)):
        if r:
            v = dirichlet(n, r, d)
            col.append(v * v)
        else:
            col.append(1.0)
        r += s
        if r >= d:
            r -= d
    return col


def _finite_q(window: MeasureWindow, cs: CandidateSet, den: int,
              nums: range) -> Iterator[float]:
    """Q(x / den) of a finite window for each x in nums, where den is a
    multiple of every candidate denominator.

    Level k sees x/den + lambda as the numerator a_k (x + lambda) mod
    den B_k, which depends on lambda only through its class a_k lambda mod
    den B_k; so each (level, class) column is computed once per block of
    QGRID_BLOCK points, and each lambda's columns are multiplied in level
    order and summed in candidate order, as point by point."""
    levels = [(lev.scale, lev.count, den * big)
              for big, lev in window.system.levels(window.first, window.last)]
    classes = [[(k, a * x % d) for k, (a, _, d) in enumerate(levels)]
               for x in _rescaled(cs, den)]
    for i in range(0, len(nums), QGRID_BLOCK):
        block = nums[i:i + QGRID_BLOCK]
        columns: dict[tuple[int, int], list[float]] = {}
        total = [0] * len(block)
        for keys in classes:
            acc = None
            for key in keys:
                col = columns.get(key)
                if col is None:
                    col = columns[key] = _column(levels[key[0]], key[1],
                                                 block)
                # 1.0 * col == col exactly: the first level starts the product
                acc = col if acc is None else [p * q for p, q in zip(acc, col)]
            total = [t + p for t, p in zip(total, acc)]
        yield from total


def q_function(window: MeasureWindow, cs: CandidateSet, xi: Fraction,
               eps: float = 1e-9) -> float:
    """Q(xi) = sum over the candidate set of |mu_hat(xi + lambda)|^2."""
    return q_grid(window, cs, xi, xi, Fraction(1), eps)[0][1]


def q_grid(window: MeasureWindow, cs: CandidateSet, start: Fraction,
           stop: Fraction, step: Fraction,
           eps: float = 1e-9) -> list[tuple[Fraction, float]]:
    """Q samples at start, start+step, ..., up to and including stop."""
    if step <= 0:
        raise ValueError("step must be positive")
    start, step = Fraction(start), Fraction(step)
    # xi, the step and every lambda over one common denominator
    den = math.lcm(start.denominator, step.denominator, cs.den)
    first = start.numerator * (den // start.denominator)
    stride = step.numerator * (den // step.denominator)
    count = (Fraction(stop) - start) // step + 1
    levels = 1 if window.last is None else window.last - window.first + 1
    # an empty Lambda still lists every point
    work = count * max(len(cs), 1) * levels
    if work > MAX_QGRID_WORK:
        raise BudgetError(f"q grid of {count} points x {len(cs)} candidates "
                          f"x {levels} levels exceeds {MAX_QGRID_WORK}")
    nums = range(first, first + count * stride, stride)
    xis = [Fraction(x, den) for x in nums]
    if window.last is None:
        return [(xi, sum(abs(evaluate_transform(window, xi + lam, eps).value)
                         ** 2 for lam in cs)) for xi in xis]
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
    rows = window.system.levels(window.first, window.last)
    grid = math.lcm(*(lev.scale * lev.count for _, lev in rows))
    modulus = rows[-1][0] * grid  # B_n lcm(a_k N_k)
    if modulus > 250_000:
        raise BudgetError(f"residue grid of size {modulus} is too large")
    good = [j != 0 and zero_stratum(window, Fraction(j, grid)) is not None
            for j in range(modulus)]
    vertices = [j for j in range(modulus) if j == 0 or good[j]]
    if len(vertices) > budget:
        raise BudgetError(f"{len(vertices)} vertices exceed budget {budget}")

    target, collided = window_atoms(window)
    if collided:  # atoms of unequal weight: no spectrum (a unitary matrix)
        return None

    def children(node):
        # node: (clique size, last vertex, later vertices adjacent to all of
        # the clique); ascending while enough remain to fill it.  The size
        # rides in the node, as the path moves on before this resumes
        size, _, cands = node
        for i in range(size + len(cands) - target + 1):
            v = cands[i]
            yield size + 1, v, [u for u in cands[i + 1:] if good[u - v]]

    for path in depth_first((1, 0, vertices[1:]), children):
        if path[-1][0] == target:
            return CandidateSet.over(grid, [v for _, v, _ in path])
    return None
