"""Reference answers and output checks for the moran benchmark.

Everything here is written against the mathematics, not against the
library: no function imports moran.  Each ``check_*`` function raises
CheckError with a one-line reason when a result is wrong.  Reference answers
are computed while generating inputs, outside every timed span.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from collections import Counter
from fractions import Fraction


class CheckError(Exception):
    """An operation returned a wrong result."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckError(reason)


# ---------------------------------------------------------------------------
# finite systems: levels are (b, N, a) triples


def first_violation(levels) -> int | None:
    """Smallest j >= 2 with N_j not dividing b_j (the N_j | b_j rule)."""
    for j, (b, n, _) in enumerate(levels[1:], 2):
        if b % n:
            return j
    return None


def prefix_products(levels) -> list[int]:
    out = [1]
    for b, _, _ in levels:
        out.append(out[-1] * b)
    return out


def canonical_set(levels) -> list[Fraction]:
    """Direct sum of the per-level sets (B_k / (a_k N_k)) * {0, ..., N_k - 1}."""
    big = prefix_products(levels)
    elems = {Fraction(0)}
    for k, (_, n, a) in enumerate(levels, 1):
        step = Fraction(big[k], a * n)
        elems = {e + d * step for e in elems for d in range(n)}
    return sorted(elems)


def digit_sums(levels) -> Counter:
    """Multiset of d_1 a_1 B_n/B_1 + ... + d_n a_n B_n/B_n (the atoms times B_n)."""
    big = prefix_products(levels)
    sums = Counter({0: 1})
    for k, (_, n, a) in enumerate(levels, 1):
        step = a * (big[-1] // big[k])
        new: Counter = Counter()
        for v, mult in sums.items():
            for d in range(n):
                new[v + d * step] += mult
        sums = new
    return sums


def in_zero_set(levels, first: int, last: int, lam: Fraction) -> bool:
    """lam lies in the zero set of the window first..last (stratum test)."""
    big = prefix_products(levels)
    for k in range(first, last + 1):
        _, n, a = levels[k - 1]
        t = lam * a * n / big[k]
        if t.denominator == 1 and t.numerator % n:
            return True
    return False


def check_is_spectrum_set(levels, elems) -> None:
    """Full cardinality and every nonzero difference in the zero set."""
    atoms = len(digit_sums(levels))
    require(len(elems) == atoms,
            f"spectrum has {len(elems)} elements, window has {atoms} atoms")
    n = len(levels)
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            require(in_zero_set(levels, 1, n, y - x),
                    f"difference {y - x} is not in the zero set")


def check_complement(levels, comp_levels, length: int) -> None:
    """D_n (+) C_n = {0, ..., L-1}, recounted from both level lists."""
    big = prefix_products(levels)
    expected = levels[0][1] * big[-1] // levels[0][0]  # N_1 * b_2 ... b_n
    require(length == expected, f"L = {length}, expected {expected}")
    require(len(comp_levels) == len(levels), "complement depth differs")
    counts: Counter = Counter()
    comp = digit_sums(comp_levels)
    for d, m in digit_sums(levels).items():
        for c, m2 in comp.items():
            counts[d + c] += m * m2
    require(set(counts) == set(range(length))
            and all(m == 1 for m in counts.values()),
            f"D (+) C is not {{0, ..., {length - 1}}}")


# ---------------------------------------------------------------------------
# Q functional


def check_q_grid(samples, grid: list[Fraction], tol: float = 1e-9) -> None:
    """Samples at exactly the points of grid, each Q within tol of 1."""
    require([xi for xi, _ in samples] == grid, "Q sampled off the grid")
    for xi, q in samples:
        require(abs(q - 1.0) <= tol, f"Q({xi}) = {q!r} is not within {tol} of 1")


# ---------------------------------------------------------------------------
# infinite windows of periodic-tail systems


class PeriodicLevels:
    """Level k >= 1 of a prefix + periodic-tail system, as (b, N, a)."""

    def __init__(self, prefix, block):
        self.prefix = list(prefix)
        self.block = list(block)

    def __getitem__(self, k: int):
        p = len(self.prefix)
        if k <= p:
            return self.prefix[k - 1]
        return self.block[(k - p - 1) % len(self.block)]


def infinite_zero(levels: PeriodicLevels, xi: Fraction) -> bool:
    """Stratum test over all levels; strata beyond |xi| cannot contain xi."""
    top = max(n * a for _, n, a in levels.block)
    big, k = 1, 0
    while True:
        k += 1
        b, n, a = levels[k]
        big *= b
        t = xi * a * n / big
        if t.denominator == 1 and t.numerator % n:
            return True
        if k > len(levels.prefix) and big > abs(xi) * top:
            return False


def reference_transform(levels: PeriodicLevels, xi: Fraction,
                        tail_tol: float) -> complex:
    """mu_hat(xi) to within tail_tol, from explicit exponential sums.

    Each factor is (1/N) sum_j exp(-2 pi i j a xi / B_k), its argument
    reduced mod 1 in integers before any float enters; the product stops once pi |xi| W * 2 / B_{n+1}
    drops below tail_tol, where W bounds (N_k - 1) a_k and every base is
    at least 2, so sum_{k>n} 1/B_k <= 2 / B_{n+1}.
    """
    weight = max((n - 1) * a for _, n, a in levels.prefix + levels.block)
    p, q = xi.numerator, xi.denominator
    value, big, k = complex(1.0), 1, 0
    while True:
        k += 1
        b, n, a = levels[k]
        big *= b
        den = q * big  # t = p a / den, reduced below in integers
        value *= sum(cmath.exp(-2j * math.pi * ((j * p * a) % den / den))
                     for j in range(n)) / n
        if k >= len(levels.prefix) and (
                math.pi * abs(xi) * weight * 2 / (big * levels[k + 1][0])
                < tail_tol):
            return value


# ---------------------------------------------------------------------------
# integer tiles


def _primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1)
            if all(p % q for q in range(2, math.isqrt(p) + 1))]


def phi_product(digits) -> int:
    """Product of p over prime powers s = p^a with Phi_s | A(x).

    Phi_{p^a}(zeta) = 0 test without polynomials: A(zeta_{p^a}) = 0 iff,
    for every residue r mod p^(a-1), the digits congruent to
    r, r + p^(a-1), ..., r + (p-1) p^(a-1) mod p^a are equally many.
    """
    top = max(digits)
    product = 1
    for p in _primes_upto(top + 1):
        s = p
        while (s // p) * (p - 1) <= top:
            step = s // p
            counts = Counter(d % s for d in digits)
            if all(len({counts[r + j * step] for j in range(p)}) == 1
                   for r in range(step)):
                product *= p
            s *= p
    return product


def covering_nodes(dset, width: int, limit: int) -> int | None:
    """Size of the relaxed covering tree of [0, width) by translates of dset.

    Returns the number of nodes expanded when no covering exists (a proof
    that dset does not tile Z), or None when a covering exists or more than
    limit nodes would be needed.  Every node is expanded when no covering
    exists, so the count does not depend on the search order.
    """
    dmask = sum(1 << d for d in dset)
    full = (1 << width) - 1
    stack, nodes = [dmask], 0
    while stack:
        bits = stack.pop()
        if bits & full == full:
            return None
        nodes += 1
        if nodes > limit:
            return None
        inv = ~bits
        u = (inv & -inv).bit_length() - 1
        for d in dset:
            t = u - d
            translate = dmask << t if t >= 0 else dmask >> -t
            if not translate & bits:
                stack.append(bits | translate)
    return nodes


def check_tiling(digits, period: int, complement) -> None:
    """Every residue mod period is hit exactly once by d + t."""
    counts = Counter((d + t) % period for d in digits for t in complement)
    require(len(digits) * len(complement) == period
            and set(counts) == set(range(period))
            and all(c == 1 for c in counts.values()),
            f"complement does not tile Z_{period}")


# ---------------------------------------------------------------------------
# CLI


def cli_digest(code: int, out: str, err: str) -> str:
    blob = f"{code}\n{len(out)}\n{out}{err}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
