"""Iterated digit sets and integer-tile decisions.

The tile verdict is three-valued: a verified (period, complement) pair, a
non-tile certificate (T1 of Coven and Meyerowitz read off residue counts,
or a window-covering refutation), or an honest Unknown up to the period
bound.  Periods step by lcm(S_A), S_A the prime powers s = p^a with
Phi_s | A(x): if A (+) C = Z_m, every prime power s | m has Phi_s | A(x) or
Phi_s | C(x), and Phi_s(1) = p gives #A #C >= prod_{s in S_A, s | m} p *
prod_{s in S_C} p >= m, with equality; so under T1 (prod_{S_A} p = #A) no
s in S_A misses m.  Both searches walk their trees with system.depth_first
on bitmasks of at most MAX_MASK_BITS bits: a wider window refutation is
skipped (it is only sufficient), and a longer period raises BudgetError.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetError, InvariantError, NotSpectralError
from .system import (MAX_SUMSET_TERMS, DigitLevel, MoranSystem, depth_first,
                     digit_progressions, first_nondividing_level, sumset_counts)

TILE = "Tile"
NOT_TILE = "NotTile"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class IteratedDigitSet:
    """D_n = D_n + b_n D_{n-1} + ... + b_2...b_n D_1 as a sorted multiset."""

    level: int
    elements: tuple[int, ...]
    direct_sum: bool
    span: int  # max element + 1

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.elements)))


def iterated_digits(system: MoranSystem, n: int) -> IteratedDigitSet:
    sums = sumset_counts(digit_progressions(system, 1, n))
    elements = tuple(sorted(Counter(sums).elements()))
    direct = all(m == 1 for m in sums.values())
    return IteratedDigitSet(n, elements, direct, elements[-1] + 1)


def convolve_uniform_check(d_elements: Sequence[int], c_elements: Sequence[int],
                           length: int) -> bool:
    """Exact counting, D (+) C = {0, ..., L-1}: after the size and end checks,
    the |D| shifts of C's bitmask set all L bits (budget as sumset_counts)."""
    d, c = d_elements, c_elements
    if len(d) + len(set(d)) * len(c) > MAX_SUMSET_TERMS:
        raise BudgetError(f"sumset of more than {MAX_SUMSET_TERMS} terms")
    if len(d) * len(c) != max(length, 0) or length <= 0:
        return len(d) * len(c) == max(length, 0)  # L <= 0: both sums empty
    low = min(c)
    if min(d) + low != 0 or max(d) + max(c) != length - 1:
        return False
    mask, covered = sum(1 << (x - low) for x in set(c)), 0
    for x in d:
        covered |= mask << (x + low)
    return covered == (1 << length) - 1


@dataclass(frozen=True)
class ComplementCertificate:
    length: int  # L = N_1 * b_2 ... b_n; D_n (+) C_n = {0, ..., L-1}
    verified: bool


def canonical_complement(system: MoranSystem, n: int
                         ) -> tuple[MoranSystem, ComplementCertificate]:
    """Complement system with levels C_1 = {0}, C_j = N_j * {0..r_j - 1}.

    Requires unit scales and N_j | b_j for 2 <= j <= n; the direct-sum
    identity D_n (+) C_n = {0, ..., L-1} is verified before returning.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    if any(system.level(k).scale != 1 for k in range(1, n + 1)):
        raise ValueError("canonical complement requires unit scales")
    j = first_nondividing_level(system, n)
    if j is not None:
        raise NotSpectralError(j)
    rows = system.levels(1, n)
    b_1, first = rows[0]
    complement = MoranSystem((DigitLevel(b_1, 1, 1),) + tuple(
        DigitLevel(lev.base, lev.base // lev.count, lev.count)
        for _, lev in rows[1:]))
    length = first.count * (rows[-1][0] // b_1)  # L = N_1 B_n / b_1
    if not convolve_uniform_check(iterated_digits(system, n).elements,
                                  iterated_digits(complement, n).elements,
                                  length):
        raise InvariantError("complement certificate failed: the sum is not "
                             f"{{0, ..., {length - 1}}}")
    return complement, ComplementCertificate(length, True)


# ---------------------------------------------------------------------------
# integer tiles: residue counts and bitmasks

MAX_MASK_BITS = 4096  # longest bitmask a tile search builds


def _prime_power_divisors(dset: Sequence[int]) -> dict[int, int]:
    """S_A: the prime powers s = p^a with Phi_s | A(x), each mapped to p.

    Phi_s | A(x) exactly when, mod s, the digits in r, r + s/p, ...,
    r + (p-1) s/p are equally many for every r; so p divides #A, and
    phi(s) <= max A (the degree of A) bounds the powers.
    """
    found, top, rest = {}, dset[-1], len(dset)
    for p in range(2, len(dset) + 1):  # a composite p no longer divides rest
        if rest % p:
            continue
        while rest % p == 0:
            rest //= p
        s = p
        while s // p * (p - 1) <= top:
            step = s // p
            counts = Counter(d % s for d in dset)
            if all(counts[x % step + j * step] == c
                   for x, c in counts.items() for j in range(p)):
                found[s] = p
            s *= p
    return found


@dataclass(frozen=True)
class TileVerdict:
    kind: str
    period: Optional[int] = None
    complement: Optional[tuple[int, ...]] = None
    certificate: Optional[str] = None  # NotTile: "T1" or "window"
    mask_value: Optional[int] = None  # D(1) = #D
    phi_product: Optional[int] = None
    window: Optional[int] = None
    searched_up_to: Optional[int] = None


def _search_complement(digits: tuple[int, ...], m: int) -> Optional[list[int]]:
    """Backtracking complement search in Z_m, least-uncovered-first fill."""
    masks = [sum(1 << ((d + t) % m) for d in digits) for t in range(m)]
    full = (1 << m) - 1

    def children(node):  # node: (cover, the translate that completed it)
        cover = node[0]
        s = (~cover & (cover + 1)).bit_length() - 1  # least uncovered residue
        return [(cover | masks[t], t)
                for t in sorted({(s - d) % m for d in digits})
                if not masks[t] & cover]

    for path in depth_first((0, None), children):
        if path[-1][0] == full:
            return [t for _, t in path[1:]]
    return None


def _window_refutation(dset: tuple[int, ...], width: int,
                       node_budget: int = 200_000) -> bool:
    """True if no packing of translates of dset can cover [0, width).

    Any tiling of some Z_m extends periodically to a tiling of Z; after
    shifting so the translate through the origin sits at 0, the tiling
    restricts to a non-overlapping family of translates covering every
    position in [0, width).  Failure of this relaxed covering search
    (overlaps and coverage below 0 are ignored) is therefore a sound
    proof that dset is not an integer tile.  Returns False when a
    covering exists or the node budget runs out (inconclusive).
    """
    dmask = sum(1 << d for d in dset)
    full = (1 << width) - 1

    def children(bits):  # translates by u - d, u the least uncovered position
        shifted = dmask << ((~bits & (bits + 1)).bit_length() - 1)
        return [bits | t for d in dset if not (t := shifted >> d) & bits]

    for visited, path in enumerate(depth_first(dmask, children)):
        if visited >= node_budget or path[-1] & full == full:
            return False
    return True


def is_integer_tile(digits: Sequence[int], m_max: int = 256) -> TileVerdict:
    """Decide whether a finite set of nonnegative integers tiles some Z_m.

    NotTile verdicts carry the T1 or window certificate; Tile verdicts are
    re-verified (each residue covered exactly once) before returning.
    """
    dset = sorted(set(digits))
    if not dset or dset[0] != 0:
        raise ValueError("digit set must contain 0 and be nonnegative")
    size = len(dset)
    divisors = _prime_power_divisors(dset)
    phi_product = math.prod(divisors.values())  # Phi_{p^a}(1) = p
    if phi_product != size:
        return TileVerdict(NOT_TILE, certificate="T1",
                           mask_value=size, phi_product=phi_product)
    width = 2 * (dset[-1] + 1)
    if width <= MAX_MASK_BITS and _window_refutation(tuple(dset), width):
        return TileVerdict(NOT_TILE, certificate="window", window=width)
    stride = math.lcm(*divisors)
    for m in range(stride, m_max + 1, stride):
        if m > MAX_MASK_BITS:
            raise BudgetError(f"period {m} exceeds {MAX_MASK_BITS} mask bits")
        reduced = tuple(sorted({d % m for d in dset}))
        if len(reduced) != size:
            continue
        complement = _search_complement(reduced, m)
        if complement is None:
            continue
        if not _verify_tiling(reduced, complement, m):
            raise InvariantError("tile verdict failed re-verification")
        return TileVerdict(TILE, period=m, complement=tuple(sorted(complement)),
                           mask_value=size, phi_product=phi_product)
    return TileVerdict(UNKNOWN, searched_up_to=m_max)


@dataclass(frozen=True)
class RescaledTiling:
    scaled: tuple[int, ...]  # (r * A) mod m
    complement: tuple[int, ...]
    period: int


def _verify_tiling(a: Sequence[int], b: Sequence[int], m: int) -> bool:
    """a (+) b = Z_m: m sums a + b, pairwise distinct mod m."""
    return (len(a) * len(b) == m
            and len({s % m for s in sumset_counts((a, b))}) == m)


def tijdeman_rescale(a: Sequence[int], b: Sequence[int], m: int,
                     r: int) -> RescaledTiling:
    """Rescale the tile A by r coprime to #A; rA (+) B = Z_m is re-verified.

    The rescaled partition is guaranteed by Tijdeman's theorem, so a
    verification failure is reported as an invariant breach.
    """
    if m < 1:
        raise ValueError(f"period must be >= 1, got {m}")
    a = tuple(sorted(set(x % m for x in a)))
    b = tuple(sorted(set(x % m for x in b)))
    if 0 not in a or 0 not in b:
        raise ValueError("both sets must contain 0")
    if math.gcd(r, len(a)) != 1:
        raise ValueError(f"r={r} shares a factor with #A={len(a)}")
    if not _verify_tiling(a, b, m):
        raise ValueError("input is not a tiling of Z_m")
    scaled = tuple(sorted({(r * x) % m for x in a}))
    if len(scaled) != len(a) or not _verify_tiling(scaled, b, m):
        raise InvariantError("rescaled tiling failed verification")
    return RescaledTiling(scaled, b, m)
