"""Moran systems: integer bases paired with scaled consecutive digit sets.

A system is a finite prefix of levels plus an optional tail rule (periodic
block or formula-driven counts).  Level n carries a base b_n >= 2, a count
N_n >= 1 and a scale a_n >= 1, and represents the digit set
a_n * {0, ..., N_n - 1} at that base.  All series with closed forms are
computed as exact rationals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import BudgetError, HorizonError, ParseError

CONVERGENT = "Convergent"
DIVERGENT = "Divergent"

# certificate tags for convergence reports
GEOMETRIC_RATIO = "geometric-ratio"
RATIO_TEST = "ratio-test"
NONVANISHING_TERMS = "nonvanishing-terms"
FINITE_PREFIX = "finite-prefix"

# most terms (partial sums, over all summands) a sumset enumeration may form
MAX_SUMSET_TERMS = 2 ** 20


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int, a float, or a 'p/q' string."""
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, str)):
        # a float's decimal intent, not its bit pattern (inf and nan fail)
        try:
            return Fraction(str(value).strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
    raise ParseError(f"not a rational: {value!r}")


def format_rational(x: Fraction) -> str:
    """Canonical 'p/q' rendering; integers print without a denominator."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class DigitLevel:
    """One convolution factor: digit set scale * {0, ..., count-1} at base."""

    base: int
    count: int
    scale: int = 1

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")


@dataclass(frozen=True)
class PeriodicTail:
    levels: tuple[DigitLevel, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("periodic tail needs at least one level")


@dataclass(frozen=True)
class FormulaTail:
    """Constant base with counts N_n = max(2, round(c * rho**n))."""

    base: int
    c: Fraction
    rho: Fraction

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"tail base must be >= 2, got {self.base}")
        if self.c <= 0:
            raise ValueError("formula tail requires c > 0")
        if self.rho < 1:
            raise ValueError("formula tail requires rho >= 1")

    def count_at(self, n: int) -> int:
        return max(2, round(self.c * self.rho**n))


Tail = Union[PeriodicTail, FormulaTail, None]


@dataclass(frozen=True)
class MoranSystem:
    """A finitely described sequence of digit levels."""

    prefix: tuple[DigitLevel, ...]
    tail: Tail = None

    def __post_init__(self):
        if not self.prefix and self.tail is None:
            raise ValueError("empty prefix with no tail")
        # finite systems may be fully trivial (all counts 1): canonical
        # tiling complements of N_j = b_j systems degenerate to Diracs
        if self.tail is not None and not self._has_nontrivial_level():
            raise ValueError("at least one level must have count >= 2")
        # level table: row k is (B_k, level k), extended on demand by levels
        object.__setattr__(self, "_rows", [(1, None)])

    def _has_nontrivial_level(self) -> bool:
        if any(lev.count >= 2 for lev in self.prefix):
            return True
        if isinstance(self.tail, PeriodicTail):
            return any(lev.count >= 2 for lev in self.tail.levels)
        return isinstance(self.tail, FormulaTail)  # counts clamped to >= 2

    @property
    def prefix_length(self) -> int:
        return len(self.prefix)

    @property
    def horizon(self) -> Optional[int]:
        """Largest addressable level, or None when unbounded."""
        return len(self.prefix) if self.tail is None else None

    def level(self, n: int) -> DigitLevel:
        if n < 1:
            raise ValueError(f"level index must be >= 1, got {n}")
        p = len(self.prefix)
        if n <= p:
            return self.prefix[n - 1]
        if self.tail is None:
            raise HorizonError(f"level {n} beyond finite horizon {p}")
        if isinstance(self.tail, PeriodicTail):
            block = self.tail.levels
            return block[(n - p - 1) % len(block)]
        return DigitLevel(self.tail.base, self.tail.count_at(n), 1)

    def levels(self, first: int, last: int) -> list[tuple[int, DigitLevel]]:
        """Rows (B_k, level k), k = first..last, B_k = b_1 * ... * b_k."""
        if first < 1:
            raise ValueError(f"level index must be >= 1, got {first}")
        rows = self._rows
        if len(rows) <= last:
            # publish an extended copy: no reader sees a half-built table
            rows = rows[:]
            while len(rows) <= last:
                lev = self.level(len(rows))
                rows.append((rows[-1][0] * lev.base, lev))
            object.__setattr__(self, "_rows", rows)
        return rows[first:last + 1]

    def level_product(self, n: int) -> int:
        """B_n, read from row n of the level table (B_0 = 1)."""
        rows = self._rows
        return rows[n][0] if 0 <= n < len(rows) else self.levels(n, n)[0][0]

    @cached_property
    def _tail_constants(self) -> list[Fraction]:
        # T_0, then T_k = b_k T_{k-1} - (N_k - 1) a_k up to one full period
        out = [periodic_tail_series(self, lambda l: (l.count - 1) * l.scale)]
        for k in range(1, len(self.prefix) + len(self.tail.levels)):
            lev = self.level(k)
            out.append(lev.base * out[-1] - (lev.count - 1) * lev.scale)
        return out

    def tail_constant(self, n: int) -> Fraction:
        """T_n = B_n * sum_{k>n} (N_k - 1) a_k / B_k, exactly (periodic tails);
        past the prefix end p it depends only on the phase (n - p) mod period."""
        p, tails = len(self.prefix), self._tail_constants
        return tails[n if n < p else p + (n - p) % (len(tails) - p)]


def first_nondividing_level(system: MoranSystem, last: int) -> Optional[int]:
    """Smallest j in 2..last with N_j not dividing b_j, or None."""
    for j in range(2, last + 1):
        lev = system.level(j)
        if lev.base % lev.count:
            return j
    return None


def digit_progressions(system: MoranSystem, first: int,
                       last: int) -> list[range]:
    """B_last (a_k / B_k) {0, ..., N_k - 1} for k = first..last, as ranges."""
    rows = system.levels(first, last)
    steps = [(lev.count, lev.scale * (rows[-1][0] // big)) for big, lev in rows]
    return [range(0, count * step, step) for count, step in steps]


def sumset_counts(summands: Iterable[Sequence[int]]) -> dict[int, int]:
    """Multiplicity of each sum x_1 + ... + x_r, x_i from the i-th summand
    (repeats count separately); BudgetError past MAX_SUMSET_TERMS terms."""
    counts, terms = {0: 1}, 0
    for summand in summands:
        # a range's size without len(), which fails past sys.maxsize elements
        terms += len(counts) * (-((summand.start - summand.stop) // summand.step)
                                if isinstance(summand, range) else len(summand))
        if terms > MAX_SUMSET_TERMS:
            raise BudgetError(f"sumset of more than {MAX_SUMSET_TERMS} terms")
        new: dict[int, int] = {}
        for v, mult in counts.items():
            for x in summand:
                key = v + x
                new[key] = new.get(key, 0) + mult
        counts = new
    return counts


def depth_first(root, children: Callable[[object], Iterable]):
    """Preorder walk under root without recursion, yielding the path to each
    node as one list, cut back and extended in place; children(node), a list
    or lazy, in visiting order, is called after the path to node is yielded."""
    path, stack = [], [iter((root,))]  # stack[k]: the next nodes at depth k
    while stack:
        for node in stack[-1]:
            path[len(stack) - 1:] = [node]
            yield path
            stack.append(iter(children(node)))
            break
        else:
            stack.pop()


@dataclass(frozen=True)
class ConvergenceReport:
    verdict: str
    total: Optional[Fraction]  # exact sum when closed form, else upper bound
    certificate: str
    note: Optional[str] = None


@dataclass(frozen=True)
class SupportInfo:
    diameter: Fraction


def _prefix_series(system: MoranSystem, upto: int,
                   numer: Callable[[DigitLevel], int]) -> Fraction:
    return sum((Fraction(numer(lev), big)
                for big, lev in system.levels(1, upto)), Fraction(0))


def periodic_tail_series(system: MoranSystem,
                         numer: Callable[[DigitLevel], int]) -> Fraction:
    """Exact sum over k >= 1 of numer(level_k) / B_k for periodic tails.

    The prefix is summed explicitly and the periodic remainder is a
    geometric block sum.
    """
    if not isinstance(system.tail, PeriodicTail):
        raise HorizonError("closed-form tail series requires a periodic tail")
    p, period = len(system.prefix), len(system.tail.levels)
    head = _prefix_series(system, p, numer)
    block = _prefix_series(system, p + period, numer) - head
    ratio = system.level_product(p + period) // system.level_product(p)
    return head + block * Fraction(ratio, ratio - 1)


def check_convergence(system: MoranSystem) -> ConvergenceReport:
    """Decide weak convergence via the series sum_n N_n / B_n."""
    tail = system.tail
    if tail is None:
        total = _prefix_series(system, len(system.prefix), lambda l: l.count)
        return ConvergenceReport(
            CONVERGENT, total, FINITE_PREFIX,
            note="finite prefix only; the infinite model is unspecified")
    if isinstance(tail, PeriodicTail):
        total = periodic_tail_series(system, lambda l: l.count)
        return ConvergenceReport(CONVERGENT, total, GEOMETRIC_RATIO)
    # formula tail: N_n = max(2, round(c * rho**n)), constant base b
    p = len(system.prefix)
    if tail.rho >= tail.base:
        return ConvergenceReport(
            DIVERGENT, None, NONVANISHING_TERMS,
            note="terms N_n/B_n are bounded below for rho >= b")
    # ratio test: upper bound via N_n <= 2 + c*rho**n
    prefix_sum = _prefix_series(system, p, lambda l: l.count)
    bp = system.level_product(p)
    b, c, rho = tail.base, tail.c, tail.rho
    bound = (prefix_sum
             + Fraction(2, bp * (b - 1))
             + (c * rho**p / bp) * (rho / (b - rho)))
    return ConvergenceReport(CONVERGENT, bound, RATIO_TEST,
                             note="total is an upper bound, not a closed form")


def support_info(system: MoranSystem, n: Optional[int]) -> SupportInfo:
    """Support diameter of the window 1..n (n=None means infinity)."""
    weight = lambda lev: (lev.count - 1) * lev.scale
    if n is None:
        if not isinstance(system.tail, PeriodicTail):
            raise HorizonError("infinite support requires a periodic tail")
        return SupportInfo(periodic_tail_series(system, weight))
    return SupportInfo(_prefix_series(system, n, weight))


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _parse_levels(obj, where: str) -> tuple[DigitLevel, ...]:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    for key in ("b", "N"):
        if key not in obj:
            raise ParseError(f"{where}: missing array {key!r}")
    bases, counts = obj["b"], obj["N"]
    scales = obj.get("scale", [1] * len(bases))
    if not (isinstance(bases, list) and isinstance(counts, list)
            and isinstance(scales, list)):
        raise ParseError(f"{where}: b, N, scale must be arrays")
    if not len(bases) == len(counts) == len(scales):
        raise ParseError(f"{where}: b, N, scale lengths differ")
    levels = []
    for b, n, a in zip(bases, counts, scales):
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in (b, n, a)):
            raise ParseError(f"{where}: levels must be integers")
        try:
            levels.append(DigitLevel(b, n, a))
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    return tuple(levels)


def parse_system(text: str) -> MoranSystem:
    """Parse the canonical JSON system document."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "prefix" not in doc:
        raise ParseError("document must be an object with a 'prefix' key")
    prefix = _parse_levels(doc["prefix"], "prefix")
    if "tail" not in doc:
        raise ParseError("document must carry a 'tail' object")
    tail_doc = doc["tail"]
    if not isinstance(tail_doc, dict) or "kind" not in tail_doc:
        raise ParseError("tail must be an object with a 'kind' key")
    kind = tail_doc["kind"]
    tail: Tail
    if kind == "none":
        tail = None
    elif kind == "periodic":
        tail = PeriodicTail(_parse_levels(tail_doc, "tail"))
    elif kind == "formula":
        for key in ("b", "c", "rho"):
            if key not in tail_doc:
                raise ParseError(f"formula tail: missing {key!r}")
        b = tail_doc["b"]
        if not isinstance(b, int) or isinstance(b, bool):
            raise ParseError("formula tail: b must be an integer")
        try:
            tail = FormulaTail(b, parse_rational(tail_doc["c"]),
                               parse_rational(tail_doc["rho"]))
        except (ParseError, ValueError) as exc:
            raise ParseError(f"formula tail: {exc}") from exc
    else:
        raise ParseError(f"unknown tail kind {kind!r}")
    try:
        return MoranSystem(prefix, tail)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _levels_doc(levels: tuple[DigitLevel, ...]) -> dict:
    doc = {"b": [l.base for l in levels], "N": [l.count for l in levels]}
    if any(l.scale != 1 for l in levels):
        doc["scale"] = [l.scale for l in levels]
    return doc


def _rational_doc(x: Fraction):
    return x.numerator if x.denominator == 1 else format_rational(x)


def serialize_system(system: MoranSystem) -> str:
    """Canonical single-line JSON; parse_system(serialize_system(s)) == s."""
    doc = {"prefix": _levels_doc(system.prefix)}
    if system.tail is None:
        doc["tail"] = {"kind": "none"}
    elif isinstance(system.tail, PeriodicTail):
        doc["tail"] = {"kind": "periodic", **_levels_doc(system.tail.levels)}
    else:
        doc["tail"] = {"kind": "formula", "b": system.tail.base,
                       "c": _rational_doc(system.tail.c),
                       "rho": _rational_doc(system.tail.rho)}
    return json.dumps(doc, separators=(",", ":"))
