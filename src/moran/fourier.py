"""Fourier transform of measure windows and exact zero-set membership.

Exact zeros are decided symbolically by the stratum test (level k
contributes the zero stratum (B_k / (a_k N_k)) * (Z \\ N_k Z)); numeric
transform values are floats with explicit error bounds, never the other
way round.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Optional

from .errors import HorizonError, PrecisionError
from .system import DigitLevel, MoranSystem, PeriodicTail

# conservative per-factor rounding allowance for the Dirichlet-kernel float
FACTOR_EPS = 2.0 ** -48

# rational upper bound on pi, for exact truncation-cutoff comparisons
PI_UPPER = Fraction(355, 113)


@dataclass(frozen=True)
class MeasureWindow:
    """The partial convolution over levels first..last (last=None: infinity)."""

    system: MoranSystem
    first: int = 1
    last: Optional[int] = None

    def __post_init__(self):
        if self.first < 1:
            raise ValueError(f"first must be >= 1, got {self.first}")
        if self.last is None:
            if not isinstance(self.system.tail, PeriodicTail):
                raise HorizonError(
                    "infinite windows require a periodic tail")
        else:
            if self.last < self.first:
                raise ValueError("window requires first <= last")
            self.system.level(self.last)  # raises HorizonError if unreachable


@dataclass(frozen=True)
class ZeroStratumHit:
    """Witness lambda = (B_k / (a_k N_k)) * multiplier, multiplier not in N_k Z."""

    level: int
    multiplier: int


@dataclass(frozen=True)
class TransformValue:
    value: complex
    error_bound: float
    exact_zero: bool


def dirichlet(n: int, r: int, den: int) -> float:
    """Dirichlet kernel sin(pi n t) / (n sin(pi t)) at t = r/den, 0 < r < den.

    Both sine arguments are reduced exactly on integers (sign from n r mod
    2 den, then a mirror into [0, den/2]) before one correctly rounded
    int / int: scaling r and den together leaves the result unchanged, and
    near integer t it keeps the accuracy math.sin(math.pi * t) loses."""
    m = n * r % (2 * den)
    sign = 1.0
    if m >= den:
        sign, m = -1.0, m - den
    if 2 * m > den:
        m = den - m
    if 2 * r > den:
        r = den - r
    t = r / den
    try:
        if t < 2.0 ** -1022:
            # t is subnormal or 0 as a float: sin(pi t) = pi t, n t is formed
            # exactly, and sign is a mirrored r's (-1)^(n+1)
            if (n * r) << 30 < den:
                return sign  # n t < 2^-30: the kernel is sign to 2^-59
            return sign * math.sin(math.pi * (m / den)) / (math.pi * (n * r / den))
        return sign * math.sin(math.pi * (m / den)) / (n * math.sin(math.pi * t))
    except OverflowError:
        if t < 2.0 ** -1022:  # n t >= 2^1024: the kernel is below 2^-1025
            return 0.0
        e = n.bit_length() - 64  # n >= 2^1024 is h 2^e, h its top 64 bits
        return math.ldexp(sign * math.sin(math.pi * (m / den))
                          / ((n >> e) * math.sin(math.pi * t)), -e)


def _factor(n: int, num: int, den: int) -> Optional[complex]:
    """Factor (1/n) sum_j exp(-2 pi i j t) at t = num/den; None if exactly 0."""
    r = num % den  # exact t mod 1
    if r == 0:
        return complex(1.0)
    if n * r % den == 0:
        return None
    # the phase exp(-pi i (n - 1) t), its argument reduced mod 2 exactly
    return (cmath.exp(-1j * math.pi * ((n - 1) * r % (2 * den) / den))
            * dirichlet(n, r, den))


def factor_transform(level: DigitLevel, B: int, xi: Fraction) -> TransformValue:
    """Transform of one convolution factor delta_{(a/B)*{0..N-1}} at xi.

    Dirichlet-kernel form (1/N) sum_j exp(-2 pi i j a xi / B); the argument
    is reduced mod 1 exactly before any float enters.
    """
    num, den = level.scale * xi.numerator, xi.denominator * B
    value = _factor(level.count, num, den)
    if value is None:
        return TransformValue(complex(0.0), 0.0, True)
    return TransformValue(value, FACTOR_EPS if num % den else 0.0, False)


def zero_stratum(window: MeasureWindow, lam: Fraction) -> Optional[ZeroStratumHit]:
    """Smallest level k in the window whose zero stratum contains lam."""
    system, first, last = window.system, window.first, window.last
    p, q = lam.numerator, lam.denominator
    if not p:
        raise ValueError("0 is never in a zero set (mu_hat(0) = 1)")
    if last is None:
        # cutoff: once B_k / (a_k N_k) > |lam| for every later level
        bound = abs(p) * max(l.scale * l.count for l in system.tail.levels)
        prefix, levels = system.prefix_length, count(first)
    else:
        levels = range(first, last + 1)
    # q B_k as a running product; B_0 = 1 needs no table lookup
    den = q * system.level_product(first - 1) if first > 1 else q
    for k in levels:
        lev = system.level(k)
        den *= lev.base
        if last is None and k > prefix and den > bound:
            return None
        num = p * lev.scale * lev.count
        if num % den == 0 and num // den % lev.count:
            return ZeroStratumHit(k, num // den)
    return None


def stratum_moduli(window: MeasureWindow, den: int) -> list[tuple[int, int]]:
    """(g_k, h_k) per level of a finite window: d/den is in level k's zero
    stratum iff g_k | d and h_k does not divide d: g_k is the least d > 0
    with d a_k N_k / (den B_k) an integer, h_k the least with it in N_k Z."""
    moduli = []
    for big, lev in window.system.levels(window.first, window.last):
        d, an = den * big, lev.scale * lev.count
        moduli.append((d // math.gcd(d, an),
                       d * lev.count // math.gcd(d * lev.count, an)))
    return moduli


def zero_set(window: MeasureWindow, den: int) -> Callable[[int], bool]:
    """Test d -> (d/den is in the window's zero set) on integers d: a finite
    window's stratum moduli decide it, zero_stratum an infinite window's.
    The set is symmetric, and it never holds 0, which every h_k divides."""
    if window.last is None:
        return lambda d: (d != 0 and zero_stratum(window, Fraction(d, den))
                          is not None)
    levels = stratum_moduli(window, den)

    def in_zero_set(d: int) -> bool:
        for g, h in levels:
            if d % g == 0 and d % h:
                return True
        return False

    return in_zero_set


def _truncation_cutoff(window: MeasureWindow, xi: Fraction, eps: float) -> int:
    """Smallest n with an exact tail bound sum_{k>n} pi (N_k-1) a_k |xi| / B_k < eps.

    Uses the factor Lipschitz bound |factor(t) - 1| <= pi (N-1) |t|.  The
    tail sum is tail_constant(n) / B_n, so each step is one comparison of
    integers with every denominator cleared.
    """
    system = window.system
    eps_q = Fraction(eps)  # exact binary value of the float
    lhs = PI_UPPER.numerator * abs(xi.numerator) * eps_q.denominator
    rhs = eps_q.numerator * PI_UPPER.denominator * xi.denominator
    n = window.first - 1
    while (lhs * (tail := system.tail_constant(n)).numerator
           >= rhs * tail.denominator * system.level_product(n)):
        n += 1
    return n


def evaluate_transform(window: MeasureWindow, xi: Fraction,
                       eps: float = 1e-9) -> TransformValue:
    """mu_hat of the window at xi, with a certified error bound.

    Finite windows multiply exact-argument factor transforms; infinite
    windows truncate once the exact tail bound drops below eps.
    """
    system = window.system
    if window.last is not None:
        value = complex(1.0)
        p, q = xi.numerator, xi.denominator
        for big, lev in system.levels(window.first, window.last):
            factor = _factor(lev.count, lev.scale * p, q * big)
            if factor is None:
                return TransformValue(complex(0.0), 0.0, True)
            value *= factor
        count = window.last - window.first + 1
        return TransformValue(value, count * FACTOR_EPS, False)

    if xi == 0:
        return TransformValue(complex(1.0), 0.0, False)
    if zero_stratum(window, xi) is not None:
        return TransformValue(complex(0.0), 0.0, True)
    if eps <= 0:
        raise ValueError("eps must be positive")
    cutoff = _truncation_cutoff(window, xi, eps)
    count = cutoff - window.first + 1
    if eps < count * FACTOR_EPS:
        raise PrecisionError(
            f"eps={eps} below the rounding floor {count * FACTOR_EPS} "
            f"({count} factors)")
    if cutoff < window.first:
        return TransformValue(complex(1.0), eps, False)
    inner = evaluate_transform(MeasureWindow(system, window.first, cutoff), xi)
    return TransformValue(inner.value, eps + inner.error_bound, False)
