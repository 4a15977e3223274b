"""The integer kernels against independent references.

The Dirichlet kernel and the complex factor are checked against mpmath at
170 bits past den's bit length (an exponential sum for N <= 64, the closed
form above); the truncation cutoff, the zero-stratum test and Q grids are
checked against the Fraction-based references in oracles.py, with exact
equality.
"""

import json
import math
from fractions import Fraction as F

import mpmath
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from moran.fourier import (FACTOR_EPS, PI_UPPER, MeasureWindow, ZeroStratumHit,
                           _factor, _truncation_cutoff, dirichlet,
                           stratum_moduli, zero_stratum)
from moran.spectra import QGRID_BLOCK, CandidateSet, q_function, q_grid
from moran.system import parse_system


def _levels(draw, size):
    return {"b": draw(st.lists(st.integers(2, 12), min_size=size,
                               max_size=size)),
            "N": draw(st.lists(st.integers(1, 12), min_size=size,
                               max_size=size)),
            "scale": draw(st.lists(st.sampled_from([1, 1, 2, 3, 5]),
                                   min_size=size, max_size=size))}


@st.composite
def scaled_periodic_systems(draw):
    prefix = _levels(draw, draw(st.integers(0, 3)))
    tail = _levels(draw, draw(st.integers(1, 3)))
    if all(n == 1 for n in prefix["N"] + tail["N"]):
        tail["N"][0] = 2
    return parse_system(json.dumps(
        {"prefix": prefix, "tail": {"kind": "periodic", **tail}}))


@st.composite
def scaled_finite_systems(draw, max_depth=4):
    prefix = _levels(draw, draw(st.integers(1, max_depth)))
    return parse_system(json.dumps(
        {"prefix": prefix, "tail": {"kind": "none"}}))


def rationals(max_num):
    return st.builds(F, st.integers(-max_num, max_num),
                     st.sampled_from([1, 2, 3, 7, 12, 1000, 999_983]))


# ---------------------------------------------------------------------------
# Dirichlet kernel


@st.composite
def kernel_arguments(draw):
    n = draw(st.integers(1, 64))
    den = draw(st.one_of(st.integers(2, 10_000),
                         st.integers(10 ** 30, 10 ** 32)))
    r = draw(st.one_of(st.sampled_from([1, den - 1, den // 2 - 1,
                                        den // 2 + 1]),
                       st.integers(1, den - 1)))
    assume(0 < r < den)
    return n, r, den


@st.composite
def deep_kernel_arguments(draw):
    """t = r/den around and below 2^-1022, the smallest normal float, or 1 - t
    (the mirrored r): with r <= 64, t is subnormal or 0 as a float and n t
    runs from 2^-40 to 2^8."""
    den = draw(st.integers(2 ** 1030, 2 ** 1300))
    edge = (den - 1) >> 1022  # r <= edge exactly when r/den < 2^-1022
    r = draw(st.one_of(st.integers(1, 64), st.sampled_from([edge, edge + 1])))
    if r > 64:  # t may round to 2^-1022, whose path needs n below 2^1024
        n = draw(st.integers(1, 64))
    else:
        # n t = k 2^-(20 + s) with k in [2^20, 2^21): a random mantissa, so
        # n t is rarely near an integer
        k, s = draw(st.integers(2 ** 20, 2 ** 21)), draw(st.integers(-8, 40))
        n = draw(st.one_of(st.integers(1, 64),
                           st.just(den * k // r >> (20 + s))))
    if draw(st.booleans()):
        r = den - r  # t near 1: the kernel is (-1)^(n+1) times its 1 - t value
    return n, r, den


@st.composite
def huge_count_kernel_arguments(draw):
    """n past the float range, with t = r/den about 2^-shift: normal with
    n t from 2^2 to 2^20; subnormal with n t from 2^-40 to 2^78; or, with n
    about 2^2100, n t about 2^1000 to 2^1080, past the float range too, and
    t normal, subnormal or 0 as a float.  r is mirrored half of the time."""
    regime = draw(st.sampled_from(["normal", "subnormal", "overflow"]))
    if regime == "normal":
        bits = draw(st.integers(1025, 1042))
        shift = draw(st.integers(bits - 20, 1022))
    elif regime == "subnormal":
        bits = draw(st.integers(1025, 1101))
        shift = draw(st.integers(1023, bits + 40))
    else:
        bits = draw(st.integers(2095, 2105))
        shift = bits - draw(st.integers(1000, 1080))
    n = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
    den = draw(st.integers(2 ** (shift + 8), 2 ** (shift + 200)))
    r = draw(st.integers(den >> shift, den >> (shift - 1)))
    if draw(st.booleans()):
        r = den - r
    return n, r, den


def _mp_kernel(n, r, den):
    """Real signed magnitude of (1/N) sum_j e^{-2 pi i j t}, 170 bits past
    den's bits, so that t = r/den keeps 1 - t when r is near den."""
    with mpmath.workprec(170 + den.bit_length()):
        t = mpmath.mpf(r) / den
        if n > 64:
            # too many terms to sum: sin(pi N t) / (N sin(pi t)), with N t
            # reduced mod 2 exactly
            return (mpmath.sin(mpmath.pi * mpmath.mpf(n * r % (2 * den)) / den)
                    / (n * mpmath.sin(mpmath.pi * t)))
        total = mpmath.fsum(mpmath.expj(-2 * mpmath.pi * j * t)
                            for j in range(n)) / n
        # undo the phase e^{-pi i (N-1) t}; what remains is real
        value = total * mpmath.expj(mpmath.pi * (n - 1) * t)
        assert abs(value.imag) < mpmath.mpf(10) ** -40
        return value.real


@given(kernel_arguments())
@settings(max_examples=300, deadline=None)
def test_kernel_within_factor_eps_of_mpmath(args):
    n, r, den = args
    error = abs(mpmath.mpf(dirichlet(n, r, den)) - _mp_kernel(n, r, den))
    assert error <= FACTOR_EPS


@given(kernel_arguments(), st.integers(2, 10 ** 30))
@settings(max_examples=200, deadline=None)
def test_kernel_invariant_under_common_scaling(args, g):
    # int / int is correctly rounded, so g r / (g den) gives r / den's float
    n, r, den = args
    assert dirichlet(n, g * r, g * den) == dirichlet(n, r, den)


@given(deep_kernel_arguments())
@example((2, 2 ** 1030 - 1, 2 ** 1030))  # mirrored, even n: about -1
@example((3, 2 ** 1030 - 1, 2 ** 1030))  # mirrored, odd n: about +1
@example((2, 1, 2 ** 1030))
@settings(max_examples=300, deadline=None)
def test_deep_kernel_within_factor_eps_of_mpmath(args):
    n, r, den = args
    error = abs(mpmath.mpf(dirichlet(n, r, den)) - _mp_kernel(n, r, den))
    assert error <= FACTOR_EPS


@given(deep_kernel_arguments(), st.integers(2, 10 ** 30))
@settings(max_examples=100, deadline=None)
def test_deep_kernel_invariant_under_common_scaling(args, g):
    n, r, den = args
    assert dirichlet(n, g * r, g * den) == dirichlet(n, r, den)


@given(huge_count_kernel_arguments())
@example((2 ** 1024, 2 ** 1025, 3 * 2 ** 1030))  # t = 1/96, normal
@example((2 ** 2100 + 1, 5, 3 * 2 ** 1070 + 1))  # t subnormal, n t > 2^1024
@example((2 ** 2100 + 1, 3 * 2 ** 1070 - 4, 3 * 2 ** 1070 + 1))  # mirrored
@example((2 ** 2110 + 3, 1, 2 ** 1080 + 7))  # t rounds to 0.0
@settings(max_examples=300, deadline=None)
def test_huge_count_kernel_within_factor_eps_of_mpmath(args):
    n, r, den = args
    error = abs(mpmath.mpf(dirichlet(n, r, den)) - _mp_kernel(n, r, den))
    assert error <= FACTOR_EPS


@st.composite
def factor_arguments(draw):
    n = draw(st.one_of(st.sampled_from([12, 128, 10 ** 6]),
                       st.integers(1, 10 ** 6)))
    den = draw(st.integers(2, 10 ** 15))
    r = draw(st.one_of(st.integers(1, den - 1),
                       st.sampled_from([1, den - 1])))
    return n, r, den


@given(factor_arguments())
@example((12, 5, 7))
@example((2 ** 1024, 1, 3 * 2 ** 1030))  # N past the float range
@settings(max_examples=300, deadline=None)
def test_factor_within_factor_eps_of_mpmath(args):
    # the complex factor: the phase e^{-pi i (N-1) t} times the kernel
    n, r, den = args
    value = _factor(n, r, den)
    assume(value is not None)
    with mpmath.workprec(170 + den.bit_length()):
        phase = mpmath.expj(-mpmath.pi * (n - 1) * mpmath.mpf(r) / den)
        error = abs(mpmath.mpc(value) - phase * _mp_kernel(n, r, den))
    assert error <= FACTOR_EPS


# ---------------------------------------------------------------------------
# truncation cutoff


@given(scaled_periodic_systems(), st.integers(1, 3), rationals(10 ** 15),
       st.floats(1e-12, 1e-3))
@settings(max_examples=150, deadline=None)
def test_cutoff_matches_quadratic_reference(sys_, first, xi, eps):
    assume(xi != 0)
    window = MeasureWindow(sys_, first)
    assert _truncation_cutoff(window, xi, eps) == \
        oracles.truncation_cutoff_reference(window, xi, eps)


@given(scaled_periodic_systems(), st.integers(0, 2), st.integers(0, 2),
       st.floats(1e-12, 1e-3), st.sampled_from([-1, 0, 1]))
@settings(max_examples=150, deadline=None)
def test_cutoff_tight_at_phase_boundary(sys_, blocks, phase, eps, nudge):
    # choose xi so that the tail bound at n equals eps exactly (nudge 0):
    # the strict < must fail there; nudge -1/+1 moves xi by 1 part in 10^30
    period = len(sys_.tail.levels)
    n = sys_.prefix_length + blocks * period + phase % period
    tail = oracles.tail_series_reference(sys_, n)
    assume(tail != 0)
    xi = F(eps) / (PI_UPPER * tail) * (1 + F(nudge, 10 ** 30))
    window = MeasureWindow(sys_, 1)
    got = _truncation_cutoff(window, xi, eps)
    assert got == oracles.truncation_cutoff_reference(window, xi, eps)
    assert (got > n) == (nudge >= 0)


# ---------------------------------------------------------------------------
# zero strata


@st.composite
def stratum_lambdas(draw, sys_):
    """Random rationals, half of them on some level's stratum lattice."""
    if draw(st.booleans()):
        lam = draw(rationals(10 ** 15))
    else:
        k = draw(st.integers(1, sys_.horizon or sys_.prefix_length + 4))
        lev = sys_.level(k)
        step = F(oracles.running_products(sys_, k)[-1], lev.scale * lev.count)
        lam = step * draw(st.integers(-50, 50))
    assume(lam != 0)
    return lam


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_zero_stratum_matches_fraction_reference(data):
    sys_ = data.draw(st.one_of(scaled_periodic_systems(),
                               scaled_finite_systems()))
    lam = data.draw(stratum_lambdas(sys_))
    if sys_.tail is None:
        first = data.draw(st.integers(1, sys_.prefix_length))
        window = MeasureWindow(sys_, first, sys_.prefix_length)
    else:
        window = MeasureWindow(sys_, data.draw(st.integers(1, 3)))
    want = oracles.zero_stratum_reference(window, lam)
    got = zero_stratum(window, lam)
    assert got == (None if want is None else ZeroStratumHit(*want))


@st.composite
def stratum_moduli_cases(draw):
    """(levels, den, ds): 1-3 levels with scales up to 3 and point masses,
    den B_k past 2^64 in a third of the draws, and integers d on and off the
    levels' stratum lattices."""
    levels = draw(st.lists(st.tuples(
        st.one_of(st.integers(2, 12), st.integers(2 ** 64, 2 ** 70)),
        st.integers(1, 6), st.sampled_from([1, 1, 2, 3])),
        min_size=1, max_size=3))
    den = draw(st.sampled_from([1, 2, 3, 6, 12, 35]))
    system = parse_system(json.dumps({
        "prefix": {"b": [b for b, _, _ in levels],
                   "N": [n for _, n, _ in levels],
                   "scale": [a for _, _, a in levels]},
        "tail": {"kind": "none"}}))
    b = oracles.running_products(system, len(levels))
    ds = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=6))
    for k, (_, n, a) in enumerate(levels, 1):
        lattice = den * b[k] // math.gcd(den * b[k], a * n)
        ds += [lattice * draw(st.integers(-3 * n, 3 * n)) for _ in range(3)]
    return system, den, ds


@given(stratum_moduli_cases())
@example((parse_system('{"prefix": {"b": [18446744073709551617, 4], '
                       '"N": [3, 1], "scale": [2, 3]}, '
                       '"tail": {"kind": "none"}}'), 6,
          [18446744073709551617, 3 * 18446744073709551617, 0]))
@settings(max_examples=300, deadline=None)
def test_stratum_moduli_match_the_stratum_rule(args):
    system, den, ds = args
    n = system.prefix_length
    b = oracles.running_products(system, n)
    moduli = stratum_moduli(MeasureWindow(system, 1, n), den)
    for k, (g, h) in enumerate(moduli, 1):
        lev = system.level(k)
        an, big = lev.scale * lev.count, den * b[k]
        # the same moduli by G = gcd(den B_k, a_k N_k)
        common = math.gcd(big, an)
        assert (g, h) == (big // common, big // common * lev.count
                          // math.gcd(an // common, lev.count))
        for d in ds:
            t = F(d * an, big)
            rule = t.denominator == 1 and t.numerator % lev.count != 0
            assert (d % g == 0 and d % h != 0) == rule


# ---------------------------------------------------------------------------
# Q grids


@given(scaled_finite_systems(), st.lists(rationals(60), max_size=8),
       rationals(10 ** 12), st.integers(1, 50), st.integers(1, 400),
       st.integers(-2, 30))
@settings(max_examples=100, deadline=None)
def test_q_grid_equals_reference(sys_, lams, start, step_num, step_den,
                                 steps):
    window = MeasureWindow(sys_, 1, sys_.prefix_length)
    cs = CandidateSet.of([0] + lams)
    step = F(step_num, step_den)
    stop = start + steps * step
    want = oracles.q_grid_reference(window, cs, start, stop, step)
    assert q_grid(window, cs, start, stop, step) == want
    assert q_function(window, cs, start) == \
        sum(oracles.abs2_transform_reference(window, start + lam)
            for lam in cs)


def test_q_grid_across_blocks_equals_reference():
    # 2 blocks + 3 points; xi = -3 + i/97 meets B_1/a_1 = 3 at i = 0 and
    # 291, where level 1's numerator is 0
    sys_ = parse_system(json.dumps(
        {"prefix": {"b": [6, 4], "N": [3, 2], "scale": [2, 3]},
         "tail": {"kind": "none"}}))
    window = MeasureWindow(sys_, 1, 2)
    cs = CandidateSet.of([0, F(1, 3), F(5, 2), F(-7, 6)])
    start, step = F(-3), F(1, 97)
    stop = start + (2 * QGRID_BLOCK + 2) * step
    got = q_grid(window, cs, start, stop, step)
    assert len(got) == 2 * QGRID_BLOCK + 3
    assert got == oracles.q_grid_reference(window, cs, start, stop, step)


@given(st.lists(rationals(10 ** 6), max_size=12), rationals(10 ** 6))
@settings(max_examples=100, deadline=None)
def test_candidate_membership_matches_set(values, probe):
    cs = CandidateSet.of(values)
    for x in values + [probe]:
        assert (x in cs) == (x in set(cs.elements))
