import cmath
import json
import math
import random
from fractions import Fraction as F

import mpmath
import pytest

import oracles
from moran.errors import HorizonError, PrecisionError
from moran.fourier import (
    FACTOR_EPS,
    MeasureWindow,
    ZeroStratumHit,
    evaluate_transform,
    factor_transform,
    zero_stratum,
)
from moran.system import DigitLevel, MoranSystem, PeriodicTail, parse_system

QUARTER = parse_system(
    '{"prefix": {"b": [4, 4], "N": [2, 2]},'
    ' "tail": {"kind": "periodic", "b": [4], "N": [2]}}')
MIXED = parse_system(
    '{"prefix": {"b": [4, 6], "N": [3, 2]}, "tail": {"kind": "none"}}')


def test_factor_at_zero_is_one():
    v = factor_transform(QUARTER.level(1), 4, F(0))
    assert v.value == 1.0 and not v.exact_zero


def test_factor_exact_zero():
    # (1 + e^{-i pi}) / 2 vanishes exactly; flagged without float tests
    v = factor_transform(QUARTER.level(1), 4, F(2))
    assert v.exact_zero and v.value == 0j


def test_factor_cos_quarter_pi():
    v = factor_transform(QUARTER.level(1), 4, F(1))
    assert abs(v.value) == pytest.approx(math.cos(math.pi / 4), abs=1e-15)
    assert v.error_bound <= FACTOR_EPS


def test_factor_matches_direct_sum():
    # oracle: plain exponential sum, no kernel form
    rng = random.Random(7)
    for _ in range(200):
        base = rng.randrange(2, 9)
        count = rng.randrange(1, base + 1)
        scale = rng.randrange(1, 4)
        big = base * rng.choice([1, base, base * base])
        xi = F(rng.randrange(-50, 50), rng.randrange(1, 12))
        from moran.system import DigitLevel
        lev = DigitLevel(base, count, scale)
        got = factor_transform(lev, big, xi).value
        want = sum(cmath.exp(-2j * math.pi * float(j * lev.scale * xi / big))
                   for j in range(count)) / count
        assert abs(got - want) < 1e-12


def test_evaluate_finite_window_examples():
    w = MeasureWindow(QUARTER, 1, 2)
    v = evaluate_transform(w, F(1))
    assert abs(v.value) == pytest.approx(
        math.cos(math.pi / 4) * math.cos(math.pi / 16), abs=1e-14)
    assert evaluate_transform(w, F(2)).exact_zero


def test_evaluate_matches_atom_oracle():
    rng = random.Random(11)
    for sys_, n in ((QUARTER, 3), (MIXED, 2)):
        for _ in range(40):
            xi = F(rng.randrange(-40, 40), rng.randrange(1, 10))
            got = evaluate_transform(MeasureWindow(sys_, 1, n), xi)
            want = oracles.transform_direct(sys_, 1, n, xi)
            assert abs(got.value - want) < 1e-10


def test_evaluate_deep_window_matches_factor_product():
    # from level 511 on, xi / 4^k mod 1 is within 2^-1022 of 0 or (for a
    # negative xi) of 1, where each kernel sign must survive
    for xi in (F(-1, 3), F(-5, 7), F(1, 3), F(7, 5)):
        for last in (510, 511, 540):
            got = evaluate_transform(MeasureWindow(QUARTER, 1, last), xi)
            want = oracles.transform_factor_product(QUARTER, 1, last, xi)
            assert abs(got.value - want) <= got.error_bound


def test_evaluate_error_bound_scales_with_count():
    v = evaluate_transform(MeasureWindow(QUARTER, 1, 5), F(1, 3))
    assert v.error_bound <= 5 * FACTOR_EPS * 1.0000001


def test_zero_stratum_examples():
    w = MeasureWindow(QUARTER, 1, None)
    assert zero_stratum(w, F(2)) == ZeroStratumHit(1, 1)
    assert zero_stratum(w, F(8)) == ZeroStratumHit(2, 1)
    assert zero_stratum(w, F(4)) is None
    wm = MeasureWindow(MIXED, 1, 2)
    assert zero_stratum(wm, F(4, 3)) == ZeroStratumHit(1, 1)


def test_zero_stratum_rejects_zero():
    with pytest.raises(ValueError):
        zero_stratum(MeasureWindow(QUARTER, 1, 2), F(0))


def test_zero_stratum_symmetric():
    w = MeasureWindow(QUARTER, 1, None)
    rng = random.Random(3)
    for _ in range(100):
        lam = F(rng.randrange(1, 400), rng.randrange(1, 20))
        lhs = zero_stratum(w, lam)
        rhs = zero_stratum(w, -lam)
        assert (lhs is None) == (rhs is None)
        if lhs is not None:
            assert lhs.level == rhs.level


def test_zero_stratum_agrees_with_transform_zero():
    # coherence: stratum hit <=> the evaluated product is exactly zero
    w = MeasureWindow(QUARTER, 1, 3)
    for j in range(1, 200):
        lam = F(j, 4)
        hit = zero_stratum(w, lam)
        assert (hit is not None) == evaluate_transform(w, lam).exact_zero


def test_finite_transform_is_periodic():
    # unit scales: the level-n window transform has period B_n
    w = MeasureWindow(QUARTER, 1, 2)
    rng = random.Random(5)
    for _ in range(50):
        xi = F(rng.randrange(-30, 30), rng.randrange(1, 8))
        a = evaluate_transform(w, xi).value
        b = evaluate_transform(w, xi + 16).value
        assert abs(a - b) < 1e-12


def test_product_consistency():
    # evaluate == product of the individual factor transforms
    w = MeasureWindow(MIXED, 1, 2)
    for xi in (F(1), F(5, 7), F(-3, 2)):
        prod = 1.0 + 0j
        for k in (1, 2):
            prod *= factor_transform(MIXED.level(k),
                                     MIXED.level_product(k), xi).value
        assert abs(evaluate_transform(w, xi).value - prod) <= 10 * FACTOR_EPS * 2


def test_infinite_window_truncation_bound():
    w = MeasureWindow(QUARTER, 1, None)
    rng = random.Random(13)
    for _ in range(60):
        xi = F(rng.randrange(-60, 60), rng.randrange(1, 30))
        eps = 10.0 ** rng.uniform(-10, -6)
        got = evaluate_transform(w, xi, eps)
        # reference: push the truncation much further
        deep = evaluate_transform(MeasureWindow(QUARTER, 1, 40), xi)
        assert abs(got.value - deep.value) <= eps + 1e-10


def _periodic_tail_system(rng):
    # prefix scales up to 3, N = 1 allowed in the prefix
    prefix = tuple(DigitLevel(rng.randint(2, 6), rng.randint(1, 4),
                              rng.randint(1, 3))
                   for _ in range(rng.randint(0, 3)))
    block = tuple(DigitLevel(rng.randint(2, 5), rng.randint(2, 4))
                  for _ in range(rng.randint(1, 2)))
    return MoranSystem(prefix, PeriodicTail(block))


def _stratum_point(rng, system):
    # (B_k / (a_k N_k)) m, m not in N_k Z, on a level with |xi| <= 10^4
    while True:
        k = rng.randint(1, system.prefix_length + 4)
        lev = system.level(k)
        step = F(system.level_product(k), lev.scale * lev.count)
        top = int(10 ** 4 / step)
        if lev.count > 1 and top >= 1:
            m = rng.choice([1, -1]) * rng.randint(1, top)
            if m % lev.count:
                return step * m


def test_infinite_window_bound_against_mpmath():
    # the stated error_bound holds with no slack beyond the oracle's own
    # 10^-25: off zero strata, one step beside them, and on exact zeros
    rng = random.Random(7)
    for i in range(200):
        system = _periodic_tail_system(rng)
        if i % 4 < 2:  # |xi| log-uniform in [10^-4, 10^4]
            q = rng.randint(1, 10 ** 6)
            xi = F(rng.choice([1, -1]) * round(10 ** rng.uniform(-4, 4) * q), q)
        else:
            xi = _stratum_point(rng, system)
            if i % 4 == 2:
                xi += F(rng.choice([1, -1]), rng.randint(1, 10 ** 12))
        got = evaluate_transform(MeasureWindow(system, 1, None), xi,
                                 10 ** rng.uniform(-12, -6))
        with mpmath.workdps(50):
            exact = oracles.transform_infinite(system, xi)
            assert (abs(mpmath.mpc(got.value) - exact)
                    <= got.error_bound + mpmath.mpf("1e-25")), (system, xi)
            if i % 4 == 3:
                assert got.exact_zero and abs(exact) <= mpmath.mpf("1e-25")


def test_infinite_window_exact_zero():
    w = MeasureWindow(QUARTER, 1, None)
    assert evaluate_transform(w, F(2)).exact_zero
    assert evaluate_transform(w, F(2)).value == 0j


def test_precision_floor_raises():
    w = MeasureWindow(QUARTER, 1, None)
    with pytest.raises(PrecisionError):
        evaluate_transform(w, F(1, 3), eps=1e-30)


def test_infinite_window_requires_periodic_tail():
    with pytest.raises(HorizonError):
        MeasureWindow(MIXED, 1, None)
    formula = parse_system(json.dumps(
        {"prefix": {"b": [2], "N": [2]},
         "tail": {"kind": "formula", "b": 3, "c": "1", "rho": "2"}}))
    with pytest.raises(HorizonError):
        MeasureWindow(formula, 1, None)


def test_window_validation():
    with pytest.raises(ValueError):
        MeasureWindow(QUARTER, 0, 2)
    with pytest.raises(ValueError):
        MeasureWindow(QUARTER, 3, 2)
    with pytest.raises(HorizonError):
        MeasureWindow(MIXED, 1, 5)       # beyond the finite horizon
