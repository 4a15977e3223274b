import itertools
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from moran.errors import BudgetError
from moran.fourier import MeasureWindow
from moran.fuglede import convolve_uniform_check, fuglede_report
from moran.spectra import spectrum_search
from moran.system import MAX_SUMSET_TERMS, parse_system
from moran.tiling import iterated_digits


def _sys(b, n):
    return parse_system(json.dumps(
        {"prefix": {"b": list(b), "N": list(n)}, "tail": {"kind": "none"}}))


def test_convolve_examples():
    assert convolve_uniform_check((0, 1, 4, 5), (0, 2), 8)
    assert not convolve_uniform_check((0, 1, 3, 4), (0, 2), 8)  # s=3 twice
    assert convolve_uniform_check((0,), (0,), 1)
    assert not convolve_uniform_check((0, 1), (0, 1), 4)        # misses 3


@st.composite
def convolutions(draw):
    """Small multisets D and C, repeats, negatives and empty sides allowed,
    with L from -2 to the span of the sums + 2.  Two thirds are a direct
    sum {0..s-1} (+) s{0..t-1} = {0, ..., st-1}, either side first, D
    shifted by an offset and C back, and half of those moved off it by
    one element of D that is not an end: |D| |C| = L and the end sums
    still hold, but a sum repeats or one is missed."""
    step = count = 0
    if draw(st.integers(0, 2)):
        step, count = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        d, c = list(range(step)), [step * j for j in range(count)]
        if draw(st.booleans()):
            d, c = c, d
        if len(d) > 2 and draw(st.booleans()):
            d[draw(st.integers(1, len(d) - 2))] = draw(
                st.integers(d[0], d[-1]))
        shift = draw(st.integers(-3, 3))
        d, c = [x + shift for x in d], [x - shift for x in c]
    else:
        d = draw(st.lists(st.integers(-4, 8), max_size=5))
        c = draw(st.lists(st.integers(-4, 8), max_size=5))
    # the sums span 0..L-1 at most at L = max sum + 1; half the direct
    # sums get their own L
    length = draw(st.integers(-2, max([0] + [x + y for x in d for y in c]) + 3))
    if step and draw(st.booleans()):
        length = step * count
    return (draw(st.permutations(d)), draw(st.permutations(c)), length)


@given(convolutions())
@settings(max_examples=400, deadline=None)
def test_convolve_matches_the_dict_count(args):
    assert convolve_uniform_check(*args) == \
        oracles.convolve_uniform_reference(*args)


def test_convolve_edge_cases_match_the_dict_count():
    for args in [((), (), -1), ((), (), 0), ((), (), 1), ((0,), (), 0),
                 ((), (0,), -2), ((0, 0), (0,), 2), ((0,), (0, 0), 2),
                 ((0, 1), (0, 0), 4), ((-1, 0), (1, 3), 4),
                 ((-1, 0), (1, 2), 2), ((2, 3), (-2, 0), 4)]:
        assert convolve_uniform_check(*args) == \
            oracles.convolve_uniform_reference(*args), args
    assert convolve_uniform_check((), (), -1)


def _raises_budget(fn, *args):
    try:
        fn(*args)
    except BudgetError:
        return True
    return False


def test_convolve_budget_boundary_matches_the_dict_count():
    # sumset_counts forms |D| terms, then (distinct D) x |C|: the budget
    # is crossed at exactly the same sizes, repeats in D included.  C is
    # all zeros and L = 0, so the reference forms few sums and no target
    cap, cases = MAX_SUMSET_TERMS, []
    for distinct, repeats in ((1024, 0), (1000, 24), (1, 1023), (3, 0)):
        d = tuple(range(distinct)) + (0,) * repeats
        size = (cap - len(d)) // distinct
        cases += [(d, size + i) for i in (-1, 0, 1)]
    cases += [((0,) * cap, 0), ((0,) * (cap + 1), 0)]
    raised = []
    for d, size in cases:
        args = d, (0,) * size, 0
        raised.append(_raises_budget(convolve_uniform_check, *args))
        assert raised[-1] == _raises_budget(
            oracles.convolve_uniform_reference, *args), (len(d), size)
    assert raised.count(True) == 5


def test_convolve_far_elements_build_no_wide_mask():
    # one sum, 10^12 away from 0 or at 0: the end checks decide it without
    # a 10^12-bit mask
    assert not convolve_uniform_check((0,), (10 ** 12,), 1)
    assert convolve_uniform_check((-10 ** 12,), (10 ** 12,), 1)
    assert not convolve_uniform_check((0, 10 ** 12), (0,), 2)


def test_report_quarter():
    rep = fuglede_report(_sys((4, 4), (2, 2)), 2)
    assert str(rep.verdict) == "Spectral"
    assert rep.interval == (F(0), F(1, 2))
    assert rep.certificate.length == 8
    assert rep.kolmogorov_distance == F(1, 8)
    assert rep.convolution_uniform
    assert rep.spectrum.elements == (F(0), F(2), F(8), F(10))


def test_report_not_spectral():
    rep = fuglede_report(_sys((2, 3), (2, 2)), 2)
    assert str(rep.verdict) == "NotSpectral(2)"
    assert rep.spectrum is None and rep.complement is None
    assert rep.convolution_uniform is None


def test_report_mixed():
    rep = fuglede_report(_sys((4, 6), (3, 2)), 2)
    assert str(rep.verdict) == "Spectral"
    assert rep.interval == (F(0), F(3, 4))
    assert rep.certificate.length == 18
    assert rep.kolmogorov_distance == F(1, 18)


def test_kolmogorov_gap_matches_cdf_oracle():
    # sup gap between the step CDF of uniform {0..L-1}/B_n and
    # the linear CDF of Lebesgue on [0, N_1/b_1], computed at jump points
    sys_ = _sys((4, 4), (2, 2))
    rep = fuglede_report(sys_, 2)
    big = sys_.level_product(2)
    length = rep.certificate.length
    slope = 1 / rep.interval[1]  # CDF slope of Lebesgue on the interval
    worst = F(0)
    for j in range(length):
        x = F(j, big)
        lower = abs(F(j, length) - x * slope)       # just before the jump
        upper = abs(F(j + 1, length) - x * slope)   # just after
        worst = max(worst, lower, upper)
    assert worst == rep.kolmogorov_distance == F(1, 8)


def test_distance_strictly_decreasing_in_level():
    sys_ = _sys((4, 4, 4, 4), (2, 2, 2, 2))
    dists = [fuglede_report(sys_, n).kolmogorov_distance for n in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] == F(1, 2 * 4 ** 3)


def test_three_way_consistency_sweep():
    # spectral verdict <=> search finds a spectrum <=> convolution uniform
    for b2, n1, n2 in itertools.product(range(2, 6), range(2, 6), range(2, 6)):
        sys_ = _sys((4, b2), (n1, n2))
        rep = fuglede_report(sys_, 2)
        spectral = str(rep.verdict) == "Spectral"
        found = spectrum_search(MeasureWindow(sys_, 1, 2)) is not None
        assert spectral == found, (b2, n1, n2)
        if spectral:
            assert rep.convolution_uniform


def test_complement_factor_is_itself_spectral():
    # when the convolution identity holds, the discrete complement factor
    # admits a spectrum of its own
    for b, n in (((4, 4), (2, 2)), ((6, 6), (3, 3)), ((4, 6), (2, 3))):
        rep = fuglede_report(_sys(b, n), 2)
        assert rep.convolution_uniform
        comp = rep.complement
        assert iterated_digits(comp, 2).direct_sum
        assert spectrum_search(MeasureWindow(comp, 1, 2)) is not None


def test_report_rejects_nonunit_scales():
    scaled = parse_system(
        '{"prefix": {"b": [4, 4], "N": [2, 2], "scale": [2, 1]},'
        ' "tail": {"kind": "none"}}')
    with pytest.raises(ValueError):
        fuglede_report(scaled, 2)
