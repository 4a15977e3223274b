"""The set-level checks on the integer zero-set predicate against the
Fraction-based references in oracles.py, with exact equality: the same
verdicts, the same first violating pair, the same heads and parts, and the
same clause witnesses, byte for byte.
"""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from moran import spectra
from moran.errors import InvariantError
from moran.fourier import MeasureWindow, zero_set, zero_stratum
from moran.spectra import (CandidateSet, DecompositionResult, is_bizero,
                           is_spectrum, maximal_bizero_subset,
                           suitable_decomposition, verify_decomposition)
from moran.system import parse_system


def _system(levels, tail=None):
    doc = {"prefix": {"b": [b for b, _, _ in levels],
                      "N": [n for _, n, _ in levels],
                      "scale": [a for _, _, a in levels]},
           "tail": {"kind": "none"} if tail is None else
           {"kind": "periodic", "b": [b for b, _, _ in tail],
            "N": [n for _, n, _ in tail], "scale": [a for _, _, a in tail]}}
    return parse_system(json.dumps(doc))


def _level(base=st.integers(2, 8), count=st.integers(1, 4),
           scale=st.sampled_from([1, 1, 2, 3, 5])):
    return st.tuples(base, count, scale)


@st.composite
def windows(draw):
    """Finite and infinite windows of scaled systems."""
    prefix = draw(st.lists(_level(), min_size=1, max_size=4))
    if draw(st.booleans()):
        tail = draw(st.lists(_level(count=st.integers(2, 4)), min_size=1,
                             max_size=2))
        system = _system(prefix, tail)
        first = draw(st.integers(1, len(prefix) + 1))
        last = draw(st.one_of(st.none(), st.integers(first, first + 3)))
    else:
        system = _system(prefix)
        first = draw(st.integers(1, len(prefix)))
        last = draw(st.integers(first, len(prefix)))
    return MeasureWindow(system, first, last)


def _stratum_points(draw, window, den, count):
    """Integers d with d/den on or near some zero stratum of the window."""
    system = window.system
    top = window.last or window.first + 3
    out = []
    for _ in range(count):
        k = draw(st.integers(window.first, top))
        lev = system.level(k)
        m = draw(st.integers(-3 * lev.count, 3 * lev.count))
        num = m * system.level_product(k) * den
        if num % (lev.scale * lev.count) == 0:
            out.append(num // (lev.scale * lev.count))
    return out


@given(windows(), st.sampled_from([1, 2, 3, 6, 7, 60]), st.data())
@settings(max_examples=200, deadline=None)
def test_zero_set_matches_zero_stratum(window, extra, data):
    system = window.system
    top = window.last or window.first + 3
    den = extra * math.lcm(*(system.level(k).scale * system.level(k).count
                             for k in range(window.first, top + 1)))
    ds = _stratum_points(data.draw, window, den, 12)
    ds += data.draw(st.lists(st.integers(-10 ** 7, 10 ** 7), max_size=12))
    in_zero_set = zero_set(window, den)
    for d in ds + [-d for d in ds] + ds:
        expected = d != 0 and zero_stratum(window, F(d, den)) is not None
        assert in_zero_set(d) == expected


@st.composite
def candidate_sets(draw, window):
    """Mixed-denominator sets: stratum-aligned sums (often bi-zero), shifted
    by periods of either sign, plus arbitrary rationals."""
    system, last = window.system, window.last
    elems = {F(0)}
    for _ in range(draw(st.integers(0, 10))):
        x = F(0)
        for k in range(window.first, last + 1):
            lev = system.level(k)
            x += F(draw(st.integers(0, lev.count - 1))
                   * system.level_product(k), lev.scale * lev.count)
        elems.add(x + draw(st.integers(-2, 2)) * system.level_product(last))
    for _ in range(draw(st.integers(0, 3))):
        elems.add(F(draw(st.integers(-60, 60)),
                    draw(st.sampled_from([1, 2, 3, 4, 6, 12]))))
    return CandidateSet.of(elems)


@st.composite
def finite_windows_with_sets(draw):
    levels = draw(st.lists(_level(count=st.integers(1, 3)), min_size=1,
                           max_size=3))
    system = _system(levels)
    first = draw(st.integers(1, len(levels)))
    window = MeasureWindow(system, first, draw(st.integers(first,
                                                           len(levels))))
    return window, draw(candidate_sets(window))


@given(finite_windows_with_sets())
@settings(max_examples=200, deadline=None)
def test_is_bizero_matches_reference(args):
    window, cs = args
    assert is_bizero(window, cs) == \
        oracles.is_bizero_reference(window, cs.elements)


@given(finite_windows_with_sets())
@settings(max_examples=200, deadline=None)
def test_maximal_bizero_subset_matches_reference(args):
    window, cs = args
    assert maximal_bizero_subset(window, cs).elements == \
        oracles.maximal_bizero_subset_reference(window, cs.elements)


@st.composite
def spectral_splits(draw):
    """(system, n, k, spectrum): N_j | b_j for j >= 2, a scaled first
    level, and the canonical spectrum with each nonzero element moved by a
    period B_n of either sign (still a spectrum)."""
    n = draw(st.integers(2, 3))
    first = draw(_level(count=st.integers(1, 3)))
    rest = []
    for _ in range(n - 1):
        count = draw(st.integers(1, 3))
        rest.append((count * draw(st.integers(1 if count > 1 else 2, 3)),
                     count, 1))
    system = _system([first] + rest)
    elems = [F(0)]
    for big, lev in system.levels(1, n):
        step = F(big, lev.scale * lev.count)
        elems = [e + d * step for e in elems for d in range(lev.count)]
    period = system.level_product(n)
    spectrum = CandidateSet.of(
        x + (draw(st.integers(-2, 2)) * period if x else 0) for x in elems)
    return system, n, draw(st.integers(1, n - 1)), spectrum


def _clauses(report):
    return [(c.name, c.ok, c.witness) for c in report.clauses]


def _reference_report(result):
    nu = MeasureWindow(result.system, 1, result.split)
    omega = MeasureWindow(result.system, result.split + 1, result.n)
    return oracles.verify_decomposition_reference(
        nu, omega, result.head.elements,
        {a: s.elements for a, s in result.parts.items()},
        result.candidate.elements)


@given(spectral_splits())
@settings(max_examples=60, deadline=None)
def test_suitable_decomposition_matches_reference(args):
    system, n, k, spectrum = args
    result = suitable_decomposition(system, n, k, spectrum)
    nu, omega = MeasureWindow(system, 1, k), MeasureWindow(system, k + 1, n)
    head = oracles.maximal_bizero_subset_reference(nu, spectrum.elements)
    assert result.head.elements == head
    assert {a: s.elements for a, s in result.parts.items()} == \
        oracles.decomposition_parts_reference(nu, omega, head,
                                              spectrum.elements)
    assert _clauses(verify_decomposition(result)) == _reference_report(result)


@given(spectral_splits(), st.data())
@settings(max_examples=60, deadline=None)
def test_verify_decomposition_matches_reference_on_hand_built_results(
        args, data):
    system, n, k, spectrum = args
    result = suitable_decomposition(system, n, k, spectrum)
    head = result.head.elements
    # parts re-drawn at random: clauses fail, with witnesses to compare
    assignment = {a: [a] for a in head}
    for x in spectrum:
        if x not in assignment:
            assignment[data.draw(st.sampled_from(head))].append(x)
    redrawn = {a: CandidateSet.of(v) for a, v in assignment.items()}
    # one part gains an element whose denominator the candidate lacks
    alpha = data.draw(st.sampled_from(head))
    part = result.parts[alpha].elements
    foreign = data.draw(st.sampled_from(part)) + F(
        data.draw(st.sampled_from([-2, -1, 1, 2])),
        data.draw(st.sampled_from([7, 11, 13])))
    widened = {**result.parts, alpha: CandidateSet.of(part + (foreign,))}
    # one part cut in two: within-part differences still hold, the
    # differences across the cut are outside Z(nu)
    rest = [x for x in part if x != alpha]
    cut = data.draw(st.integers(0, len(rest) - 1)) if rest else 0
    split = {**result.parts, alpha: CandidateSet.of([alpha] + rest[:cut])}
    if rest:
        split[rest[cut]] = CandidateSet.of(rest[cut:])
    for parts in (redrawn, widened, split):
        built = DecompositionResult(system, n, k, result.head, parts,
                                    spectrum)
        assert _clauses(verify_decomposition(built)) == \
            _reference_report(built)


@given(spectral_splits(), st.data())
@settings(max_examples=60, deadline=None)
def test_verify_decomposition_puts_mixed_denominators_over_one(args, data):
    # head, parts, their keys and the candidate drawn with their own
    # denominators: one clause list, witnesses included, as the reference
    system, n, k, _ = args
    rationals = st.builds(F, st.integers(-40, 40),
                          st.sampled_from([1, 2, 3, 5, 7, 12]))
    sets = st.lists(rationals, max_size=5).map(CandidateSet.of)
    built = DecompositionResult(
        system, n, k, data.draw(sets),
        data.draw(st.dictionaries(rationals, sets, max_size=4)),
        data.draw(sets))
    assert _clauses(verify_decomposition(built)) == _reference_report(built)


def test_verify_decomposition_example_with_three_denominators():
    head = CandidateSet.of([0, F(2, 3)])
    parts = {F(0): CandidateSet.of([0, F(8, 5)]),
             F(2, 3): CandidateSet.of([F(2, 3), F(10, 7)])}
    built = DecompositionResult(QUARTER, 2, 1, head, parts, CandidateSet.of(
        [0, F(2, 3), F(8, 5), F(10, 7)]))
    clauses = _clauses(verify_decomposition(built))
    assert clauses == _reference_report(built)
    assert clauses[-1] == ("containments", False, "within Lambda[0]: -8/5")
    # the part's 1/2 is not in the candidate {0, 1}, whose den is 1
    built = DecompositionResult(QUARTER, 2, 1, CandidateSet.of([0]),
                                {F(0): CandidateSet.of([0, F(1, 2)])},
                                CandidateSet.of([0, 1]))
    clauses = _clauses(verify_decomposition(built))
    assert clauses == _reference_report(built)
    assert clauses[0] == ("partition", False,
                          "parts do not partition the spectrum")
    # keys in descending order whose denominators no part or candidate has:
    # the witnesses still follow the keys' order
    built = DecompositionResult(QUARTER, 2, 1, CandidateSet.of([0]),
                                {F(2, 5): CandidateSet.of([0]),
                                 F(1, 3): CandidateSet.of([1])},
                                CandidateSet.of([0, 1]))
    clauses = _clauses(verify_decomposition(built))
    assert clauses == _reference_report(built)
    assert clauses[2] == ("part-spectra", False,
                          "Lambda[1/3]: CardinalityFail")


# ---------------------------------------------------------------------------
# nested windows: the spectral_splits systems nest (h_k | g_{k+1}), so the
# checks below run the class refinement first and the pair scans only to
# name what failed


@given(spectral_splits(), st.data())
@settings(max_examples=100, deadline=None)
def test_nested_checks_match_reference_with_one_element_moved(args, data):
    system, n, k, spectrum = args
    result = suitable_decomposition(system, n, k, spectrum)
    nu, omega = MeasureWindow(system, 1, k), MeasureWindow(system, k + 1, n)
    # move one element by a level step, a period fraction or any rational
    old = data.draw(st.sampled_from(spectrum.elements))
    j = data.draw(st.integers(1, n))
    lev = system.level(j)
    new = old + data.draw(st.sampled_from([
        F(system.level_product(j), lev.scale * lev.count),
        F(system.level_product(n), data.draw(st.integers(2, 5))),
        F(data.draw(st.integers(-7, 7)), data.draw(st.integers(1, 9)))]))
    moved = CandidateSet.of([new if x == old else x for x in spectrum])
    window = MeasureWindow(system, 1, n)
    assert is_bizero(window, moved) == \
        oracles.is_bizero_reference(window, moved.elements)
    if F(0) in moved:
        assert maximal_bizero_subset(nu, moved).elements == \
            oracles.maximal_bizero_subset_reference(nu, moved.elements)
    # the same move inside a decomposition: candidate, head and part
    swap = lambda s: CandidateSet.of([new if x == old else x for x in s])
    parts = {(new if a == old else a): swap(s)
             for a, s in result.parts.items()}
    built = DecompositionResult(system, n, k, swap(result.head), parts,
                                moved)
    assert _clauses(verify_decomposition(built)) == _reference_report(built)


QUARTER = _system([(4, 2, 1), (4, 2, 1)])  # canonical spectrum {0, 2, 8, 10}


@pytest.mark.parametrize("parts, witness", [
    # a part spans two classes mod h_1 = 4
    ({0: [0, 8, 10], 2: [2]}, "within Lambda[0]: -10"),
    # two parts share the class 0 mod 4
    ({0: [0], 8: [8], 2: [2, 10]}, "across parts: 0 - 8"),
])
def test_containments_when_parts_break_the_classes(parts, witness):
    head = CandidateSet.of([0, 2])
    built = DecompositionResult(
        QUARTER, 2, 1, head, {F(a): CandidateSet.of(v)
                              for a, v in parts.items()},
        CandidateSet.of([0, 2, 8, 10]))
    clauses = _clauses(verify_decomposition(built))
    assert clauses == _reference_report(built)
    assert clauses[-1] == ("containments", False, witness)


def _count_zero_set_calls(monkeypatch):
    calls = []

    def counting_zero_set(window, den):
        in_zero_set = zero_set(window, den)

        def predicate(d):
            calls.append(d)
            return in_zero_set(d)
        return predicate

    monkeypatch.setattr(spectra, "zero_set", counting_zero_set)
    return calls


@given(spectral_splits())
@settings(max_examples=30, deadline=None)
def test_passing_nested_checks_make_no_pairwise_calls(args):
    system, n, k, spectrum = args
    result = suitable_decomposition(system, n, k, spectrum)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_zero_set_calls(monkeypatch)
        assert is_spectrum(MeasureWindow(system, 1, n),
                           spectrum).status == "Spectrum"
        assert verify_decomposition(result).passed
        assert calls == []


def test_class_counts_do_not_decide_windows_that_do_not_nest():
    # in each window some h_k does not divide g_{k+1}; the class counts
    # agree level by level although the set is not bi-zero, the maximal
    # bi-zero subset keeps two elements of one class mod the last h, and
    # the pair scan's parts are not the classes mod h_k
    window = MeasureWindow(_system([(6, 3, 1), (6, 3, 3), (7, 2, 1)]), 1, 3)
    cs = CandidateSet.of([-246, 0, 130])
    assert is_bizero(window, cs) == \
        oracles.is_bizero_reference(window, cs.elements) == \
        (False, (F(-246), F(0)))
    window = MeasureWindow(_system([(6, 3, 2), (4, 4, 1), (3, 3, 2)]), 2, 3)
    cs = CandidateSet.of([0, 18, 24, 78, 114])
    assert maximal_bizero_subset(window, cs) == cs
    assert oracles.maximal_bizero_subset_reference(window, cs.elements) == \
        cs.elements
    system = _system([(6, 1, 1), (6, 3, 1), (5, 3, 3)])
    spectrum = CandidateSet.of(range(0, 180, 20))
    result = suitable_decomposition(system, 3, 1, spectrum)
    assert result.parts == {F(0): spectrum}
    assert _clauses(verify_decomposition(result)) == _reference_report(result)
    with pytest.raises(InvariantError, match="not a partition"):
        suitable_decomposition(system, 3, 2, spectrum)


def test_windows_that_do_not_nest_scan_pairs(monkeypatch):
    calls = _count_zero_set_calls(monkeypatch)
    # N_2 = 3 does not divide b_2 = 4; over den = 3, h_1 = 6 does not
    # divide g_2 = 8, and 8/3 lies in level 2's stratum
    system = _system([(2, 2, 1), (4, 3, 1)])
    assert is_bizero(MeasureWindow(system, 1, 2),
                     CandidateSet.of([0, F(8, 3)])) == (True, None)
    assert calls == [8]


def test_part_spectra_on_a_window_that_does_not_nest():
    # omega = levels 2..3 does not nest over den 1, so each part's status
    # comes from the pair scan: one part CardinalityFail (bi-zero, too
    # few), one OrthogonalityFail (1 is outside the zero set); the clause
    # names the first failing part in key order
    system = _system([(6, 1, 1), (6, 3, 1), (5, 3, 3)])
    omega = MeasureWindow(system, 2, 3)
    assert spectra._nested_moduli(omega, 1) is None
    few, apart = CandidateSet.of([0, 20, 40]), CandidateSet.of([0, 1])
    assert is_spectrum(omega, few).status == "CardinalityFail"
    assert is_spectrum(omega, apart).status == "OrthogonalityFail"
    for parts, witness in (
            ({F(0): few, F(1): CandidateSet.of([1, 2])},
             "Lambda[0]: CardinalityFail"),
            ({F(0): apart, F(20): CandidateSet.of([20, 40])},
             "Lambda[0]: OrthogonalityFail")):
        union = CandidateSet.of(x for s in parts.values() for x in s)
        built = DecompositionResult(system, 3, 1, CandidateSet.of(parts),
                                    parts, union)
        clauses = _clauses(verify_decomposition(built))
        assert clauses == _reference_report(built)
        assert clauses[2] == ("part-spectra", False, witness)
