"""The set-level checks on the integer zero-set predicate against the
Fraction-based references in oracles.py, with exact equality: the same
verdicts, the same first violating pair, the same heads and parts, and the
same clause witnesses, byte for byte.
"""

import json
import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import oracles
from moran.fourier import MeasureWindow, zero_set, zero_stratum
from moran.spectra import (CandidateSet, DecompositionResult, is_bizero,
                           maximal_bizero_subset, suitable_decomposition,
                           verify_decomposition)
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
