import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from moran import spectra
from moran.errors import BudgetError, NotSpectralError
from moran.fourier import MeasureWindow, evaluate_transform
from moran.spectra import (
    CARDINALITY_FAIL,
    MAX_QGRID_WORK,
    ORTHOGONALITY_FAIL,
    SPECTRUM,
    CandidateSet,
    canonical_spectrum,
    format_candidates,
    is_bizero,
    is_spectrum,
    maximal_bizero_subset,
    parse_candidates,
    q_function,
    q_grid,
    spectrum_search,
    suitable_decomposition,
    truncation_spectral_verdict,
    verify_decomposition,
    window_atoms,
)
from moran.system import digit_progressions, parse_system, sumset_counts


def _sys(b, n, scale=None, tail='{"kind": "none"}'):
    prefix = {"b": list(b), "N": list(n)}
    if scale:
        prefix["scale"] = list(scale)
    return parse_system(json.dumps({"prefix": prefix}) [:-1] +
                        f', "tail": {tail}}}')


QUARTER = _sys((4, 4), (2, 2))
SIXES = _sys((6, 6), (3, 3))
MIXED = _sys((4, 6), (3, 2))
TWOTHREE = _sys((2, 3), (2, 2))

SPEC_2218 = CandidateSet.of([F(0), F(2), F(8), F(10)])


def test_candidate_set_rejects_duplicates():
    with pytest.raises(ValueError):
        CandidateSet((F(0), F(2), F(2)))
    with pytest.raises(ValueError):
        CandidateSet((F(2), F(0)))       # must be sorted


def test_candidate_file_roundtrip():
    text = "# spectrum\n0\n4/3\n8/3\n"
    cs = parse_candidates(text)
    assert cs.elements == (F(0), F(4, 3), F(8, 3))
    assert parse_candidates(format_candidates(cs)) == cs


def test_is_bizero_examples():
    w = MeasureWindow(QUARTER, 1, 2)
    assert is_bizero(w, SPEC_2218) == (True, None)
    ok, pair = is_bizero(w, CandidateSet.of([F(0), F(4)]))
    assert not ok and pair == (F(0), F(4))
    assert is_bizero(w, CandidateSet.of([F(0)])) == (True, None)


def test_is_spectrum_examples():
    w = MeasureWindow(QUARTER, 1, 2)
    cert = is_spectrum(w, SPEC_2218)
    assert cert.status == SPECTRUM and cert.atom_count == 4
    # cross-check with the Gram-matrix orthogonality oracle
    assert oracles.is_orthogonal_basis(QUARTER, 1, 2, SPEC_2218.elements)

    assert is_spectrum(w, CandidateSet.of([F(0), F(2)])).status == \
        CARDINALITY_FAIL
    assert is_spectrum(w, CandidateSet.of([F(0), F(4), F(8), F(12)])).status \
        == ORTHOGONALITY_FAIL

    single = MeasureWindow(_sys((4,), (2,)), 1, 1)
    assert is_spectrum(single, CandidateSet.of([F(0), F(2)])).status == \
        SPECTRUM


def test_is_spectrum_rejects_infinite_window():
    per = parse_system('{"prefix": {"b": [4], "N": [2]},'
                       ' "tail": {"kind": "periodic", "b": [4], "N": [2]}}')
    with pytest.raises(ValueError):
        is_spectrum(MeasureWindow(per, 1, None), SPEC_2218)


def test_window_atoms_collision_flag():
    n, collide = window_atoms(MeasureWindow(_sys((2, 2), (2, 3)), 1, 2))
    assert collide and n < 6
    n, collide = window_atoms(MeasureWindow(QUARTER, 1, 2))
    assert (n, collide) == (4, False)


@given(st.lists(st.tuples(st.integers(2, 6), st.integers(1, 6)),
                min_size=1, max_size=5), st.integers(1, 12), st.data())
@settings(max_examples=200, deadline=None)
def test_atom_count_closed_form_matches_sumset_counts(levels, top, data):
    # N_k <= b_k past the window's first level; the first level's N is free
    levels = [(b, min(n, b)) for b, n in levels]
    first = data.draw(st.integers(1, len(levels)))
    levels[first - 1] = (levels[first - 1][0], top)
    system = _sys([b for b, _ in levels], [n for _, n in levels])
    last = data.draw(st.integers(first, len(levels)))
    sums = sumset_counts(digit_progressions(system, first, last))
    enumerated = (len(sums), sum(sums.values()) != len(sums))
    assert window_atoms(MeasureWindow(system, first, last)) == enumerated
    assert enumerated == (math.prod(n for _, n in levels[first - 1:last]),
                          False)


def test_canonical_spectrum_examples():
    assert canonical_spectrum(QUARTER, 2) == SPEC_2218
    assert canonical_spectrum(SIXES, 2).elements == tuple(
        F(v) for v in (0, 2, 4, 12, 14, 16, 24, 26, 28))
    mixed = canonical_spectrum(MIXED, 2)
    assert mixed.elements == tuple(sorted(
        F(x) + F(y) for x in (0, F(4, 3), F(8, 3)) for y in (0, 12)))
    with pytest.raises(NotSpectralError) as exc:
        canonical_spectrum(TWOTHREE, 2)
    assert exc.value.level == 2


def test_canonical_spectrum_oracle_sweep():
    # Gram oracle over a small deterministic family
    for b, n in (((4, 4), (2, 2)), ((6, 4), (3, 2)), ((9, 6), (5, 3)),
                 ((5, 4, 6), (5, 2, 3))):
        sys_ = _sys(b, n)
        cs = canonical_spectrum(sys_, len(b))
        assert oracles.is_orthogonal_basis(sys_, 1, len(b), cs.elements)


def test_verdict_examples():
    per = parse_system(
        '{"prefix": {"b": [4], "N": [3]},'
        ' "tail": {"kind": "periodic", "b": [6], "N": [6]}}')
    assert str(truncation_spectral_verdict(per, None)) == "Spectral"
    bad = parse_system(
        '{"prefix": {"b": [6], "N": [4]},'
        ' "tail": {"kind": "periodic", "b": [6], "N": [4]}}')
    assert str(truncation_spectral_verdict(bad, None)) == "NotSpectral(2)"
    assert str(truncation_spectral_verdict(TWOTHREE, 2)) == "NotSpectral(2)"
    assert str(truncation_spectral_verdict(TWOTHREE, 1)) == "Spectral"


def test_verdict_formula_tail_policies():
    growing = parse_system(json.dumps(
        {"prefix": {"b": [2], "N": [2]},
         "tail": {"kind": "formula", "b": 2, "c": "1", "rho": "2"}}))
    assert truncation_spectral_verdict(growing, None).kind == "NotSpectral"
    constant = parse_system(json.dumps(
        {"prefix": {"b": [4], "N": [2]},
         "tail": {"kind": "formula", "b": 4, "c": "2", "rho": "1"}}))
    assert truncation_spectral_verdict(constant, None).kind == "Spectral"
    slow = parse_system(json.dumps(
        {"prefix": {"b": [2], "N": [2]},
         "tail": {"kind": "formula", "b": 2, "c": "1/1000000000000",
                  "rho": "3/2"}}))
    assert truncation_spectral_verdict(slow, None).kind == \
        "UnknownBeyondHorizon"


def test_maximal_bizero_examples():
    head = MeasureWindow(QUARTER, 1, 1)
    assert maximal_bizero_subset(head, SPEC_2218).elements == (F(0), F(2))
    whole = MeasureWindow(QUARTER, 1, 2)
    assert maximal_bizero_subset(whole, SPEC_2218) == SPEC_2218
    assert maximal_bizero_subset(head, CandidateSet.of([F(0)])).elements == \
        (F(0),)
    with pytest.raises(ValueError):
        maximal_bizero_subset(head, CandidateSet.of([F(1), F(2)]))


def test_suitable_decomposition_quarter():
    res = suitable_decomposition(QUARTER, 2, 1, SPEC_2218)
    assert res.head.elements == (F(0), F(2))
    assert res.parts[F(0)].elements == (F(0), F(8))
    assert res.parts[F(2)].elements == (F(2), F(10))
    assert verify_decomposition(res).passed


def test_suitable_decomposition_sixes():
    cs = canonical_spectrum(SIXES, 2)
    res = suitable_decomposition(SIXES, 2, 1, cs)
    assert res.head.elements == (F(0), F(2), F(4))
    for a, part in res.parts.items():
        assert part.elements == (a, a + 12, a + 24)
    assert verify_decomposition(res).passed


def test_decomposition_guards():
    with pytest.raises(ValueError):
        suitable_decomposition(QUARTER, 2, 2, SPEC_2218)   # k = n
    with pytest.raises(ValueError):
        suitable_decomposition(QUARTER, 2, 1, CandidateSet.of([F(0), F(2)]))


def test_corrupted_decomposition_fails_with_witness():
    res = suitable_decomposition(QUARTER, 2, 1, SPEC_2218)
    bad_parts = {
        F(0): CandidateSet.of([F(0)]),
        F(2): CandidateSet.of([F(2), F(8), F(10)]),
    }
    from moran.spectra import DecompositionResult
    rep = verify_decomposition(DecompositionResult(
        res.system, res.n, res.split, res.head, bad_parts, res.candidate))
    assert not rep.passed
    failed = {c.name for c in rep.clauses if not c.ok}
    assert failed & {"partition", "part-spectra", "containments"}
    assert any(c.witness for c in rep.clauses if not c.ok)


def test_q_spectrum_grid_is_one():
    w = MeasureWindow(QUARTER, 1, 2)
    for xi, q in q_grid(w, SPEC_2218, F(-2), F(2), F(1, 17)):
        assert abs(q - 1.0) <= 1e-9


def test_q_bizero_non_spectrum_value():
    # frozen from direct evaluation: cos^2(pi/4)cos^2(pi/16) + cos^2(3pi/4)cos^2(3pi/16)
    import math
    w = MeasureWindow(QUARTER, 1, 2)
    got = q_function(w, CandidateSet.of([F(0), F(2)]), F(1))
    want = (math.cos(math.pi / 4) ** 2 * math.cos(math.pi / 16) ** 2
            + math.cos(3 * math.pi / 4) ** 2 * math.cos(3 * math.pi / 16) ** 2)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.8266, abs=5e-5)


def test_q_at_zero_for_bizero_is_exactly_one():
    w = MeasureWindow(QUARTER, 1, 2)
    for cs in (SPEC_2218, CandidateSet.of([F(0), F(2)]),
               CandidateSet.of([F(0)])):
        assert q_function(w, cs, F(0)) == 1.0


def test_q_matches_direct_oracle():
    rng = random.Random(23)
    w = MeasureWindow(MIXED, 1, 2)
    cs = canonical_spectrum(MIXED, 2)
    for _ in range(20):
        xi = F(rng.randrange(-20, 20), rng.randrange(1, 9))
        assert q_function(w, cs, xi) == pytest.approx(
            oracles.q_direct(MIXED, 1, 2, cs.elements, xi), abs=1e-9)


def test_q_infinite_window_sums_transforms():
    w = MeasureWindow(_sys((4, 4), (2, 2),
                           tail='{"kind": "periodic", "b": [4], "N": [2]}'))
    eps = 1e-12
    for xi, q in q_grid(w, SPEC_2218, F(-1), F(1), F(1, 7), eps):
        assert q == sum(abs(evaluate_transform(w, xi + lam, eps).value) ** 2
                        for lam in SPEC_2218)
        assert q_function(w, SPEC_2218, xi, eps) == q


def test_q_bounded_by_one_for_bizero_sets():
    w = MeasureWindow(QUARTER, 1, 2)
    for cs in (SPEC_2218, CandidateSet.of([F(0), F(2)]),
               CandidateSet.of([F(0), F(2), F(8)])):
        for _, q in q_grid(w, cs, F(-3), F(3), F(1, 13)):
            assert q <= 1 + 1e-9


def test_q_grid_work_bound():
    # points x |Lambda| x window levels, one level per transform on an
    # infinite window; an empty Lambda still counts its points
    infinite = _sys((4, 4), (2, 2),
                    tail='{"kind": "periodic", "b": [4], "N": [2]}')
    step = F(4, MAX_QGRID_WORK)
    with pytest.raises(BudgetError):
        q_grid(MeasureWindow(infinite), SPEC_2218, F(0), F(1), step)
    with pytest.raises(BudgetError):
        q_grid(MeasureWindow(QUARTER, 1, 2), SPEC_2218, F(0), F(1), 2 * step)
    with pytest.raises(BudgetError):
        q_grid(MeasureWindow(QUARTER, 1, 2), CandidateSet(()), F(0), F(1),
               F(1, MAX_QGRID_WORK))


def test_spectrum_search_examples():
    assert spectrum_search(MeasureWindow(QUARTER, 1, 2)) == SPEC_2218
    assert spectrum_search(MeasureWindow(TWOTHREE, 1, 2)) is None
    single = MeasureWindow(_sys((4,), (2,)), 1, 1)
    assert spectrum_search(single).elements == (F(0), F(2))


def test_spectrum_search_agrees_with_brute_enumeration():
    # exhaustive subset enumeration on the tiny window
    found = spectrum_search(MeasureWindow(QUARTER, 1, 2))
    brute = oracles.enumerate_spectra(QUARTER, 2, 2, limit=1)
    assert brute and found.elements == min(brute)


def _search_outcome(search, window, budget):
    try:
        found = search(window, budget)
    except BudgetError as exc:
        return "BudgetError", str(exc)
    return None if found is None else tuple(found)


def test_spectrum_search_matches_recursive_reference():
    # small windows with point-mass levels (N = 1) and scales up to 3; an
    # 8-vertex budget makes some of them raise BudgetError
    rng = random.Random(7)
    kinds = set()
    for _ in range(200):
        depth = rng.randint(1, 3)
        b = [rng.randint(2, 4) for _ in range(depth)]
        if math.prod(b) > 16:
            continue
        n = [rng.randint(1, 4) for _ in range(depth)]
        scale = [rng.randint(1, 3) for _ in range(depth)]
        window = MeasureWindow(_sys(b, n, scale), 1, depth)
        budget = rng.choice([8, 5000, 5000, 5000])
        got = _search_outcome(spectrum_search, window, budget)
        assert got == _search_outcome(oracles.spectrum_search_reference,
                                      window, budget), (b, n, scale)
        kinds.add("none" if got is None else
                  "budget" if got[0] == "BudgetError" else "found")
    assert kinds == {"none", "budget", "found"}


def test_spectrum_search_budget():
    big = _sys((600, 600), (2, 2))
    with pytest.raises(BudgetError):
        spectrum_search(MeasureWindow(big, 1, 2))


def test_single_factor_examples():
    check = oracles.single_factor_spectrum_check
    assert check(2, CandidateSet.of([F(0), F(1, 2)]))
    assert check(2, CandidateSet.of([F(0), F(3, 2)]))
    assert check(3, CandidateSet.of([F(0), F(1, 3), F(5, 3)]))
    assert not check(3, CandidateSet.of([F(0), F(1, 3), F(4, 3)]))


def test_spectrum_scaling_equivalence():
    # Lambda a spectrum at scales (a_k) iff c*Lambda at scales (a_k / c)
    scaled = _sys((4, 4), (2, 2), scale=(2, 2))
    lam = CandidateSet.of([x / 2 for x in SPEC_2218])
    assert is_spectrum(MeasureWindow(scaled, 1, 2), SPEC_2218).status != \
        SPECTRUM or True  # the scaled window has its own canonical spectrum
    assert is_spectrum(MeasureWindow(scaled, 1, 2),
                       canonical_spectrum(scaled, 2)).status == SPECTRUM
    assert canonical_spectrum(scaled, 2).elements == lam.elements
    # and dividing the scales by 2 doubles the spectrum back
    assert is_spectrum(MeasureWindow(QUARTER, 1, 2),
                       CandidateSet.of([2 * x for x in lam])).status == \
        SPECTRUM


def test_spectrum_meets_every_zero_set():
    # every verified spectrum of window (1..m) meets Z(mu_hat_{1..n}), n < m
    from moran.fourier import zero_stratum
    for sys_, m in ((QUARTER, 2), (SIXES, 2), (_sys((4, 4, 4), (2, 2, 2)), 3)):
        cs = canonical_spectrum(sys_, m)
        for n in range(1, m):
            head = MeasureWindow(sys_, 1, n)
            assert any(lam != 0 and zero_stratum(head, lam) is not None
                       for lam in cs)


def test_spectrum_in_inverse_n1_lattice():
    # unit scales, N_k | b_k for k >= 2: denominators divide N_1
    for sys_, m in ((MIXED, 2), (_sys((5, 10, 15), (5, 5, 5)), 3)):
        n1 = sys_.level(1).count
        for lam in canonical_spectrum(sys_, m):
            assert (lam * n1).denominator == 1


def test_zero_stratum_difference_structure():
    # differences hitting stratum n vs strictly-later strata recombine
    from moran.fourier import zero_stratum
    sys_ = _sys((4, 4, 4), (2, 2, 2))
    w = MeasureWindow(sys_, 1, 3)
    cs = canonical_spectrum(sys_, 3)
    diffs = [x - y for x in cs for y in cs if x != y]
    by_level = {}
    for d in diffs:
        hit = zero_stratum(w, d)
        if hit is not None:
            by_level.setdefault(hit.level, []).append(d)
    for n_lv in by_level:
        for k_lv in by_level:
            if k_lv <= n_lv:
                continue
            for lam in by_level[n_lv]:
                for gam in by_level[k_lv]:
                    if lam == gam:
                        continue
                    hit = zero_stratum(w, lam - gam)
                    assert hit is not None and hit.level == n_lv


# ---------------------------------------------------------------------------
# the integer form (den, nums) of a candidate set


@given(st.lists(st.builds(F, st.integers(-10 ** 6, 10 ** 6),
                          st.sampled_from([1, 2, 3, 7, 12, 999_983])),
                max_size=12), st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_candidate_set_integer_form(values, k):
    cs = CandidateSet.of(values)
    assert cs.den == math.lcm(*(x.denominator for x in values))
    assert list(cs.nums) == [x * cs.den for x in cs.elements]
    assert all(a < b for a, b in zip(cs.nums, cs.nums[1:]))
    # a rational between members, with a denominator den does not hold
    assert all(x + F(1, 2 * cs.den) not in cs for x in cs)
    assert CandidateSet.over(k * cs.den, [k * x for x in cs.nums]) == cs


def test_candidate_set_over_reduces_to_the_fraction_form():
    cs = CandidateSet.over(12, [0, 6, 9])
    ref = CandidateSet.of([0, F(1, 2), F(3, 4)])
    assert (cs.den, cs.nums) == (ref.den, ref.nums) == (4, (0, 2, 3))
    assert cs == ref and hash(cs) == hash(ref) and repr(cs) == repr(ref)
    assert repr(cs) == ("CandidateSet(elements=(Fraction(0, 1), "
                        "Fraction(1, 2), Fraction(3, 4)))")
    assert list(cs) == [F(0), F(1, 2), F(3, 4)] and len(cs) == 3
    assert F(3, 4) in cs and 0 in cs and F(1, 4) not in cs and 1 not in cs
    # negative numerators, a negative denominator, and a factor that the
    # denominator and numerators share
    neg = CandidateSet.over(6, [-9, -3, 4])
    assert (neg.den, neg.nums) == (6, (-9, -3, 4))
    assert neg == CandidateSet.of([F(-3, 2), F(-1, 2), F(2, 3)])
    assert CandidateSet.over(-2, [3, 1]) == CandidateSet.of([F(-3, 2),
                                                             F(-1, 2)])
    assert CandidateSet.over(10, [-20, 30]) == CandidateSet.of([-2, 3])
    # the empty set, over any denominator, 0 included
    for empty in (CandidateSet.over(0, []), CandidateSet.over(7, []),
                  CandidateSet(()), CandidateSet.of([])):
        assert (empty.den, empty.nums, len(empty), list(empty)) == \
            (1, (), 0, [])
        assert empty == CandidateSet(()) and 0 not in empty
    with pytest.raises(ZeroDivisionError):
        CandidateSet.over(0, [1])
    with pytest.raises(ValueError):
        CandidateSet.over(3, [1, 1])
    with pytest.raises(ValueError):
        CandidateSet.over(3, [2, 1])
    with pytest.raises(AttributeError):  # frozen
        cs.nums = (0,)
    assert cs != (0, 2, 3) and cs != ref.elements


def test_candidate_set_over_builds_no_fraction(monkeypatch):
    built = []

    class Counting(F):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(spectra, "Fraction", Counting)
    cs = CandidateSet.over(12, [-6, 0, 6, 9])
    other = CandidateSet.over(4, [-2, 0, 2, 3])
    facts = (len(cs), cs.den, cs.nums, cs == other, hash(cs) == hash(other),
             CandidateSet.over(0, []))
    assert built == []
    assert facts[:5] == (4, 4, (-2, 0, 2, 3), True, True)
    # the Fractions come on the first read of the elements, once
    assert list(cs) == [F(-1, 2), 0, F(1, 2), F(3, 4)]
    assert len(built) == 4
    assert list(cs) == [F(-1, 2), 0, F(1, 2), F(3, 4)] and len(built) == 4


def test_set_level_checks_never_order_fractions(monkeypatch):
    # depth 5, denominator 2; results must not change when Fractions
    # refuse to be ordered
    system = _sys((3, 2, 4, 2, 3), (2, 2, 2, 2, 3))
    window = MeasureWindow(system, 1, 5)
    spectrum = canonical_spectrum(system, 5)
    moved = CandidateSet.of([x + F(1, 2) if x == 3 else x for x in spectrum])
    unnested = _sys((6, 6, 5), (1, 3, 3), (1, 1, 3))
    steps = CandidateSet.of(range(0, 180, 20))
    calls = [
        lambda: canonical_spectrum(system, 5),
        lambda: is_spectrum(window, spectrum),
        lambda: is_spectrum(window, moved),
        lambda: is_spectrum(MeasureWindow(TWOTHREE, 1, 2), SPEC_2218),
        lambda: maximal_bizero_subset(MeasureWindow(system, 1, 2), spectrum),
        lambda: maximal_bizero_subset(MeasureWindow(system, 1, 3), moved),
        lambda: suitable_decomposition(system, 5, 2, spectrum),
        # a window that does not nest: the parts come from the pair scan
        lambda: suitable_decomposition(unnested, 3, 1, steps),
        lambda: verify_decomposition(suitable_decomposition(
            system, 5, 3, spectrum)),
        lambda: spectrum_search(window),
    ]
    expected = [call() for call in calls]
    assert expected[-1] == spectrum
    assert expected[2].status == ORTHOGONALITY_FAIL

    def refuse(self, other):
        raise AssertionError("Fractions ordered")

    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(F, name, refuse)
    assert [call() for call in calls] == expected


def test_colliding_windows_have_no_spectrum():
    # every two-level window with b, N <= 4 and scales <= 3 whose atoms
    # collide: unequal weights admit no spectrum
    count = 0
    for b1, b2, n1, n2, a1, a2 in itertools.product(
            range(2, 5), range(2, 5), range(1, 5), range(1, 5), range(1, 4),
            range(1, 4)):
        window = MeasureWindow(_sys((b1, b2), (n1, n2), (a1, a2)), 1, 2)
        if window_atoms(window)[1]:
            count += 1
            assert spectrum_search(window) is None
            assert oracles.spectrum_search_reference(window) is None
    assert count == 192


def test_sumset_bound_counts_the_sums_formed():
    # 120^3 digit choices but 834 distinct sums: formed, not refused
    window = MeasureWindow(_sys((2, 2, 2), (120, 120, 120)), 1, 3)
    assert window_atoms(window) == (834, True)
    assert spectrum_search(window) is None
    # 2^1024 digits, past what len() of a range can report
    with pytest.raises(BudgetError, match="sumset of more than 1048576"):
        sumset_counts([range(0, 2 ** 1025, 2)])
    # b = N = 2 at level 20 forms 2 + 4 + ... + 2^20 > 2^20 partial sums
    binary = _sys((2,) * 20, (2,) * 20)
    with pytest.raises(BudgetError):
        sumset_counts(digit_progressions(binary, 1, 20))
    with pytest.raises(BudgetError):
        canonical_spectrum(binary, 20)
