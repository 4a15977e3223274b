import itertools
import json
import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from moran.errors import BudgetError, InvariantError, NotSpectralError
from moran.system import parse_system, serialize_system
from moran.tiling import (
    MAX_MASK_BITS,
    TILE,
    TileVerdict,
    _prime_power_divisors,
    _search_complement,
    _window_refutation,
    canonical_complement,
    is_integer_tile,
    iterated_digits,
    tijdeman_rescale,
)


def _sys(b, n):
    return parse_system(json.dumps(
        {"prefix": {"b": list(b), "N": list(n)}, "tail": {"kind": "none"}}))


def _digits_oracle(b, n, depth):
    # independent enumeration: sum over digit tuples directly
    big = 1
    for base in b[:depth]:
        big *= base
    out = []
    ranges = [range(count) for count in n[:depth]]
    partial = [big]
    for base in b[:depth]:
        partial.append(partial[-1] // base)
    for combo in itertools.product(*ranges):
        out.append(sum(d * partial[k + 1] for k, d in enumerate(combo)))
    return sorted(out)


def test_iterated_digits_examples():
    d = iterated_digits(_sys((4, 4), (2, 2)), 2)
    assert d.elements == (0, 1, 4, 5) and d.direct_sum and d.span == 6
    d = iterated_digits(_sys((2, 3), (2, 2)), 2)
    assert d.elements == (0, 1, 3, 4) and d.direct_sum
    d = iterated_digits(_sys((2, 2), (2, 3)), 2)
    assert d.elements == (0, 1, 2, 2, 3, 4) and not d.direct_sum


def test_iterated_digits_against_oracle():
    for b, n in (((4, 4), (2, 2)), ((5, 6, 4), (3, 2, 4)), ((2, 2), (2, 3))):
        got = iterated_digits(_sys(b, n), len(b))
        assert list(got.elements) == _digits_oracle(b, n, len(b))


def test_direct_sum_when_counts_bounded():
    # base-expansion uniqueness: N_k <= b_k for k >= 2 forces directness
    for b, n in (((4, 4), (2, 4)), ((3, 5, 2), (7, 5, 2)), ((6, 6), (3, 6))):
        assert iterated_digits(_sys(b, n), len(b)).direct_sum


def test_canonical_complement_quarter():
    comp, cert = canonical_complement(_sys((4, 4), (2, 2)), 2)
    assert cert.length == 8 and cert.verified
    c2 = iterated_digits(comp, 2)
    assert c2.elements == (0, 2)
    assert serialize_system(comp) == (
        '{"prefix":{"b":[4,4],"N":[1,2],"scale":[1,2]},'
        '"tail":{"kind":"none"}}')


def test_canonical_complement_sixes():
    comp, cert = canonical_complement(_sys((6, 6), (3, 3)), 2)
    assert cert.length == 18
    assert iterated_digits(comp, 2).elements == (0, 3)
    # exhaustive sum-set oracle
    d = iterated_digits(_sys((6, 6), (3, 3)), 2).elements
    sums = sorted(x + y for x in d for y in (0, 3))
    assert sums == list(range(18))


def test_canonical_complement_rejects_nonspectral():
    with pytest.raises(NotSpectralError) as exc:
        canonical_complement(_sys((2, 3), (2, 2)), 2)
    assert exc.value.level == 2


def test_cyclotomic_small_cases():
    assert oracles.cyclotomic(1) == (-1, 1)
    assert oracles.cyclotomic(2) == (1, 1)
    assert oracles.cyclotomic(6) == (1, -1, 1)
    assert oracles.cyclotomic(8) == (1, 0, 0, 0, 1)
    # Phi_2^2 * Phi_6 = mask of {0,1,3,4}
    prod = oracles.poly_multiply(
        oracles.poly_multiply([1, 1], [1, 1]), [1, -1, 1])
    assert prod == [1, 1, 0, 1, 1]


def test_is_integer_tile_examples():
    v = is_integer_tile((0, 1, 4, 5))
    assert v.kind == "Tile" and v.period == 8 and v.complement == (0, 2)

    v = is_integer_tile((0, 1, 3, 4))
    assert v.kind == "NotTile" and v.certificate == "T1"
    assert v.mask_value == 4 and v.phi_product == 2

    v = is_integer_tile((0, 1, 8, 9))
    assert v.kind == "Tile" and v.period == 16
    assert v.complement == (0, 2, 4, 6)

    v = is_integer_tile((0, 1))
    assert v.kind == "Tile" and v.period == 2 and v.complement == (0,)

    assert is_integer_tile([0]) == TileVerdict(
        TILE, period=1, complement=(0,), mask_value=1, phi_product=1)
    for digits in ([], [1, 2], [-1, 0, 1]):  # a negative digit sorts first
        with pytest.raises(ValueError, match="must contain 0"):
            is_integer_tile(digits)


def test_is_integer_tile_gap_four():
    # {0,4}: Phi_8 divides 1 + x^4 even though 8 > max(D) + 1
    v = is_integer_tile((0, 4))
    assert v.kind == "Tile" and v.period == 8
    assert v.complement == (0, 1, 2, 3)


def test_nottile_beyond_t1():
    # {0,1} + 3{0,1,2}: mask Phi_2 * Phi_9 satisfies T1, yet nothing can
    # cover position 2 without overlap, so it tiles no Z_m at all
    v = is_integer_tile((0, 1, 3, 4, 6, 7))
    assert v.kind == "NotTile" and v.certificate == "window"
    # oracle: every translate through 2 collides on {0,1,3,4,6,7}
    d = (0, 1, 3, 4, 6, 7)
    base = set(d)
    for t in (2 - x for x in d):
        assert base & {t + x for x in d}


def test_deep_window_search_does_not_recurse():
    # {0, 1000}: the covering search over [0, 2002) goes ~1000 translates
    # deep, past the interpreter's recursion limit
    v = is_integer_tile([0, 1000])
    assert v.kind == "Tile" and v.period == 16
    assert v.complement == tuple(range(8))


@given(st.lists(st.integers(1, 14), max_size=4),
       st.sampled_from([1, 2, 3, 5, 10, 50, 200_000]))
@settings(max_examples=300, deadline=None)
def test_window_refutation_matches_recursive_reference(rest, budget):
    # small budgets run out mid-search: a covering found after that still
    # counts, and an exhausted search is never a refutation
    dset = tuple(sorted({0, *rest}))
    width = 2 * (dset[-1] + 1)
    assert _window_refutation(dset, width, budget) == \
        oracles.window_refutation_reference(dset, width, budget)


def test_window_refutation_budget_boundary():
    # T1 holds, but no packing of translates covers [0, 40): the search visits
    # every node of its tree, so a budget of that many nodes refutes and one
    # node fewer is inconclusive, as in the recursive reference
    dset, width = (0, 5, 10, 12, 14, 19), 40
    dmask = sum(1 << d for d in dset)

    def tree_size(bits):
        u = (~bits & (bits + 1)).bit_length() - 1
        translates = ((dmask << u) >> d for d in dset)
        return 1 + sum(tree_size(bits | t) for t in translates if not t & bits)

    nodes = tree_size(dmask)
    assert nodes == 47
    assert is_integer_tile(dset).certificate == "window"
    for budget, refuted in ((nodes, True), (nodes - 1, False)):
        assert _window_refutation(dset, width, budget) is refuted
        assert oracles.window_refutation_reference(dset, width,
                                                   budget) is refuted


def test_prime_power_divisors_examples():
    # 1 + x + x^3 + x^4 = Phi_2^2 Phi_6: Phi_2 once as a prime power
    assert _prime_power_divisors((0, 1, 3, 4)) == {2: 2}
    assert _prime_power_divisors((0, 1, 8, 9)) == {2: 2, 16: 2}
    assert _prime_power_divisors((0, 1, 2, 12, 13, 14, 24, 25, 26)) == \
        {3: 3, 9: 3}
    # far beyond any polynomial: 1 + x^(10^12) = Phi_{2^13} * ...
    assert _prime_power_divisors((0, 10**12)) == {2**13: 2}


@given(st.lists(st.integers(1, 63), max_size=8))
@settings(max_examples=300, deadline=None)
def test_prime_power_divisors_match_polynomial_division(rest):
    dset = tuple(sorted({0, *rest}))
    got = _prime_power_divisors(dset)
    assert list(got) == oracles.prime_power_divisors_reference(dset)
    assert all(p == min(q for q in range(2, s + 1) if s % q == 0)
               for s, p in got.items())


@given(st.lists(st.integers(1, 40), max_size=4), st.integers(1, 48))
@settings(max_examples=200, deadline=None)
def test_search_complement_matches_recursive_reference(rest, m):
    digits = tuple(sorted({d % m for d in (0, *rest)}))
    assert _search_complement(digits, m) == \
        oracles.search_complement_reference(digits, m)


@given(st.lists(st.integers(1, 15), min_size=1, max_size=3),
       st.integers(1, 32))
@settings(max_examples=200, deadline=None)
def test_tiling_periods_are_multiples_of_lcm_s_a(rest, multiple):
    # the period stride: a complement in Z_m forces lcm(S_A) | m
    dset = tuple(sorted({0, *rest}))
    m = len(dset) * multiple
    reduced = tuple(sorted({d % m for d in dset}))
    assume(m <= 64 and len(reduced) == len(dset))
    if oracles.search_complement_reference(reduced, m) is not None:
        assert m % math.lcm(*_prime_power_divisors(dset)) == 0


def test_mask_bound_edges():
    # for h a power of two, 1 + x^h has S_A = {2h}: the longest allowed
    # period still tiles (h translates deep), the next one is refused
    half = MAX_MASK_BITS // 2
    v = is_integer_tile((0, half), m_max=MAX_MASK_BITS)
    assert (v.kind, v.period, v.complement) == \
        ("Tile", MAX_MASK_BITS, tuple(range(half)))
    with pytest.raises(BudgetError):
        is_integer_tile((0, MAX_MASK_BITS), m_max=2 * MAX_MASK_BITS)


def test_unknown_verdict_when_period_capped():
    v = is_integer_tile((0, 2), m_max=2)
    assert v.kind == "Unknown" and v.searched_up_to == 2


def test_unknown_verdict_after_every_period_fails():
    # S_A = {2, 3}: T1 holds, the window is not refuted, and the periods 6,
    # 12, ..., 36 all fail: four fold two digits together, and Z_24 and
    # Z_30 hold no complement
    dset = (0, 19, 23, 36, 40, 59)
    v = is_integer_tile(dset, m_max=36)
    assert (v.kind, v.searched_up_to) == ("Unknown", 36)
    assert _prime_power_divisors(dset) == {2: 2, 3: 3}
    reduced = {m: sorted({d % m for d in dset}) for m in range(6, 37, 6)}
    assert [m for m, r in reduced.items() if len(r) < len(dset)] == \
        [6, 12, 18, 36]
    for m in (24, 30):
        assert oracles.search_complement_reference(reduced[m], m) is None


def test_tile_verdicts_reverify():
    for d in ((0, 1, 4, 5), (0, 1, 8, 9), (0, 2), (0, 1, 2), (0, 3, 6)):
        v = is_integer_tile(d)
        assert v.kind == "Tile"
        counts = Counter((x + y) % v.period
                         for x in d for y in v.complement)
        assert set(counts) == set(range(v.period))
        assert all(m == 1 for m in counts.values())


def test_tile_divisibility_equivalence_sweep():
    # 2-level systems, 2 <= N_k, b_k <= 6, direct D_2: tile <=> N_2 | b_2
    for b1, b2, n1, n2 in itertools.product(range(2, 7), repeat=4):
        sys_ = _sys((b1, b2), (n1, n2))
        d = iterated_digits(sys_, 2)
        if not d.direct_sum:
            continue
        v = is_integer_tile(d.support, 256)
        assert v.kind != "Unknown", (b1, b2, n1, n2)
        assert (v.kind == "Tile") == (b2 % n2 == 0), (b1, b2, n1, n2)


def test_tijdeman_examples():
    r = tijdeman_rescale((0, 1, 8, 9), (0, 2, 4, 6), 16, 3)
    assert r.scaled == (0, 3, 8, 11)
    r = tijdeman_rescale((0, 1), (0,), 2, 3)
    assert r.scaled == (0, 1)
    r = tijdeman_rescale((0, 1, 4, 5), (0, 2), 8, 5)
    assert r.scaled == (0, 1, 4, 5)


def test_tijdeman_guards():
    with pytest.raises(ValueError):
        tijdeman_rescale((0, 1, 8, 9), (0, 2, 4, 6), 16, 2)   # gcd = 2
    with pytest.raises(ValueError):
        tijdeman_rescale((0, 1, 3, 4), (0, 2), 8, 3)          # not a tiling
    for period in (0, -16):
        with pytest.raises(ValueError, match="period must be >= 1"):
            tijdeman_rescale((0, 1, 8, 9), (0, 2, 4, 6), period, 3)


def test_tijdeman_closure():
    import math
    for d in ((0, 1, 4, 5), (0, 1, 8, 9), (0, 1, 2, 3)):
        v = is_integer_tile(d)
        assert v.kind == "Tile"
        for r in range(1, 21):
            if math.gcd(r, len(d)) != 1:
                continue
            res = tijdeman_rescale(d, v.complement, v.period, r)
            counts = Counter((x + y) % v.period
                             for x in res.scaled for y in v.complement)
            assert all(m == 1 for m in counts.values())
            assert len(counts) == v.period
