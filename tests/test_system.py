import json
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from moran.errors import ParseError
from moran.system import (
    DigitLevel,
    FormulaTail,
    MoranSystem,
    PeriodicTail,
    check_convergence,
    depth_first,
    parse_rational,
    parse_system,
    serialize_system,
    support_info,
)

QUARTER = parse_system(
    '{"prefix": {"b": [4, 4], "N": [2, 2]},'
    ' "tail": {"kind": "periodic", "b": [4], "N": [2]}}')
MIXED = parse_system(
    '{"prefix": {"b": [4, 6], "N": [3, 2]}, "tail": {"kind": "none"}}')


def test_parse_basic_fields():
    assert QUARTER.prefix == (DigitLevel(4, 2), DigitLevel(4, 2))
    assert isinstance(QUARTER.tail, PeriodicTail)
    assert QUARTER.tail.levels == (DigitLevel(4, 2),)
    assert QUARTER.horizon is None
    assert MIXED.tail is None
    assert MIXED.horizon == 2


def test_parse_scales_default_to_one():
    sys_ = parse_system(json.dumps(
        {"prefix": {"b": [6, 4], "N": [2, 2], "scale": [1, 3]},
         "tail": {"kind": "none"}}))
    assert sys_.level(1).scale == 1
    assert sys_.level(2).scale == 3
    assert QUARTER.level(2).scale == 1


def test_parse_formula_tail():
    sys_ = parse_system(json.dumps(
        {"prefix": {"b": [2], "N": [2]},
         "tail": {"kind": "formula", "b": 3, "c": "1", "rho": "1"}}))
    assert isinstance(sys_.tail, FormulaTail)
    assert sys_.tail.count_at(5) == 1 or sys_.tail.count_at(5) == 2
    # count_at clamps below 2 up to 2 so every level is a genuine digit set
    assert sys_.level(7).count >= 2 or sys_.level(7).count == 2


@pytest.mark.parametrize("bad", [
    '{"prefix": {"b": [1], "N": [1]}, "tail": {"kind": "none"}}',   # base < 2
    '{"prefix": {"b": [4], "N": [0]}, "tail": {"kind": "none"}}',   # count < 1
    '{"prefix": {"b": [4], "N": [2], "scale": [0]}, "tail": {"kind": "none"}}',
    '{"prefix": {"b": [], "N": []}, "tail": {"kind": "none"}}',     # empty
    '{"prefix": {"b": [4, 4], "N": [2]}, "tail": {"kind": "none"}}',
    '{"prefix": {"b": [4], "N": [2]}, "tail": {"kind": "formula", "b": 2}}',
    '{"prefix": {"b": [4], "N": [2]}}',
    'not json',
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_system(bad)


def test_all_trivial_finite_system_allowed():
    # degenerate finite systems arise as complements (point masses)
    sys_ = parse_system('{"prefix": {"b": [4, 4], "N": [1, 1]},'
                        ' "tail": {"kind": "none"}}')
    assert all(sys_.level(k).count == 1 for k in (1, 2))


def test_level_product_matches_running_product():
    # oracle: multiply bases one at a time
    for sys_, depth in ((QUARTER, 20), (MIXED, 2)):
        prod = 1
        for k in range(1, depth + 1):
            prod *= sys_.level(k).base
            assert sys_.level_product(k) == prod
    assert QUARTER.level_product(2) == 16
    assert MIXED.level_product(2) == 24
    assert QUARTER.level_product(0) == 1 


def test_level_table_leaves_identity_alone():
    # the table is per instance: filling one copy changes neither equality,
    # hashing nor the other copy's table
    text = serialize_system(QUARTER)
    a, b = parse_system(text), parse_system(text)
    assert a.level_product(40) == 4 ** 40
    assert a.tail_constant(41) == F(1, 3)      # sum_{j>=1} 4^-j
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert b._rows == [(1, None)] and "_tail_constants" not in vars(b)


def test_levels_are_rows_of_the_level_table():
    sys_ = parse_system(serialize_system(MIXED))
    sys_.level(2)  # a lookup: the table stays unextended
    assert sys_._rows == [(1, None)]
    assert sys_.levels(2, 2) == [(24, DigitLevel(6, 2))]
    assert sys_.levels(1, 2) == [(4, DigitLevel(4, 3)), (24, DigitLevel(6, 2))]
    assert sys_._rows[0] == (1, None) and sys_.level_product(0) == 1
    with pytest.raises(ValueError):
        sys_.levels(0, 2)


def test_level_table_shared_between_threads():
    # threads extending one system's table at once must all read the exact
    # products; a lost or doubled append would shift every later B_k.  A
    # formula tail makes level() slow, which widens any race window.
    prefix, tail = (DigitLevel(2, 2),), FormulaTail(3, F(1), F(3, 2))
    want = [MoranSystem(prefix, tail).level_product(n) for n in range(60)]
    errors = []

    def worker(sys_, barrier):
        barrier.wait()
        errors.extend(n for n in range(len(want))
                      if sys_.level_product(n) != want[n])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(400):
            args = (MoranSystem(prefix, tail), threading.Barrier(4))
            threads = [threading.Thread(target=worker, args=args)
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_periodic_levels_repeat():
    for k in range(1, 30):
        lev = QUARTER.level(k)
        assert (lev.base, lev.count) == (4, 2)


def test_convergence_periodic_quarter():
    rep = check_convergence(QUARTER)
    assert rep.verdict == "Convergent"
    assert rep.total == F(2, 3)
    assert rep.certificate == "geometric-ratio"


def test_convergence_finite_prefix():
    rep = check_convergence(MIXED)
    assert rep.verdict == "Convergent"
    assert rep.total == F(3, 4) + F(2, 24)
    assert rep.certificate == "finite-prefix"


def test_convergence_formula_divergent():
    # N_n ~ 2^n against B_n = 2^n: terms do not vanish
    sys_ = parse_system(json.dumps(
        {"prefix": {"b": [2], "N": [2]},
         "tail": {"kind": "formula", "b": 2, "c": "1", "rho": "2"}}))
    rep = check_convergence(sys_)
    assert rep.verdict == "Divergent"
    assert rep.certificate == "nonvanishing-terms"


def test_convergence_formula_ratio_test():
    sys_ = parse_system(json.dumps(
        {"prefix": {"b": [2], "N": [2]},
         "tail": {"kind": "formula", "b": 3, "c": "1", "rho": "2"}}))
    rep = check_convergence(sys_)
    assert rep.verdict == "Convergent"
    assert rep.certificate == "ratio-test"


def test_bounded_count_tail_always_convergent():
    # N_n <= b_n for a periodic tail forces a geometric bound, and the
    # series total is at most N_1/b_1 + 1
    sys_ = parse_system(json.dumps(
        {"prefix": {"b": [5, 3], "N": [5, 3]},
         "tail": {"kind": "periodic", "b": [5, 3], "N": [5, 3]}}))
    rep = check_convergence(sys_)
    assert rep.verdict == "Convergent"
    assert rep.total <= F(5, 5) + 1


def test_support_quarter_infinite():
    info = support_info(QUARTER, None)
    assert info.diameter == F(1, 3)


def test_support_finite_oracle():
    # oracle: max atom position from direct enumeration
    import oracles
    for sys_, n in ((QUARTER, 2), (MIXED, 2)):
        atoms = oracles.atoms_with_weights(sys_, 1, n)
        assert support_info(sys_, n).diameter == max(atoms)
    assert support_info(QUARTER, 2).diameter == F(5, 16)
    assert support_info(MIXED, 2).diameter == F(2, 4) + F(1, 24)


def test_roundtrip_serialize_parse():
    for text in (
        '{"prefix": {"b": [4, 4], "N": [2, 2]},'
    ' "tail": {"kind": "periodic", "b": [4], "N": [2]}}',
        '{"prefix": {"b": [4, 6], "N": [3, 2], "scale": [2, 1]},'
        ' "tail": {"kind": "none"}}',
        '{"prefix": {"b": [2], "N": [2]},'
        ' "tail": {"kind": "formula", "b": 3, "c": "5/2", "rho": "3/2"}}',
    ):
        sys_ = parse_system(text)
        assert parse_system(serialize_system(sys_)) == sys_


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" 5/10 ") == F(1, 2)
    with pytest.raises(ParseError):
        parse_rational("1.5e3x")


# a tree is (label, children); labels repeat, so equal subtrees can recur
TREES = st.recursive(
    st.tuples(st.integers(0, 3), st.just(())),
    lambda kids: st.tuples(st.integers(0, 3),
                           st.lists(kids, max_size=4).map(tuple)),
    max_leaves=40)


def _preorder(node, path=()):
    path += (node,)
    yield path
    for child in node[1]:
        yield from _preorder(child, path)


@given(TREES, st.booleans())
@settings(max_examples=300, deadline=None)
def test_depth_first_is_recursive_preorder(tree, lazy):
    # children as a list, or as a generator resumed after deeper branches
    # have been walked; children(node) runs only once node has been yielded
    log = []

    def children(node):
        log.append(("children", node))
        return (child for child in node[1]) if lazy else list(node[1])

    paths = []
    for path in depth_first(tree, children):
        log.append(("yield", path[-1]))
        paths.append(tuple(path))
    assert paths == list(_preorder(tree))
    assert log == [(event, path[-1]) for path in paths
                   for event in ("yield", "children")]

