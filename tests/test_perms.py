import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybx.catalog import acceptance_corpus, enumerate_structures, example_structure
from ybx.perms import (
    ABDStructure,
    Permutation,
    PermutationError,
    a_km,
    all_n_cycles,
    abd_isomorphic,
    abd_isomorphic_bruteforce,
    commutator,
    compose,
    cycle_type,
    cycles,
    fixed_points,
    format_cycles,
    from_cycles,
    gamma_pair,
    identity,
    inverse,
    is_valid_abd,
    parse_cycles,
    rectangle_terms,
    relabel_abd,
    term_target,
    validate_abd,
)
from ybx.scalars import derive_rng


def perms(n):
    return st.permutations(tuple(range(n))).map(lambda t: Permutation(tuple(t)))


any_perm = st.integers(min_value=1, max_value=7).flatmap(perms)


def test_identity_compose():
    p = Permutation((2, 0, 1))
    assert compose(identity(3), p) == p
    assert compose(p, identity(3)) == p


def test_inverse_involution():
    swap = Permutation((1, 0))
    assert inverse(swap) == swap


def test_compose_direct_evaluation():
    # (0,3,1,2)-cycle composed with (0,1,2,3)-cycle, evaluated at 0:
    # q sends 0 to 1, p sends 1 to 2.
    p = from_cycles([(0, 3, 1, 2)], 4)
    q = from_cycles([(0, 1, 2, 3)], 4)
    assert compose(p, q)(0) == 2
    for x in range(4):
        assert compose(p, q)(x) == p(q(x))


def test_size_mismatch():
    with pytest.raises(PermutationError):
        compose(identity(3), identity(4))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(perms(n), perms(n), perms(n))))
def test_compose_associative_and_antihomomorphism(triple):
    p, q, r = triple
    assert compose(compose(p, q), r) == compose(p, compose(q, r))
    assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(perms(n), perms(n))))
def test_commutator_of_swap_is_inverse(pair):
    p, q = pair
    assert commutator(q, p) == inverse(commutator(p, q))
    assert fixed_points(commutator(p, q)) == fixed_points(inverse(commutator(q, p)))


def test_commutator_selfcommutes():
    p = Permutation((1, 2, 3, 0))
    assert commutator(p, p).is_identity()


def test_example_commutator_fixed_points():
    s = example_structure()
    comm = commutator(s.c1, s.c2)
    lengths, fixed = cycle_type(comm)
    assert fixed == (2,)          # the point 3, 1-based
    assert lengths == (1, 3)


def test_cycle_type_trivia():
    lengths, fixed = cycle_type(identity(5))
    assert lengths == (1, 1, 1, 1, 1)
    assert fixed == (0, 1, 2, 3, 4)
    lengths, fixed = cycle_type(Permutation((1, 2, 3, 4, 0)))
    assert lengths == (5,)
    assert fixed == ()


def test_validate_abd_smallest():
    s = ABDStructure(1, identity(1), identity(1), ())
    assert validate_abd(s) == []


def test_validate_abd_example():
    assert is_valid_abd(example_structure())
    bad = ABDStructure(4, example_structure().c1, example_structure().c2, (0,))
    problems = validate_abd(bad)
    assert problems and "commute" in problems[0]


def test_validate_abd_proper_subset():
    swap = Permutation((1, 0))
    assert validate_abd(ABDStructure(2, swap, swap, (0, 1)))


def test_all_n_cycles_follow_the_cycle_notation():
    # (0 r1 r2 ...) for every ordering r of 1..n-1, in itertools order
    for n in range(1, 8):
        assert list(all_n_cycles(n)) == [from_cycles([(0,) + rest], n)
                                         for rest in itertools.permutations(range(1, n))]


def test_validate_equals_commutator_fixed_points_exhaustive():
    # validity of (c1, c2, a) is exactly a <= Fix([c1,c2]), for all n <= 5
    from ybx.perms import all_n_cycles

    for n in range(1, 6):
        for c1 in all_n_cycles(n):
            for c2 in all_n_cycles(n):
                fixed = set(fixed_points(commutator(c1, c2)))
                for a in ((), (0,), (n - 1,), tuple(range(n - 1))):
                    s = ABDStructure(n, c1, c2, a)
                    assert is_valid_abd(s) == (set(a) <= fixed and len(set(a)) < n)


def test_a_km_cases():
    s = example_structure()
    assert a_km(s, 1, 1) == (2,)
    assert a_km(s, 1, 2) == ()    # c2(3) = 4 is not in A (1-based)
    empty = example_structure(filled=False)
    for k, m in itertools.product(range(1, 4), repeat=2):
        assert a_km(empty, k, m) == ()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        [s for n in range(1, 5) for s in enumerate_structures(n)]
    ),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_a_km_monotone(s, k, m):
    assert set(a_km(s, k + 1, m)) <= set(a_km(s, k, m))
    assert set(a_km(s, k, m + 1)) <= set(a_km(s, k, m))
    assert a_km(s, 1, 1) == s.a


def _rectangle_terms_by_a_km(s):
    """The rectangle-family table built from ``a_km``, one call per (k, m)."""
    n = s.n
    pow1, pow2 = [tuple(range(n))], [tuple(range(n))]
    for _ in range(1, n):
        pow1.append(tuple(s.c1(x) for x in pow1[-1]))
        pow2.append(tuple(s.c2(x) for x in pow2[-1]))

    def flat(i, j, k, l):
        return ((i * n + j) * n + k) * n + l

    sq = pow1[0]
    terms = [("diagonal", 0, 0, 1, sq, tuple(flat(i, i, i, i) for i in sq))]
    terms += [("horizontal", k, 0, 1, sq, tuple(flat(j, j, i, i) for i, j in enumerate(pow1[k])))
              for k in range(1, n)]
    terms += [("vertical", 0, m, 1, sq, tuple(flat(i, j, j, i) for i, j in enumerate(pow2[m])))
              for m in range(1, n)]
    for k, m in itertools.product(range(1, n), repeat=2):
        members = a_km(s, k, m)
        if members:
            blocks = [((pow2[m][a], a), (pow1[k][a], pow1[k][pow2[m][a]])) for a in members]
            terms.append(("a_rect", k, m, 1, members, tuple(flat(*x, *y) for x, y in blocks)))
            terms.append(("a_rect", k, m, -1, members, tuple(flat(*y, *x) for x, y in blocks)))
    return tuple(terms)


def test_rectangle_terms_equal_the_a_km_construction():
    # the acceptance corpus, then seeded n = 5..7 structures: half with
    # c2 a power of c1, so every point commutes and A(k,m) has long runs
    structures = list(acceptance_corpus())
    rng = derive_rng(41, "rectangle-terms")
    for n in (5, 6, 7):
        cycles_n = list(all_n_cycles(n))
        for i in range(20):
            c1 = rng.choice(cycles_n)
            if i % 2:
                c2 = c1 ** rng.choice([j for j in range(1, n) if math.gcd(j, n) == 1])
            else:
                c2 = rng.choice(cycles_n)
            fixed = fixed_points(commutator(c1, c2))
            a = tuple(x for x in fixed if rng.random() < 0.7)[: n - 1]
            structures.append(ABDStructure(n, c1, c2, a))
    rects = [t[1:3] for s in structures[-60:] for t in rectangle_terms(s) if t[0] == "a_rect"]
    assert max(k for k, _ in rects) >= 3 and max(m for _, m in rects) >= 3
    for s in structures:
        assert is_valid_abd(s)
        assert rectangle_terms(s) == _rectangle_terms_by_a_km(s), s.label()


def test_rectangle_terms_example():
    s = example_structure()
    terms = rectangle_terms(s)
    assert [t[:4] for t in terms] == [
        ("diagonal", 0, 0, 1),
        ("horizontal", 1, 0, 1), ("horizontal", 2, 0, 1), ("horizontal", 3, 0, 1),
        ("vertical", 0, 1, 1), ("vertical", 0, 2, 1), ("vertical", 0, 3, 1),
        ("a_rect", 1, 1, 1), ("a_rect", 1, 1, -1),
    ]
    c1, c2 = s.c1, s.c2
    targets = {t[:4]: [term_target(4, f) for f in t[5]] for t in terms}
    assert all(len(t[4]) == len(t[5]) for t in terms)
    assert targets[("diagonal", 0, 0, 1)] == [((i, i), (i, i)) for i in range(4)]
    assert targets[("horizontal", 2, 0, 1)] == [
        ((c1(c1(i)), c1(c1(i))), (i, i)) for i in range(4)]
    assert targets[("vertical", 0, 1, 1)] == [((i, c2(i)), (c2(i), i)) for i in range(4)]
    # 1-based: C2(3)=4, C1(3)=1, C1C2(3)=2 -> 0-based rows (3,2) and (0,1)
    assert terms[-2][4] == terms[-1][4] == (2,)
    assert targets[("a_rect", 1, 1, 1)] == [((3, 2), (0, 1))]
    assert targets[("a_rect", 1, 1, -1)] == [((0, 1), (3, 2))]


def test_gamma_pair():
    s = example_structure()
    g1, g2 = gamma_pair(s)
    assert g1 == {(2, 0)}         # (3, C1(3)) 1-based
    assert g2 == {(3, 1)}         # (C2(3), C1C2(3)) 1-based
    assert gamma_pair(example_structure(filled=False)) == (frozenset(), frozenset())


def test_gamma_pair_lemma_property():
    # (C2 x C2)(Gamma1) = Gamma2 for every valid structure with n <= 4
    for n in range(1, 5):
        for s in enumerate_structures(n):
            g1, g2 = gamma_pair(s)
            assert {(s.c2(x), s.c2(y)) for x, y in g1} == g2
            graph_c1 = {(x, s.c1(x)) for x in range(n)}
            assert g1 <= graph_c1 and g2 <= graph_c1


def test_abd_isomorphic_identity_and_relabel():
    s = example_structure()
    assert abd_isomorphic(s, s) is not None
    sigma = Permutation((2, 3, 1, 0))
    s2 = relabel_abd(s, sigma)
    found = abd_isomorphic(s, s2)
    assert found is not None
    # the found bijection must intertwine everything
    assert relabel_abd(s, found).c1 == s2.c1
    assert relabel_abd(s, found).c2 == s2.c2
    assert relabel_abd(s, found).a == s2.a


def test_abd_isomorphic_cardinality_obstruction():
    s1 = example_structure(filled=True)
    s2 = example_structure(filled=False)
    assert abd_isomorphic(s1, s2) is None


def test_abd_isomorphic_matches_bruteforce_seeded():
    rng = derive_rng(3, "iso-test")
    pool = [s for n in (3, 4) for s in enumerate_structures(n)]
    for _ in range(30):
        s1 = rng.choice(pool)
        if rng.random() < 0.5:
            images = list(range(s1.n))
            rng.shuffle(images)
            s2 = relabel_abd(s1, Permutation(tuple(images)))
        else:
            s2 = rng.choice(pool)
        fast = abd_isomorphic(s1, s2)
        slow = abd_isomorphic_bruteforce(s1, s2)
        assert (fast is None) == (slow is None)


def test_parse_cycles():
    p = parse_cycles("(1 4 2 3)", 4)
    assert p.images == (3, 2, 0, 1)
    assert parse_cycles("(1)(2)", 2).is_identity()
    assert parse_cycles("(1,2)(3,4)").images == (1, 0, 3, 2)
    with pytest.raises(PermutationError):
        parse_cycles("(1 1)")
    with pytest.raises(PermutationError):
        parse_cycles("(1 2")
    with pytest.raises(PermutationError):
        parse_cycles("1 2)")


@settings(max_examples=80, deadline=None)
@given(any_perm)
def test_cycle_notation_roundtrip(p):
    assert parse_cycles(format_cycles(p), p.n) == p


def test_json_roundtrip():
    s = example_structure()
    assert ABDStructure.from_json_dict(s.to_json_dict()) == s


def test_cycles_partition():
    p = Permutation((1, 0, 3, 2, 4))
    assert sorted(x for c in cycles(p) for x in c) == list(range(5))
