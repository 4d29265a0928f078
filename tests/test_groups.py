"""Group construction, validation errors, quotients, and conjugacy."""

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh import groups
from nilcoh.errors import NoIdentity, NoInverse, NotAssociative, NotNormal, OrderCapExceeded
from nilcoh.groups import (
    Group,
    GroupHom,
    Subgroup,
    are_conjugate_subgroups,
    centralizer,
    full_subgroup,
    group_from_permutations,
    group_from_table,
    normalizer,
    quotient,
    subgroup_generated,
)
from conftest import (
    center,
    cyclic,
    dihedral,
    dihedral_table_by_formula,
    direct_product,
    direct_product_table_by_formula,
    heisenberg,
    heisenberg_table_by_formula,
    is_surjective,
    kernel,
    permutation_table_by_pairs,
    quaternion8,
    quaternion8_table_by_formula,
    same_as_validated,
    subgroups_by_subset_scan,
    trivial_subgroup,
)


def test_c2_from_table():
    G = group_from_table([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.inv == (0, 1)


def test_c6_from_table_is_abelian():
    G = group_from_table([[(a + b) % 6 for b in range(6)] for a in range(6)])
    assert G.order == 6 and G.is_abelian()


def test_identity_canonicalized_to_zero():
    # C3 with the identity sitting at index 2: index i holds Z3-element val[i].
    val = [1, 2, 0]
    table = [[val.index((val[a] + val[b]) % 3) for b in range(3)]
             for a in range(3)]
    assert all(table[2][x] == x for x in range(3))
    G = group_from_table(table)
    assert all(G.mul[0][x] == x and G.mul[x][0] == x for x in range(3))


def test_nonassociative_table_rejected_with_witness():
    magma = [
        [0, 1, 2],
        [1, 2, 2],
        [2, 2, 1],
    ]
    # A loop of order 5: a Latin square with an identity and two-sided
    # inverses, so only the associativity test can reject it.
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    assert all(sorted(row) == list(range(5)) for row in loop)
    assert all(sorted(col) == list(range(5)) for col in zip(*loop))
    for G in (magma, loop):
        with pytest.raises(NotAssociative) as info:
            group_from_table(G)
        a, b, c = info.value.triple
        assert G[G[a][b]][c] != G[a][G[b][c]]


def test_table_entry_out_of_range_rejected():
    for bad in (2, -1):
        for build in (Group, group_from_table):
            with pytest.raises(ValueError, match=f"table entry {bad} out of range"):
                build([[0, 1], [1, bad]])


def test_no_identity_rejected():
    with pytest.raises(NoIdentity):
        group_from_table([[1, 1], [1, 1]])


def test_no_inverse_rejected():
    # Multiplication on {0,1}: x*y = 0 unless both 1... not associative either,
    # so build a monoid table: min(x+y, 1) has identity 0, no inverse for 1.
    with pytest.raises(NoInverse) as info:
        group_from_table([[0, 1], [1, 1]])
    assert info.value.element == 1


def test_group_from_table_checks_the_shape_once(monkeypatch):
    # A table whose identity is at index 0 goes to Group as it is, and only
    # Group checks its shape; one with the identity elsewhere is checked
    # before the identity is moved, and again by Group.
    calls = []
    right_check = groups._check_table_shape
    monkeypatch.setattr(groups, "_check_table_shape",
                        lambda table: calls.append(len(table)) or right_check(table))
    at_zero = [[[0]], [[0, 1], [1, 0]], dihedral_table_by_formula(4),
               heisenberg_table_by_formula(3), [list(row) for row in cyclic(6).mul]]
    for table in at_zero:
        group_from_table(table)
    assert calls == [len(table) for table in at_zero]
    calls.clear()
    val = [1, 2, 0]
    group_from_table([[val.index((val[a] + val[b]) % 3) for b in range(3)] for a in range(3)])
    assert calls == [3, 3]
    for table, error, message in (([[0, 1], [1]], ValueError, "row 1 has length 1, expected 2"),
                                  ([[0, 1], [1, 2]], ValueError, "table entry 2 out of range"),
                                  ([[1, 0], [0]], ValueError, "row 1 has length 1, expected 2"),
                                  ([], NoIdentity, "empty table")):
        with pytest.raises(error, match=message):
            group_from_table(table)


def test_permutation_closure_dihedral():
    four_cycle = [1, 2, 3, 0]
    transposition = [0, 3, 2, 1]  # swaps points 1 and 3
    G = group_from_permutations([four_cycle, transposition])
    assert G.order == 8
    assert not G.is_abelian()
    orders = sorted(G.element_order(x) for x in range(8))
    assert orders == sorted(dihedral(4).element_order(x) for x in range(8))


def test_permutation_closure_trivial_and_c2():
    assert group_from_permutations([]).order == 1
    assert group_from_permutations([[1, 0]]).order == 2


def test_permutation_closure_cap():
    # A 7-cycle and a transposition generate S7, of order 5,040, above the
    # fixed cap of 2,048.
    with pytest.raises(OrderCapExceeded, match="^closure exceeds cap 2048$"):
        group_from_permutations([[1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]])


@st.composite
def permutation_generators(draw):
    """One to three permutations of one degree from 2 to 7, and an order cap
    small enough for the pairwise oracle, which refuses closures above it.
    The 200 derandomized draws give groups from order 1 to 120, and about 70
    closures that the oracle refuses and the test skips."""
    degree = draw(st.integers(2, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return degree, gens, draw(st.integers(1, 200))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(permutation_generators())
def test_permutation_table_matches_pairwise_oracle(case):
    degree, gens, cap = case
    try:
        expected = permutation_table_by_pairs(gens, degree, cap)
    except OrderCapExceeded:
        return
    G = group_from_permutations(gens, degree=degree)
    assert G.mul == expected
    assert same_as_validated(G)


def test_permutation_table_of_a_long_cycle_matches_pairwise_oracle():
    cycle = [(i + 1) % 128 for i in range(128)]
    G = group_from_permutations([cycle])
    assert G.mul == permutation_table_by_pairs([cycle], 128, 128)
    assert G.mul[1][127] == 0
    assert same_as_validated(G)


S3_PERMS = [[1, 0, 2], [1, 2, 0]]
BUILDERS = [
    *((f"D{n}", lambda n=n: dihedral(n), lambda n=n: dihedral_table_by_formula(n))
      for n in (1, 2, 3, 4, 6, 16, 64)),
    ("Q8", quaternion8, quaternion8_table_by_formula),
    *((f"Heis{p}", lambda p=p: heisenberg(p), lambda p=p: heisenberg_table_by_formula(p))
      for p in (2, 3, 5)),
    *((name, lambda a=a, b=b: direct_product(a(), b()),
       lambda a=a, b=b: direct_product_table_by_formula(a(), b()))
      for name, a, b in (("D4xQ8", lambda: dihedral(4), quaternion8),
                         ("C3xHeis3", lambda: cyclic(3), lambda: heisenberg(3)),
                         ("C1xC5", lambda: cyclic(1), lambda: cyclic(5)),
                         ("C6xC1", lambda: cyclic(6), lambda: cyclic(1)),
                         ("S3xC4", lambda: group_from_permutations(S3_PERMS), lambda: cyclic(4)))),
]


@pytest.mark.parametrize("name, build, formula", BUILDERS, ids=[b[0] for b in BUILDERS])
def test_builders_match_their_formula_and_the_oracle(name, build, formula):
    # Each builder hands only its generators' rows to the row walk; its
    # table must be the old entry-by-entry formula's, and the conftest
    # validator must find the same gens and inv.
    G = build()
    assert G.mul == tuple(map(tuple, formula()))
    assert same_as_validated(G)


def test_subgroup_generated_cyclic():
    C4 = cyclic(4)
    assert subgroup_generated(C4, [1]).elements == (0, 1, 2, 3)
    assert subgroup_generated(C4, [2]).elements == (0, 2)


def test_subgroup_generated_klein_in_d4():
    D4 = dihedral(4)
    K = subgroup_generated(D4, [4, 2])  # a reflection and the half-turn
    assert K.elements == (0, 2, 4, 6)
    assert all(D4.element_order(x) <= 2 for x in K.elements)


def test_center_examples():
    C6 = cyclic(6)
    assert center(C6).elements == tuple(range(6))
    assert center(dihedral(4)).elements == (0, 2)
    assert center(quaternion8()).elements == (0, 1)


def test_normalizer_and_centralizer():
    D4 = dihedral(4)
    Z = center(D4)
    assert normalizer(D4, Z).order == 8
    assert centralizer(D4, full_subgroup(D4)).elements == Z.elements
    S3 = dihedral(3)
    refl = subgroup_generated(S3, [3])
    assert normalizer(S3, refl).elements == refl.elements
    assert normalizer(S3, full_subgroup(S3)).order == 6


def test_quotient_of_cyclic():
    C4 = cyclic(4)
    Q, pi = quotient(C4, subgroup_generated(C4, [2]))
    assert Q.order == 2
    assert kernel(pi).elements == (0, 2)


def test_quotient_d4_by_rotations():
    D4 = dihedral(4)
    Q, pi = quotient(D4, subgroup_generated(D4, [1]))
    assert Q.order == 2
    assert is_surjective(pi)


def test_quotient_requires_normal():
    D4 = dihedral(4)
    refl = subgroup_generated(D4, [4])
    # Independent scan: some conjugate of the reflection leaves the subgroup.
    assert any(D4.conj(4, g) not in refl for g in range(8))
    with pytest.raises(NotNormal):
        quotient(D4, refl)


def test_quotient_fibers_are_cosets():
    D4 = dihedral(4)
    N = subgroup_generated(D4, [2])
    Q, pi = quotient(D4, N)
    assert Q.order * N.order == D4.order
    for q in range(Q.order):
        fiber = [g for g in range(8) if pi(g) == q]
        rep = fiber[0]
        assert sorted(D4.mul[rep][n] for n in N.elements) == fiber


def test_conjugate_subgroups_in_d4():
    D4 = dihedral(4)
    r = subgroup_generated(D4, [4])
    ra2 = subgroup_generated(D4, [6])
    ra = subgroup_generated(D4, [5])
    g = are_conjugate_subgroups(D4, r, ra2)
    assert g is not None
    assert {D4.conj(x, g) for x in r.elements} == set(ra2.elements)
    assert are_conjugate_subgroups(D4, r, ra) is None
    assert are_conjugate_subgroups(D4, r, r) == 0


def test_conjugacy_is_symmetric_over_small_subgroups():
    D4 = dihedral(4)
    subs = [Subgroup(D4, s) for s in subgroups_by_subset_scan(D4, 2)]
    for A in subs:
        for B in subs:
            ab = are_conjugate_subgroups(D4, A, B)
            ba = are_conjugate_subgroups(D4, B, A)
            assert (ab is None) == (ba is None)


def test_subgroup_validation():
    C4 = cyclic(4)
    with pytest.raises(ValueError):
        Subgroup(C4, [0, 1])  # not closed
    with pytest.raises(ValueError):
        Subgroup(C4, [1, 2, 3])  # missing identity
    assert trivial_subgroup(C4).order == 1


def test_subgroup_as_group_roundtrip():
    D4 = dihedral(4)
    K = subgroup_generated(D4, [4, 2])
    KG, to_parent = K.as_group()
    assert KG.order == 4
    for i in range(4):
        for j in range(4):
            assert to_parent[KG.mul[i][j]] == D4.mul[to_parent[i]][to_parent[j]]


def test_group_hom_validation():
    C4, C2 = cyclic(4), cyclic(2)
    pi = GroupHom(C4, C2, [0, 1, 0, 1])
    assert kernel(pi).elements == (0, 2)
    with pytest.raises(ValueError):
        GroupHom(C4, C2, [0, 1, 1, 0])


def test_cyclic_groups_match_the_formula_and_the_validated_table():
    # cyclic(n) walks the row of 1 for n >= 2; the conftest validator,
    # checking the whole table, is its oracle for gens and inv.  Row a of the
    # formula table (a + b) mod n is the run a..n-1 followed by the run
    # 0..a-1.
    for n in range(1, 301):
        C = cyclic(n)
        assert C.mul == tuple((*range(a, n), *range(a)) for a in range(n)), n
        assert same_as_validated(C), n
    for n in (0, -3):
        with pytest.raises(NoIdentity):
            cyclic(n)


def test_axioms_hold_for_catalog_groups():
    for G in (cyclic(12), dihedral(4), quaternion8()):
        n = G.order
        for a in range(n):
            assert G.mul[G.inv[a]][a] == 0 and G.mul[a][G.inv[a]] == 0
        # Constructor already checked associativity; spot-check a few triples.
        for a in range(0, n, 2):
            for b in range(1, n, 3):
                for c in range(n):
                    assert G.mul[G.mul[a][b]][c] == G.mul[a][G.mul[b][c]]
