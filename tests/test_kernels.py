"""The whole-row kernel `compose` and the table scans built on it: edge
sizes, exact witness messages, the tree-built semidirect table against the
product formula, and property tests against the scalar scans in conftest."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh import actions
from nilcoh.actions import ActionOnGroup, GSet, SemidirectProduct, coset_gset, semidirect, trivial_action
from nilcoh.errors import NilcohError, NotAHomomorphism, NotAssociative, NotNormal, OrderCapExceeded
from nilcoh.groups import (
    Group,
    Subgroup,
    compose,
    group_from_permutations,
    quotient,
    subgroup_generated,
)
from conftest import (
    as_group_table_by_scan,
    catalog_by_id,
    coset_action_by_scan,
    coset_labels_by_scan,
    cyclic,
    dihedral,
    heisenberg,
    normality_witness_by_scan,
    quotient_table_by_scan,
    semidirect_table_by_formula,
    subgroup_defect_by_scan,
    trivial_subgroup,
)


@pytest.mark.parametrize("q", [(), (0,), (2,), (1, 0), (2, 2), (0, 2, 1)])
def test_compose_matches_scan_at_short_lengths(q):
    p = (5, 6, 7)
    assert compose(p, q) == tuple(p[i] for i in q)
    assert compose(list(p), list(q)) == tuple(p[i] for i in q)


def test_groups_of_order_one_and_two():
    one = Group([[0]])
    assert (one.order, one.gens, one.inv) == (1, (), (0,))
    two = Group([[0, 1], [1, 0]])
    assert (two.gens, two.inv) == ((1,), (0, 1))
    for G in (one, two, cyclic(5)):
        T = trivial_subgroup(G)
        TG, to_parent = T.as_group()
        assert (TG.mul, to_parent) == (((0,),), (0,))
        assert T.is_normal() and T.conjugate_by(G.order - 1).elements == (0,)
        Q, pi = quotient(G, T)
        assert Q.mul == G.mul and pi.images == tuple(range(G.order))
        assert coset_gset(G, Subgroup(G, range(G.order))).act == ((0,),) * G.order


def test_semidirect_products_with_a_trivial_factor():
    one, C4, D4 = Group([[0]]), cyclic(4), dihedral(4)
    for action in (trivial_action(one, C4), trivial_action(D4, one), trivial_action(one, one)):
        P = semidirect(action)
        assert P.group.mul == semidirect_table_by_formula(action)
        assert P.group.order == action.actor.order * action.target.order


def test_exact_witness_messages():
    # Each vectorised check that fails hands over to an entry-by-entry scan,
    # which names the first witness in the scan order of the check.
    H = heisenberg(3)
    table = [list(row) for row in H.mul]
    table[14][20] = table[14][21]
    with pytest.raises(NotAssociative, match=r"^\(a\*b\)\*c != a\*\(b\*c\) for "
                                             r"\(a, b, c\) = \(13, 1, 20\)$"):
        Group(table)
    with pytest.raises(ValueError, match=r"^subgroup not closed under product at \(2, 9\)$"):
        Subgroup(dihedral(6), [0, 2, 4, 7, 9])
    q8 = catalog_by_id()["q8_conj_q8"].action()
    perms = [list(p) for p in q8.auto]
    perms[5] = perms[3]
    with pytest.raises(NotAHomomorphism,
                       match=r"^action of product 1\*4 differs from composed action$"):
        ActionOnGroup(q8.actor, q8.target, perms)
    P = semidirect(catalog_by_id()["c4_inv_c4"].action())
    rows = [list(row) for row in coset_gset(P.group, P.j_part()).act]
    rows[6] = rows[0]
    with pytest.raises(ValueError, match=r"^action is not a homomorphism at \(2, 4\)$"):
        GSet(P.group, rows)


MUTANT_ACTIONS = ("c2_inv_c4", "c3_cycle_q8", "q8_conj_q8", "c6_twist_q8c3")


@pytest.mark.parametrize("ident", MUTANT_ACTIONS)
def test_wrong_entry_in_a_generator_row_is_rejected(monkeypatch, ident):
    action = catalog_by_id()[ident].action()
    size = action.actor.order * action.target.order
    right_row = actions._semidirect_row
    for entry in (1, size // 2, size - 1):
        def wrong_row(action, n1, j1, entry=entry):
            row = list(right_row(action, n1, j1))
            row[entry] = (row[entry] + 1) % size
            return tuple(row)
        monkeypatch.setattr(actions, "_semidirect_row", wrong_row)
        with pytest.raises((NilcohError, ValueError)):
            SemidirectProduct(action)


@pytest.mark.parametrize("ident", MUTANT_ACTIONS)
def test_swapped_rows_are_rejected(monkeypatch, ident):
    action = catalog_by_id()[ident].action()
    size = action.actor.order * action.target.order
    right_table = actions._semidirect_table
    for a, b in ((0, 1), (1, size - 1), (size // 2, size // 2 + 1)):
        def swapped(action, a=a, b=b):
            rows = right_table(action)
            rows[a], rows[b] = rows[b], rows[a]
            return rows
        monkeypatch.setattr(actions, "_semidirect_table", swapped)
        with pytest.raises((NilcohError, ValueError)):
            SemidirectProduct(action)


@st.composite
def groups_with_subsets(draw):
    """A group generated by two permutations of degree 4 to 7 (by the first
    alone when the closure passes order 120), a subset containing 0 and one
    or two seeds of a subgroup.  The 120 derandomized draws give groups of
    14 orders from 1 to 120, about half the subsets not closed and about a
    quarter of the subgroups not normal."""
    degree = draw(st.integers(4, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=2, max_size=2))
    try:
        G = group_from_permutations(gens, degree=degree, order_cap=120)
    except OrderCapExceeded:
        G = group_from_permutations(gens[:1], degree=degree)
    elements = st.integers(0, G.order - 1)
    subset = draw(st.lists(elements, max_size=6))
    seeds = draw(st.lists(elements, min_size=1, max_size=2))
    return G, [0] + subset, seeds


@settings(derandomize=True, max_examples=120, deadline=None)
@given(groups_with_subsets())
def test_vectorised_scans_match_scalar_scans(case):
    G, subset, seeds = case
    defect = subgroup_defect_by_scan(G, subset)
    if defect is None:
        assert Subgroup(G, subset).elements == tuple(sorted(set(subset)))
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(defect)}$"):
            Subgroup(G, subset)
    H = subgroup_generated(G, seeds)
    HG, to_parent = H.as_group()
    assert (HG.mul, to_parent) == (as_group_table_by_scan(H), H.elements)
    assert coset_gset(G, H).act == coset_action_by_scan(G, H)
    outside = normality_witness_by_scan(G, H, G.gens)
    if outside is None:
        Q, pi = quotient(G, H)
        assert Q.mul == quotient_table_by_scan(G, H)
        assert list(pi.images) == coset_labels_by_scan(G, H)[1]
    else:
        with pytest.raises(NotNormal) as info:
            quotient(G, H)
        assert info.value.witness == outside
