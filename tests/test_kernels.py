"""The whole-row kernel `compose` and the table scans built on it: edge
sizes, exact witness messages, the tree-built semidirect table against the
product formula, and property tests against the scalar scans in conftest."""

import re
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh import actions, groups
from nilcoh.actions import ActionOnGroup, GSet, SemidirectProduct, coset_gset, semidirect, trivial_action
from nilcoh.errors import (
    DoesNotGenerate,
    NilcohError,
    NoIdentity,
    NotAHomomorphism,
    NotAssociative,
    NotNormal,
    OrderCapExceeded,
)
from nilcoh.groups import (
    Group,
    Subgroup,
    compose,
    full_subgroup,
    group_from_permutations,
    group_from_rows,
    quotient,
    subgroup_generated,
)
from nilcoh.harness.catalog import inversion_action
from conftest import (
    CATALOG,
    abelian,
    as_group_table_by_scan,
    catalog_by_id,
    coset_action_by_scan,
    coset_labels_by_scan,
    cyclic,
    dihedral,
    heisenberg,
    normality_witness_by_scan,
    permutation_table_by_pairs,
    quotient_table_by_scan,
    same_as_validated,
    semidirect_table_by_formula,
    subgroup_defect_by_scan,
    trivial_subgroup,
    walk_rows_by_every_edge,
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
    # Three mutants of the walk that builds the product, on each generator
    # row in turn: two entries other than entry 0 swapped, so the row is
    # still a permutation with the right entry 0; entry 0 swapped with entry
    # 1; and, once, the last generator (one of J's) left out, which reaches
    # only N x| <the other generators of J>, a proper subgroup since J's
    # greedy generating sequence is irredundant.
    action = catalog_by_id()[ident].action()
    N, J = action.target, action.actor
    size = J.order * N.order
    gens = [(n, 0) for n in N.gens] + [(0, j) for j in J.gens]
    right_row = actions._semidirect_row
    for target in gens:
        for (a, b), error in (((1, size - 1), (NotAssociative, NotAHomomorphism)),
                              ((size // 2, size // 2 + 1), (NotAssociative, NotAHomomorphism)),
                              ((0, 1), NoIdentity)):
            def swapped(action, n1, j1, a=a, b=b, target=target):
                row = list(right_row(action, n1, j1))
                if (n1, j1) == target:
                    row[a], row[b] = row[b], row[a]
                return tuple(row)
            monkeypatch.setattr(actions, "_semidirect_row", swapped)
            with pytest.raises(error):
                SemidirectProduct(action)
    monkeypatch.undo()
    right_walk = actions.group_from_rows
    monkeypatch.setattr(actions, "group_from_rows",
                        lambda order, rows, name=None: right_walk(order, rows[:-1], name))
    reached = N.order * subgroup_generated(J, J.gens[:-1]).order
    with pytest.raises(NotAHomomorphism, match=f"reach {reached} of {size} elements"):
        SemidirectProduct(action)


def _swap_in_generator_row(monkeypatch, slot, a, b):
    """Make `groups.group_from_rows` see generator row `slot` with entries a
    and b swapped: still a permutation, with entry 0 kept."""
    right_walk = groups.group_from_rows

    def swapped(order, rows, name=None):
        rows = list(rows)
        s, row = rows[slot]
        row = list(row)
        row[a], row[b] = row[b], row[a]
        rows[slot] = (s, tuple(row))
        return right_walk(order, rows, name)

    monkeypatch.setattr(groups, "group_from_rows", swapped)


def _swaps(order):
    return {(1, order - 1), (order // 2, order // 2 + 1), (1, 2)}


QUOTIENT_MUTANTS = {
    "D4/Z": (lambda: dihedral(4), [2]),
    "Heis3/Z": (lambda: heisenberg(3), [1]),
    "C4xC2xC3/C4": (lambda: abelian([4, 2, 3]), [6]),
    "D6/C3": (lambda: dihedral(6), [2]),
    "D8/C4": (lambda: dihedral(8), [2]),
}


@pytest.mark.parametrize("ident", QUOTIENT_MUTANTS)
def test_an_off_by_one_coset_label_is_rejected(monkeypatch, ident):
    # One mutant per element x: coset_representatives labels x with the
    # next coset.  The quotient's rows, its walk or its projection must
    # refuse every one.
    build, seeds = QUOTIENT_MUTANTS[ident]
    G = build()
    N = subgroup_generated(G, seeds)
    assert quotient(G, N)[0].mul == quotient_table_by_scan(G, N)
    right_labels = groups.coset_representatives
    for x in range(G.order):
        def wrong_labels(G, H, x=x):
            reps, label = right_labels(G, H)
            label = list(label)
            label[x] = (label[x] + 1) % len(reps)
            return reps, tuple(label)
        monkeypatch.setattr(groups, "coset_representatives", wrong_labels)
        with pytest.raises((NilcohError, ValueError)):
            quotient(G, N)


def _as_group_subjects():
    subjects = {}
    for ident in ("c3_inner_heis3", "c3_cycle_q8", "c6_twist_q8c3", "c2_inv_c2c4", "d4_proj_c4"):
        P = semidirect(catalog_by_id()[ident].action())
        subjects[f"{ident}/N"] = P.n_part()
        subjects[f"{ident}/G"] = full_subgroup(P.group)
    subjects["D8"] = full_subgroup(dihedral(8))
    subjects["C4xC2<C4xC2xC3"] = subgroup_generated(abelian([4, 2, 3]), [6, 3])
    subjects["C3xC3<Heis3"] = subgroup_generated(heisenberg(3), [9, 3])
    return subjects


@pytest.mark.parametrize("ident", list(_as_group_subjects()))
def test_a_swapped_entry_in_an_as_group_row_is_rejected(monkeypatch, ident):
    # Some swaps give the rows of another group of the same order (in
    # C4 x C2, one gives C8's); the walk proves only that the rows form a
    # group, and the check of the map to the parent refuses them.
    H = _as_group_subjects()[ident]
    assert H.as_group()[0].mul == as_group_table_by_scan(H)
    for slot in range(len(H.gens)):
        for a, b in _swaps(H.order):
            _swap_in_generator_row(monkeypatch, slot, a, b)
            with pytest.raises((NilcohError, ValueError)):
                H.as_group()
            monkeypatch.undo()


PERMUTATION_MUTANTS = {
    "S4": [[1, 2, 3, 0], [1, 0, 2, 3]],
    "A4": [[1, 2, 0, 3], [1, 0, 3, 2]],
    "D4": [[1, 2, 3, 0], [0, 3, 2, 1]],
    "C12": [[(i + 1) % 12 for i in range(12)]],
    "A5": [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]],
}


@pytest.mark.parametrize("ident", PERMUTATION_MUTANTS)
def test_a_swapped_entry_in_a_permutation_row_is_rejected(monkeypatch, ident):
    perms = PERMUTATION_MUTANTS[ident]
    order = group_from_permutations(perms).order
    for slot in range(len(perms)):
        for a, b in _swaps(order):
            _swap_in_generator_row(monkeypatch, slot, a, b)
            with pytest.raises((NilcohError, ValueError)):
                group_from_permutations(perms)
            monkeypatch.undo()


def test_a_swapped_permutation_row_can_describe_another_group(monkeypatch):
    # The walk proves that rows form a group table, not that they are the
    # closure's.  In V4 = <(0 1)(2 3), (0 2)(1 3)>, sorted as the identity,
    # (0 1)(2 3), (0 2)(1 3), (0 3)(1 2), the first generator's row is
    # (1, 0, 3, 2); with entries 1 and 3 swapped it is the 4-cycle
    # (1, 2, 3, 0), whose square is the second row, and the walk builds C4.
    perms = [[1, 0, 3, 2], [2, 3, 0, 1]]
    assert group_from_permutations(perms).mul == permutation_table_by_pairs(perms, 4, 4)
    _swap_in_generator_row(monkeypatch, 0, 1, 3)
    assert group_from_permutations(perms).mul == cyclic(4).mul


def _coset_subjects(P: SemidirectProduct) -> tuple[Subgroup, ...]:
    return P.j_part(), P.n_part(), trivial_subgroup(P.group)


def _point_swaps(size: int) -> set[tuple[int, int]]:
    """Every pair of points up to 12 points, else pairs at the ends and the
    middle, entry 0 among them."""
    if size <= 12:
        return {(a, b) for a in range(size) for b in range(a + 1, size)}
    return {(0, 1), (0, size - 1), (1, size - 1), (size // 2, size // 2 + 1)}


def _swap_in_coset_permutation(monkeypatch, slot, a, b):
    """Make the walk of `coset_gset` see the permutation of generator
    `slot` with entries a and b swapped."""
    right_walk = actions._walk_points

    def swapped(group, perms, size):
        perms = list(perms)
        s, perm = perms[slot]
        perm = list(perm)
        perm[a], perm[b] = perm[b], perm[a]
        perms[slot] = (s, perm)
        return right_walk(group, perms, size)

    monkeypatch.setattr(actions, "_walk_points", swapped)


@pytest.mark.parametrize("ident", [inst.id for inst in CATALOG])
def test_a_swapped_entry_in_a_coset_permutation_is_rejected(monkeypatch, ident):
    # coset_gset forms only the permutations of G.gens and walks them.  Every
    # mutant with two entries of one of them swapped must raise: the walk
    # refuses most, and the check that every x sends point 0 to the coset
    # of x refuses those that form another G-set.
    P = semidirect(catalog_by_id()[ident].action())
    G = P.group
    for H in _coset_subjects(P):
        assert coset_gset(G, H).act == coset_action_by_scan(G, H)
        for slot in range(len(G.gens)):
            for a, b in _point_swaps(G.order // H.order):
                _swap_in_coset_permutation(monkeypatch, slot, a, b)
                with pytest.raises((NilcohError, ValueError)):
                    coset_gset(G, H)
                monkeypatch.undo()


def test_a_swapped_coset_permutation_can_form_another_gset(monkeypatch):
    # C2 swapping the factors of C2 x C2, on the four cosets of J = {0, 1}:
    # the generator 1 of J swaps the cosets 1 and 2.  With those entries
    # swapped it acts trivially, and the walk builds a G-set in which J
    # acts trivially, which is not G/J; only the coset check refuses it, as
    # element 4 sends point 0 to 1 and not to its coset 2.
    P = semidirect(catalog_by_id()["c2_swap_c2c2"].action())
    G, H = P.group, P.j_part()
    right = coset_gset(G, H).act
    assert (G.gens, right[1], right[2]) == ((1, 2), (0, 2, 1, 3), (1, 0, 3, 2))
    _swap_in_coset_permutation(monkeypatch, 0, 1, 2)
    other = actions._walk_points(G, [(1, right[1]), (2, right[2])], 4)
    assert other[1] == (0, 1, 2, 3) and [p[0] for p in other] == [0, 0, 1, 1, 1, 1, 0, 0]
    with pytest.raises(ValueError, match="^element 4 does not send the coset H to its own coset$"):
        coset_gset(G, H)


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_coset_gsets_of_the_ladder_match_the_oracle(n):
    P = semidirect(inversion_action(cyclic(n)))
    for H in _coset_subjects(P):
        assert coset_gset(P.group, H).act == coset_action_by_scan(P.group, H)


def _draw_permutation_group(draw) -> Group:
    """A group generated by two permutations of degree 4 to 7, or by the
    first alone when the closure passes order 120 (the pairwise oracle's
    cap)."""
    degree = draw(st.integers(4, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=2, max_size=2))
    try:
        permutation_table_by_pairs(gens, degree, 120)
    except OrderCapExceeded:
        gens = gens[:1]
    return group_from_permutations(gens, degree=degree)


@st.composite
def groups_with_subsets(draw):
    """A group from `_draw_permutation_group`, a subset containing 0 and one
    or two seeds of a subgroup.  The 120 derandomized draws give groups of
    13 orders from 1 to 120, about half the subsets not closed and about a
    quarter of the subgroups not normal."""
    G = _draw_permutation_group(draw)
    elements = st.integers(0, G.order - 1)
    subset = draw(st.lists(elements, max_size=6))
    seeds = draw(st.lists(elements, min_size=1, max_size=2))
    return G, [0] + subset, seeds


@st.composite
def generator_rows_with_a_transposition(draw):
    """A group from `_draw_permutation_group`, the rows of its generators,
    and the same rows with two entries of one row swapped, entry 0 kept
    (None below order 3).  Moving entry 0 fails the walk's first check."""
    G = _draw_permutation_group(draw)
    rows = [(s, G.mul[s]) for s in G.gens]
    if G.order < 3:
        return G, rows, None
    slot = draw(st.integers(0, len(rows) - 1))
    a, b = draw(st.lists(st.integers(1, G.order - 1), min_size=2, max_size=2, unique=True))
    s, row = rows[slot]
    swapped = list(row)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    return G, rows, rows[:slot] + [(s, tuple(swapped))] + rows[slot + 1:]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(generator_rows_with_a_transposition())
def test_row_walk_builds_the_group_and_accepts_only_groups(case):
    # On the rows of G.gens the walk rebuilds G; on rows with one
    # transposition it raises, or builds a table that Group accepts with the
    # same gens and inv: it never accepts what Group would refuse.
    G, rows, mutant = case
    assert same_as_validated(G)
    W = group_from_rows(G.order, rows)
    assert (W.order, W.mul, W.gens, W.inv) == (G.order, G.mul, G.gens, G.inv)
    if mutant is None:
        return
    try:
        W = group_from_rows(G.order, mutant)
    except (NotAssociative, DoesNotGenerate):
        return
    assert same_as_validated(W)


def _small_row_sets():
    """Every set of 1 or 2 generator rows of degree 1 to 5, and of 3 rows of
    degree 4, as (degree, [(s, L_s), ...]) with s = L_s[0]: the generators
    may repeat, claim one element twice, or sit at index 0."""
    for degree in range(1, 6):
        rows = [(row[0], row) for row in permutations(range(degree))]
        for count in (1, 2):
            for chosen in product(rows, repeat=count):
                yield degree, list(chosen)
    rows = [(row[0], row) for row in permutations(range(4))]
    for chosen in product(rows, repeat=3):
        yield 4, list(chosen)


def _verdict(walk, order, rows):
    try:
        return walk(order, rows)
    except (NotAssociative, DoesNotGenerate) as exc:
        return type(exc)


def test_row_walk_accepts_exactly_what_the_every_edge_walk_accepts():
    # The tree walk with the commutation test against the walk that compares
    # every edge, on every small row set.  Accepted sets get the same rows
    # and inverses.  Refused sets may differ in the error only where the
    # rows both miss an element and break a relation: the tree walk then
    # says DoesNotGenerate, having checked the reach before any relation.
    tried = accepted = 0
    for order, rows in _small_row_sets():
        tree, every_edge = (_verdict(walk, order, rows)
                            for walk in (groups._walk_rows, walk_rows_by_every_edge))
        tried += 1
        if isinstance(every_edge, tuple):
            accepted += 1
            assert tree == every_edge, rows
        elif tree is NotAssociative or every_edge is DoesNotGenerate:
            assert tree is every_edge, rows
        else:
            assert tree is DoesNotGenerate, rows
    assert (tried, accepted) == (28994, 442)


@pytest.mark.parametrize("rows, error", [
    ([(1, (1, 2, 0)), (2, (2, 1, 0))], NotAssociative),        # S3: transitive, not regular
    ([(1, (1, 2, 0)), (0, (0, 2, 1))], NotAssociative),        # a non-identity row at 0
    ([(1, (1, 2, 3, 0)), (1, (1, 0, 3, 2))], NotAssociative),  # two rows claim element 1
    ([(1, (1, 0, 3, 2))], DoesNotGenerate),                     # reaches 2 of 4 elements
], ids=["s3_on_3_points", "non_identity_row_at_0", "two_rows_for_one_element", "short_reach"])
def test_row_walk_refuses_named_row_sets(rows, error):
    # In the first three the tree reaches every element, so only the
    # commutation test of the given rows (not the rows the tree stored) can
    # refuse them.
    with pytest.raises(error):
        groups._walk_rows(len(rows[0][1]), rows)


@pytest.mark.parametrize("build, order, d, count", [
    (lambda: semidirect(inversion_action(cyclic(256))).group, 512, 2, 511 + 8),
    (lambda: abelian([2] * 6), 64, 6, 63 + 72),
], ids=["c2_inv_c256", "c2^6"])
def test_row_walk_composes_tree_edges_and_generator_pairs_only(monkeypatch, build, order, d,
                                                               count):
    # n - 1 compositions along the tree and 2d^2 for the commutation test,
    # none on a non-tree edge; the every-edge walk made n*d.
    G = build()
    rows = [(s, G.mul[s]) for s in G.gens]
    assert (G.order, len(rows)) == (order, d)
    right_composer, made = groups.composer, []

    def counting_composer(q):
        take = right_composer(q)

        def counted(p):
            made.append(None)
            return take(p)
        return counted

    monkeypatch.setattr(groups, "composer", counting_composer)
    assert groups._walk_rows(G.order, rows) == (G.mul, G.inv)
    assert len(made) == count


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
    assert same_as_validated(HG)
    assert coset_gset(G, H).act == coset_action_by_scan(G, H)
    outside = normality_witness_by_scan(G, H, G.gens)
    if outside is None:
        Q, pi = quotient(G, H)
        assert Q.mul == quotient_table_by_scan(G, H)
        assert same_as_validated(Q)
        assert list(pi.images) == coset_labels_by_scan(G, H)[1]
    else:
        with pytest.raises(NotNormal) as info:
            quotient(G, H)
        assert info.value.witness == outside
