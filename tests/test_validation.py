"""Generator-based table checks against brute-force oracles.

Group, GroupHom, ActionOnGroup and GSet test only products with a generator
in `Group.gens`.  Each sweep here builds inputs under a fixed seed, mostly by
corrupting valid structures from the catalog, and asserts that the
constructor rejects exactly the inputs that the all-triples or all-pairs
oracles in conftest reject.
"""

import random
from itertools import product

from nilcoh.actions import (
    ActionOnGroup,
    GSet,
    conjugation_action_with_maps,
    coset_gset,
    semidirect,
)
from nilcoh.errors import NilcohError, NoIdentity, NoInverse, NotAssociative, NotNormal
from nilcoh.groups import Group, GroupHom, quotient, subgroup_generated
from nilcoh.harness.catalog import conjugation_self_action
from conftest import (
    abelian,
    catalog_by_id,
    center,
    compose_by_scan,
    conjugation_table_by_formula,
    cyclic,
    dihedral,
    direct_product,
    group_axiom_broken_by_scan,
    heisenberg,
    homomorphic_by_scan,
    quaternion8,
    sign_action_table_by_formula,
    trivial_subgroup,
)


def group_verdict(table) -> str | None:
    """The axiom Group reports broken, in the oracle's words; None if accepted."""
    try:
        Group(table)
    except NoIdentity:
        return "identity"
    except NotAssociative as exc:
        a, b, c = exc.triple
        assert table[table[a][b]][c] != table[a][table[b][c]], exc.triple
        return "associativity"
    except NoInverse:
        return "inverse"
    return None


def accepts(build) -> bool:
    try:
        build()
    except (NilcohError, ValueError):
        return False
    return True


def test_every_order_3_table_matches_oracle():
    verdicts = []
    for entries in product(range(3), repeat=9):
        table = [list(entries[3 * i:3 * i + 3]) for i in range(3)]
        verdict = group_verdict(table)
        assert verdict == group_axiom_broken_by_scan(table), table
        verdicts.append(verdict)
    # Only the table of C3 with its identity at 0 is a group.
    assert verdicts.count(None) == 1
    assert {"identity", "associativity", "inverse"} <= set(verdicts)


def test_sampled_order_4_tables_with_identity_match_oracle():
    rng = random.Random(4)
    seen = set()
    for _ in range(3000):
        inner = [rng.randrange(4) for _ in range(9)]
        table = [[0, 1, 2, 3]] + [[i] + inner[3 * (i - 1):3 * i] for i in range(1, 4)]
        verdict = group_verdict(table)
        assert verdict == group_axiom_broken_by_scan(table), table
        seen.add(verdict)
    for G in (cyclic(4), abelian([2, 2])):
        assert group_verdict(G.mul) is None
    assert "associativity" in seen


def test_corrupted_group_tables_match_oracle():
    rng = random.Random(1961)
    verdicts = []
    for G in (cyclic(6), dihedral(3), dihedral(4), quaternion8(), abelian([2, 2, 2]),
              heisenberg(3)):
        n = G.order
        for _ in range(40):
            table = [list(row) for row in G.mul]
            a, b = rng.randrange(n), rng.randrange(n)
            table[a][b] = (table[a][b] + rng.randrange(1, n)) % n
            verdict = group_verdict(table)
            assert verdict == group_axiom_broken_by_scan(table), (G, a, b)
            verdicts.append(verdict)
        # A relabelling that keeps the identity at 0 is still a group.
        sigma = [0] + rng.sample(range(1, n), n - 1)
        relabelled = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                relabelled[sigma[a]][sigma[b]] = sigma[G.mul[a][b]]
        assert group_verdict(relabelled) is None is group_axiom_broken_by_scan(relabelled)
    assert {"identity", "associativity"} <= set(verdicts)


def _catalog_homs() -> list[GroupHom]:
    D4, Q8, C12 = dihedral(4), quaternion8(), cyclic(12)
    P = semidirect(catalog_by_id()["c2_inv_c4"].action())
    J, N = P.action.actor, P.action.target
    return [
        quotient(D4, subgroup_generated(D4, [1]))[1],
        quotient(Q8, center(Q8))[1],
        quotient(C12, subgroup_generated(C12, [4]))[1],
        P.embed_N, P.embed_J, GroupHom(P.group, J, list(range(J.order)) * N.order),
        GroupHom(cyclic(2), cyclic(2), [0, 0]),
        GroupHom(cyclic(4), cyclic(2), [0, 1, 0, 1]),
    ]


def test_corrupted_homomorphisms_match_oracle():
    rng = random.Random(7)
    verdicts = []
    for f in _catalog_homs():
        S, T = f.source, f.target
        for _ in range(30):
            images = list(f.images)
            x = rng.randrange(S.order)
            images[x] = (images[x] + rng.randrange(1, T.order)) % T.order
            verdict = accepts(lambda: GroupHom(S, T, images))
            assert verdict == homomorphic_by_scan(S, images, lambda a, b: T.mul[a][b]), \
                (S, T, images)
            verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def _gset_oracle(G: Group, rows) -> bool:
    points = list(range(len(rows[0])))
    return (all(sorted(row) == points for row in rows)
            and homomorphic_by_scan(G, [tuple(row) for row in rows], compose_by_scan))


def test_corrupted_gsets_match_oracle():
    rng = random.Random(11)
    P = semidirect(catalog_by_id()["c2_inv_c4"].action())
    D4, S3, C4 = dihedral(4), dihedral(3), cyclic(4)
    gsets = [
        coset_gset(cyclic(2), trivial_subgroup(cyclic(2))),
        coset_gset(C4, subgroup_generated(C4, [2])),
        coset_gset(D4, subgroup_generated(D4, [4])),
        coset_gset(S3, subgroup_generated(S3, [3])),
        coset_gset(P.group, P.j_part()),
        coset_gset(quaternion8(), trivial_subgroup(quaternion8())),
    ]
    verdicts = []
    for om in gsets:
        G, size = om.group, om.size
        for _ in range(40):
            rows = [list(row) for row in om.act]
            g = rng.randrange(G.order)
            kind = rng.randrange(3)
            if kind == 0:      # one entry
                rows[g][rng.randrange(size)] = rng.randrange(size)
            elif kind == 1:    # another element's permutation
                rows[g] = list(om.act[rng.randrange(G.order)])
            else:              # any permutation
                rows[g] = rng.sample(range(size), size)
            verdict = accepts(lambda: GSet(G, rows))
            assert verdict == _gset_oracle(G, rows), (G, rows)
            verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def _action_oracle(J: Group, N: Group, perms) -> bool:
    points = list(range(N.order))
    return (all(sorted(p) == points for p in perms)
            and all(homomorphic_by_scan(N, p, lambda a, b: N.mul[a][b]) for p in perms)
            and homomorphic_by_scan(J, [tuple(p) for p in perms], compose_by_scan))


def test_corrupted_actions_match_oracle():
    rng = random.Random(13)
    by_id = catalog_by_id()
    verdicts = []
    for ident in ("c2_inv_c4", "c2_swap_c2c2", "c2_triv_c2", "c2_triv_c4", "c4_inv_c4",
                  "c2c2_on_c4", "c3_cycle_q8", "c3_shear_c3c3", "d4_proj_c4", "q8_conj_q8"):
        action = by_id[ident].action()
        J, N = action.actor, action.target
        for _ in range(25):
            perms = [list(p) for p in action.auto]
            j = rng.randrange(J.order)
            kind = rng.randrange(3)
            if kind == 0:      # another element's automorphism
                perms[j] = list(action.auto[rng.randrange(J.order)])
            elif kind == 1:    # a product of two automorphisms
                k, m = rng.randrange(J.order), rng.randrange(J.order)
                perms[j] = list(compose_by_scan(action.auto[k], action.auto[m]))
            else:              # a permutation fixing the identity
                perms[j] = [0] + rng.sample(range(1, N.order), N.order - 1)
            verdict = accepts(lambda: ActionOnGroup(J, N, perms))
            assert verdict == _action_oracle(J, N, perms), (ident, perms)
            verdicts.append(verdict)
    assert set(verdicts) == {True, False}


# The full-table formulas of the catalog actions that are built from their
# generators' images.
ACTION_FORMULAS = {
    "q8_conj_q8": lambda a: conjugation_table_by_formula(a.actor),
    "d4_proj_c4": lambda a: sign_action_table_by_formula(a.actor, a.target, 4),
    "s3_sign_c3": lambda a: sign_action_table_by_formula(a.actor, a.target, 3),
    "s3_sign_c6": lambda a: sign_action_table_by_formula(a.actor, a.target, 3),
}


def test_catalog_actions_match_their_formula_and_the_oracle():
    # Every catalog action, built from generator images, is an action by the
    # all-pairs oracle, is accepted whole by ActionOnGroup, and is what
    # conjugation realizes in its semidirect product.
    for ident, inst in catalog_by_id().items():
        action = inst.action()
        J, N, auto = action.actor, action.target, action.auto
        if ident in ACTION_FORMULAS:
            assert [list(p) for p in auto] == ACTION_FORMULAS[ident](action), ident
        assert _action_oracle(J, N, auto), ident
        assert ActionOnGroup(J, N, [list(p) for p in auto]).auto == auto, ident
        P = semidirect(action)
        assert conjugation_action_with_maps(P.group, P.n_part(), P.j_part())[0].auto == auto
    for G in (dihedral(4), dihedral(3), heisenberg(3), direct_product(dihedral(3), cyclic(2))):
        assert [list(p) for p in conjugation_self_action(G).auto] == \
            conjugation_table_by_formula(G)


def test_normality_matches_oracle():
    verdicts = []
    for G in (dihedral(4), dihedral(6), quaternion8(), heisenberg(3),
              direct_product(cyclic(2), dihedral(3)), direct_product(dihedral(3), cyclic(2))):
        subgroups = {subgroup_generated(G, [a, b]) for a in G.elements() for b in G.elements()}
        for H in subgroups:
            normal = all(G.conj(h, g) in H for g in G.elements() for h in H.elements)
            assert H.is_normal() == normal, (G, H.elements)
            try:
                quotient(G, H)
            except NotNormal as exc:
                g, h = exc.witness
                assert G.conj(h, g) not in H
                assert not normal
            else:
                assert normal
            verdicts.append(normal)
    assert set(verdicts) == {True, False}
