"""Cocycle enumeration against the brute-force oracle, the complement
correspondence, restriction/conjugation/invariance, the Sylow-wise
decomposition, and the abelian cross-check."""

import json
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh.actions import (
    ActionOnGroup,
    action_from_generator_images,
    semidirect,
    trivial_action,
)
from nilcoh.cohomology import (
    Cocycle,
    cocycle_to_complement,
    cocycles,
    cocycles_bruteforce,
    decomposition_map,
    eq3_check,
    extend_from_sylow,
    fixed_classes,
    h1,
    shared_primes,
)
from nilcoh.errors import (
    BudgetExceeded,
    DomainMismatch,
    NotAbelian,
    NoPreimageFound,
    NotASubgroup,
    NotNilpotent,
)
from nilcoh.groups import (
    Subgroup,
    conjugates,
    full_subgroup,
    group_from_permutations,
    normalizer,
    subgroup_generated,
)
from nilcoh.harness import cli
from nilcoh.harness.catalog import catalog_by_id, conjugation_self_action, inversion_action
from nilcoh.structure import (
    complements,
    enumerate_subgroups_of_order,
    hall_pprime,
    is_nilpotent,
    minimal_generators,
    prime_factors,
    subgroup_conjugacy_classes,
    sylow_subgroup,
)
from nilcoh.theorems import verify_lemma1
from conftest import (
    CATALOG,
    abelian,
    abelian_h1_table_by_scan,
    center,
    check_cocycle,
    cohomologous,
    complement_to_cocycle,
    conjugate_cocycle,
    cyclic,
    decomposition_fields,
    decomposition_fields_of_rebuilt,
    dihedral,
    h1_classes_by_twist,
    h1_of_classes,
    h1_store_matches_twist,
    heisenberg,
    homomorphisms_by_scan,
    invariant_classes_by_twist,
    primary_part,
    quaternion8,
    restrict,
    trivial_subgroup,
    twist,
)


def inv_c4():
    C2, C4 = cyclic(2), cyclic(4)
    return action_from_generator_images(C2, C4, [1], [C4.inv], name="inv")


def test_spot_values_inversion_on_c4():
    a = inv_c4()
    zs = cocycles(a)
    assert len(zs) == 4
    assert [c.values for c in zs] == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert h1(a).size == 2


def test_spot_values_swap_on_v4():
    from nilcoh.harness.catalog import swap_action

    a = swap_action(cyclic(2))
    zs = cocycles(a)
    assert [c.values for c in zs] == [(0, 0), (0, 3)]  # identity and (1,1)
    assert h1(a).size == 1


def test_oracle_equivalence_on_small_catalog_instances():
    # Every catalog action fits the brute-force budget.
    for inst in CATALOG:
        a = inst.action()
        fast = [c.values for c in cocycles(a)]
        brute = [c.values for c in cocycles_bruteforce(a)]
        assert fast == brute, inst.id


def test_oracle_on_proper_subgroup_domain():
    from nilcoh.harness.catalog import catalog_by_id

    a = catalog_by_id()["c6_inv_c6"].action()
    for p in (2, 3):
        K = sylow_subgroup(a.actor, p)
        fast = [c.values for c in cocycles(a, K)]
        brute = [c.values for c in cocycles_bruteforce(a, K)]
        assert fast == brute


S3_PERMS = [(1, 0, 2), (1, 2, 0)]
A4_PERMS = [(1, 2, 0, 3), (1, 0, 3, 2)]
S4_PERMS = [(1, 0, 2, 3), (1, 2, 3, 0)]
A5_PERMS = [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]


def _non_normal_chain_steps(J) -> int:
    """How many steps K_i < K_{i+1} = <K_i, g> of the chain that `cocycles`
    walks on J have a g that does not normalize K_i."""
    gens = full_subgroup(J).gens
    steps = 0
    for i, g in enumerate(gens):
        Ki = subgroup_generated(J, gens[:i])
        steps += any(y not in Ki for y in conjugates(J, Ki.elements, g))
    return steps


def test_cocycles_match_oracle_on_non_normal_chains():
    # Each of S3, A4, S4 and A5 has a chain step whose new generator does not
    # normalize the subgroup so far, so the coset extension meets right
    # cosets that are not left cosets.
    for perms in (S3_PERMS, A4_PERMS, S4_PERMS, A5_PERMS):
        J = group_from_permutations(perms)
        assert _non_normal_chain_steps(J) >= 1, J.order
        actions = [trivial_action(J, cyclic(2)), trivial_action(J, abelian([2, 2]))]
        if J.order <= 24:
            actions.append(conjugation_self_action(J))
        for a in actions:
            fast = [c.values for c in cocycles(a)]
            assert fast == [c.values for c in cocycles_bruteforce(a)], (J.order, a.name)
            assert all(check_cocycle(a, full_subgroup(J), t) for t in fast)
            got = [[c.values for c in cls] for cls in h1(a).classes]
            assert got == h1_classes_by_twist(a), (J.order, a.name)
    # |Hom(S4, S4)| = 58, one cocycle of conjugation per homomorphism.
    assert len(cocycles(conjugation_self_action(group_from_permutations(S4_PERMS)))) == 58


def _closure(perms: list[tuple[int, ...]], degree: int) -> list[tuple[int, ...]]:
    """The permutations that perms generate, sorted, as group_from_permutations
    indexes them."""
    seen = {tuple(range(degree))}
    frontier = list(seen)
    while frontier:
        frontier = [q for q in {tuple(p[i] for i in g) for p in frontier for g in perms}
                    if q not in seen]
        seen.update(frontier)
    return sorted(seen)


def _odd(perm: tuple[int, ...]) -> bool:
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2 == 1


@st.composite
def permutation_actors(draw):
    """Two random permutations of degree 3 to 5 generate J, which acts
    trivially on a small N, by the sign through inversion on C3 or C4, or on
    itself by conjugation (up to order 24); the domain is J or a subgroup
    that two random elements generate."""
    degree = draw(st.integers(3, 5))
    perms = [tuple(draw(st.permutations(range(degree)))) for _ in range(2)]
    J = group_from_permutations(perms, degree=degree)
    kind = draw(st.sampled_from(("trivial", "sign", "conjugation")))
    if kind == "conjugation" and J.order <= 24:
        action = conjugation_self_action(J)
    elif kind == "sign":
        N = draw(st.sampled_from((cyclic(3), cyclic(4))))
        ident = tuple(range(N.order))
        auto = [N.inv if _odd(p) else ident for p in _closure(perms, degree)]
        action = ActionOnGroup(J, N, auto)
    else:
        action = trivial_action(J, draw(st.sampled_from(
            (cyclic(2), cyclic(3), abelian([2, 2]), cyclic(4)))))
    if draw(st.booleans()):
        return action, None
    seeds = draw(st.lists(st.integers(0, J.order - 1), min_size=2, max_size=2))
    return action, subgroup_generated(J, seeds)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(permutation_actors())
def test_cocycles_match_oracle_on_random_permutation_actors(drawn):
    action, K = drawn
    fast = [c.values for c in cocycles(action, K)]
    brute = [c.values for c in cocycles_bruteforce(action, K)]
    assert fast == brute, (action.actor.order, action.target.order, action.name, K)


def test_trivial_action_cocycles_are_homomorphisms():
    J, N = cyclic(6), cyclic(3)
    a = trivial_action(J, N)
    zs = cocycles(a)
    assert sorted(c.values for c in zs) == homomorphisms_by_scan(J, N)


def test_trivial_domain_has_one_cocycle():
    a = inv_c4()
    K = trivial_subgroup(a.actor)
    assert len(cocycles(a, K)) == 1
    assert len(cocycles_bruteforce(a, K)) == 1


def test_coprime_trivial_hom_count():
    a = trivial_action(cyclic(3), cyclic(4))
    assert len(cocycles_bruteforce(a)) == 1


def test_enumeration_budget():
    from nilcoh.harness.catalog import catalog_by_id

    a = catalog_by_id()["c3_shear_c3c3"].action()
    with pytest.raises(BudgetExceeded):
        cocycles(a, budget=2)
    with pytest.raises(BudgetExceeded):
        cocycles_bruteforce(a, budget=2)


def test_chain_enumeration_closed_forms():
    # C7 x C7 has no involution, so only the trivial map leaves C2^4.
    a = trivial_action(abelian([2, 2, 2, 2]), abelian([7, 7]))
    H = h1(a)
    assert H.cocycle_count() == H.size == 1
    # A trivial action on an abelian N has no coboundaries, and
    # |Hom(C2^3, C2^5)| = 2^15.
    a = trivial_action(abelian([2, 2, 2]), abelian([2, 2, 2, 2, 2]))
    H = h1(a)
    assert H.cocycle_count() == H.size == 2 ** 15


def test_h1_builds_one_generating_sequence(monkeypatch):
    import nilcoh.groups as groups

    a = conjugation_self_action(heisenberg(3))
    K = subgroup_generated(a.actor, [1])
    real = groups.generating_sequence
    calls = []

    def counted(G, elements, limit=None):
        calls.append(G)
        return real(G, elements, limit)

    monkeypatch.setattr(groups, "generating_sequence", counted)
    h1(a)
    assert calls == []                 # full_subgroup(J) is proven by its size
    h1(a, K)
    assert calls == []


def test_cached_h1_builds_no_subgroup(monkeypatch):
    # A hit on the whole of J is looked up by range(|J|) before any domain
    # is built: no Subgroup, and no walk.
    import nilcoh.groups as groups

    a = conjugation_self_action(heisenberg(3))
    first = h1(a)
    real_walk, real_init = groups.generating_sequence, groups.Subgroup.__init__
    walks, built = [], []

    def counted_walk(G, elements, limit=None):
        walks.append(G)
        return real_walk(G, elements, limit)

    def counted_init(self, parent, elements):
        built.append(parent)
        real_init(self, parent, elements)

    monkeypatch.setattr(groups, "generating_sequence", counted_walk)
    monkeypatch.setattr(groups.Subgroup, "__init__", counted_init)
    assert h1(a) is first
    assert (walks, built) == ([], [])
    with pytest.raises(NotASubgroup):
        h1(a, full_subgroup(heisenberg(3)))


def _inner_on_s3(J):
    """J acting on S3 with every generator conjugating by one transposition."""
    S3 = dihedral(3)
    tau = next(x for x in range(1, S3.order) if S3.mul[x][x] == 0)
    image = conjugates(S3, range(S3.order), tau)
    return action_from_generator_images(J, S3, J.gens, [image] * len(J.gens))


# id: (action, |Z1|).  The elementary abelian actors give every check of
# the last step a pair of free representatives, so its outcome is kept by
# value; C2^4 on C4 prunes by the power relation v^2 = 1, once per step;
# on S3 a survivor's own checks prune after the shared ones, and then its
# filtered vectors replace the shared values; C4 x C4 on C8 has steps with
# free representatives g, g^2, g^3; C3 x C3 on Heis(3) reaches 297 from 27
# candidates a step; C2^5 on C2^2 has 256 survivors at its last step.
SHARING_PATHS = {
    "c2e4_triv_c4": (lambda: trivial_action(abelian([2, 2, 2, 2]), cyclic(4)), 16),
    "c2e3_inner_s3": (lambda: _inner_on_s3(abelian([2, 2, 2])), 22),
    "c2e4_triv_s3": (lambda: trivial_action(abelian([2, 2, 2, 2]), dihedral(3)), 46),
    "c4c2c2_triv_c2": (lambda: trivial_action(abelian([4, 2, 2]), cyclic(2)), 8),
    "c4c4_triv_c8": (lambda: trivial_action(abelian([4, 4]), cyclic(8)), 16),
    "c3c3_triv_heis3": (lambda: trivial_action(abelian([3, 3]), heisenberg(3)), 297),
    "c2e5_triv_c2e2": (lambda: trivial_action(abelian([2] * 5), abelian([2, 2])), 1024),
}


@pytest.mark.parametrize("name", list(SHARING_PATHS))
def test_cocycles_match_the_oracle_on_each_sharing_path(name):
    build, z1 = SHARING_PATHS[name]
    a = build()
    J = a.actor
    for K in [None] + [sylow_subgroup(J, p) for p in prime_factors(J.order)]:
        fast = [c.values for c in cocycles(a, K)]
        assert len(fast) == z1, K
        assert fast == [c.values for c in cocycles_bruteforce(a, K)], K


@pytest.mark.parametrize("build, composes, composers", [
    (lambda: trivial_action(abelian([2, 2, 2]), abelian([2, 2, 2, 2])), 122, 0),
    (lambda: conjugation_self_action(heisenberg(3)), 1091, 1),
], ids=["c2e3_triv_c2e4", "heis3_conj_heis3"])
def test_cocycles_share_what_no_survivor_changes(monkeypatch, build, composes, composers):
    # Redoing every step's shared work for each survivor made 3,205
    # compositions and built 280 composers on C2^3 -> C2^4, and 1,195 and
    # 222 on Heis(3) acting on itself.  Writing the last step's value
    # tables, not codes, made 634 and 0, and 983 and 166.
    from nilcoh import cohomology

    a = build()
    made = {"compose": 0, "composer": 0}
    real_compose, real_composer = cohomology.compose, cohomology.composer

    def counted_compose(p, q):
        made["compose"] += 1
        return real_compose(p, q)

    def counted_composer(q):
        made["composer"] += 1
        return real_composer(q)

    monkeypatch.setattr(cohomology, "compose", counted_compose)
    monkeypatch.setattr(cohomology, "composer", counted_composer)
    cocycles(a)
    assert made == {"compose": composes, "composer": composers}


def test_h1_classes_match_the_twist_partition_oracle(monkeypatch):
    # Besides the catalog: trivial actions on abelian N, where N/C = 1 and
    # every class is one cocycle (4096 of them from C2^3 to C2^4); C2
    # inverting C_n, whose n cocycles form 2 classes through n/2 - 1 twists
    # besides the central coset; and heis3 on itself.  Every accessor of the
    # stored H1 is checked, and the decomposition reads the stored H1s and
    # the ones rebuilt from the oracle alike.
    actions = [(inst.id, inst.build()) for inst in CATALOG]
    actions.append(("c2e3_triv_c2e4",
                    trivial_action(abelian([2, 2, 2]), abelian([2, 2, 2, 2]))))
    actions.append(("c2e4_triv_c5c5",
                    trivial_action(abelian([2, 2, 2, 2]), abelian([5, 5]))))
    actions += [(f"c2_inv_c{n}", inversion_action(cyclic(n))) for n in (32, 64, 128, 256)]
    actions.append(("heis3_conj_heis3", conjugation_self_action(heisenberg(3))))
    for iid, a in actions:
        J = a.actor
        rebuilt = {None if K is None else K.elements: h1_store_matches_twist(a, K)
                   for K in [None] + [sylow_subgroup(J, p) for p in prime_factors(J.order)]}
        stored = decomposition_fields(decomposition_map(a))
        assert decomposition_fields_of_rebuilt(monkeypatch, a, rebuilt) == stored, iid


def test_h1_budget_holds_on_a_cached_result():
    # The outcome of a budgeted call must not depend on what ran before.
    a = trivial_action(cyclic(2), cyclic(3))
    H = h1(a)
    assert h1(a, budget=3) is H
    with pytest.raises(BudgetExceeded, match="exceeds budget 2"):
        h1(a, budget=2)


def test_cocycles_and_h1_match_the_oracles_on_q8_and_d4_acting_on_themselves():
    # Q8's greedy sequence (1, 2, 4) starts with its central involution and
    # the enumeration walks (2, 4); D4 walks its greedy (1, 4).  The domains
    # are the whole group and every subgroup of order 4, cyclic or Klein.
    for G in (quaternion8(), dihedral(4)):
        a = conjugation_self_action(G)
        for K in [None] + enumerate_subgroups_of_order(G, 4, 2):
            fast = [c.values for c in cocycles(a, K)]
            assert fast == [c.values for c in cocycles_bruteforce(a, K)], (G.name, K)
            got = [[c.values for c in cls] for cls in h1(a, K).classes]
            assert got == h1_classes_by_twist(a, K), (G.name, K)


def test_h1_budget_counts_the_least_number_of_generators():
    # Heis(7) is 2-generated, so the budget bounds 343^2 candidates, not the
    # 343^3 of its greedy sequence (1, 7, 49); the refusal comes before any
    # enumeration.
    a = conjugation_self_action(heisenberg(7))
    with pytest.raises(BudgetExceeded,
                       match=re.escape("|N|^#gens = 343^2 exceeds budget 100000")):
        h1(a, budget=100_000)
    with pytest.raises(BudgetExceeded, match=re.escape("343^2 exceeds budget 100000")):
        cocycles(a, budget=100_000)


def test_h1_budget_holds_on_a_cached_heisenberg_result():
    # The cached result answers to the same d = 2 as the enumeration.
    a = conjugation_self_action(heisenberg(3))
    H = h1(a)
    assert h1(a, budget=27 ** 2) is H
    with pytest.raises(BudgetExceeded, match=re.escape("|N|^#gens = 27^2 exceeds budget 728")):
        h1(a, budget=27 ** 2 - 1)


def test_h1_refuses_a_domain_from_another_group_before_and_after_a_cached_call():
    # The cache key holds only the domain's elements, which a subgroup of
    # another group can share: full_subgroup(cyclic(2)) has J's elements.
    action = inversion_action(cyclic(4))
    foreign = full_subgroup(cyclic(2))
    with pytest.raises(NotASubgroup):
        h1(action, foreign)
    h1(action)
    with pytest.raises(NotASubgroup):
        h1(action, foreign)


def test_h1_calls_cocycles_once_per_cache_miss(monkeypatch):
    # The benchmark's tracer counts enumerations at the module global
    # `cocycles`: h1 calls it once for each result it builds, and not at all
    # for a cached one.
    from nilcoh import cohomology

    real = cohomology.cocycles
    calls = []

    def counted(action, K=None, budget=cohomology.GENERATOR_ENUM_BUDGET):
        calls.append(K.elements)
        return real(action, K, budget)

    monkeypatch.setattr(cohomology, "cocycles", counted)
    a = conjugation_self_action(heisenberg(3))
    K = sylow_subgroup(a.actor, 3)
    P = subgroup_generated(a.actor, [1])
    H = h1(a)
    assert calls == [tuple(range(a.actor.order))]
    assert h1(a) is H and h1(a, K) is H
    assert len(calls) == 1
    local = h1(a, P)
    assert calls[1:] == [P.elements]
    assert h1(a, P) is local and len(calls) == 2


@pytest.mark.parametrize("build", [
    lambda: trivial_action(abelian([2, 2, 2]), abelian([2, 2, 2, 2])),
    lambda: conjugation_self_action(heisenberg(3)),
    lambda: catalog_by_id()["c6_inv_c6"].action(),
], ids=["c2e3_triv_c2e4", "heis3_conj_heis3", "c6_inv_c6"])
def test_no_cocycle_is_made_unless_one_is_read(monkeypatch, capsys, build):
    # Z1 and H1 store value tables.  h1, the decomposition check, the
    # abelian cross-check, the stable classes and `nilcoh h1` read class
    # numbers and tables alone; a Cocycle is made only where a caller reads one.
    made = []
    real_init = Cocycle.__init__

    def counted_init(self, action, domain, values):
        made.append(values)
        real_init(self, action, domain, values)

    monkeypatch.setattr(Cocycle, "__init__", counted_init)
    a = build()
    H = h1(a)
    assert h1(a) is H
    assert verify_lemma1(a, "lemma1").conclusion_verified
    assert decomposition_map(a).bijective
    if a.target.is_abelian():
        assert eq3_check(a).ok
    assert fixed_classes(H, full_subgroup(a.actor))
    monkeypatch.setattr(cli, "_resolve_action", lambda args: ("probe", a))
    assert cli.main(["h1", "--instance", "probe", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["classes"] == H.size
    assert made == []
    # Each read makes the Cocycles it returns.
    assert len(H.reps()) == H.size and len(made) == H.size
    assert len(H.classes) == H.size and len(made) == H.size + H.cocycle_count()
    zs = list(cocycles(a))
    assert len(made) == H.size + 2 * H.cocycle_count() == H.size + 2 * len(zs)


def test_class_of_refuses_a_cocycle_of_another_action_or_domain():
    # A value table is looked up as it stands; a Cocycle must belong to the
    # H1's action and domain, even where its values are a key there.
    a = trivial_action(cyclic(2), cyclic(4))
    H = h1(a)
    assert [c.values for c in H.reps()] == [(0, 0), (0, 2)]
    assert H.class_of((0, 2)) == 1
    assert H.class_of(Cocycle(a, full_subgroup(a.actor), (0, 2))) == 1
    with pytest.raises(KeyError):
        H.class_of((0, 1))
    other = inversion_action(cyclic(4))
    for values in [(0, 2), (0, 1)]:
        with pytest.raises(DomainMismatch):
            H.class_of(Cocycle(other, full_subgroup(other.actor), values))
    with pytest.raises(DomainMismatch):
        H.class_of(Cocycle(a, trivial_subgroup(a.actor), (0,)))


def _changed_off_the_generators(H):
    """Each representative's table with its value at one element changed,
    the first that is neither 1 nor one of the generators its code is read
    at, so that the changed table still has the representative's code."""
    gens, order = minimal_generators(H.domain), H.action.target.order
    k = next((k for k, x in enumerate(H.domain.elements) if x and x not in gens), None)
    if k is None:
        return []
    return [rep[:k] + ((rep[k] + 1) % order,) + rep[k + 1:] for rep in H._rep_tables()]


def test_class_of_refuses_a_table_that_matches_only_at_the_generators():
    # H1 keys a cocycle by its values at the generators, so a lookup by a
    # table that is not known to be a cocycle compares the whole table.  The
    # Sylow domains are those of theorems' `Hq.class_of(phi_q)`.
    changed = 0
    for iid in ("c6_inv_c6", "c2c2_on_c4", "c3_inner_heis3", "q8_conj_q8", "c6_twist_q8c3"):
        a = catalog_by_id()[iid].action()
        for K in [None] + [sylow_subgroup(a.actor, p) for p in prime_factors(a.actor.order)]:
            H = h1(a, K)
            for table in _changed_off_the_generators(H):
                with pytest.raises(KeyError):
                    H.class_of(table)
                with pytest.raises(KeyError):
                    H.class_of(Cocycle(a, H.domain, table))
                changed += 1
    assert changed >= 30


def test_extend_from_sylow_refuses_a_recipe_that_matches_only_at_the_generators(monkeypatch):
    # The recipe is broken at one element x of J off J's generators: x is sent
    # to another element of J_2 than its 2-part.  Every recipe table keeps the
    # values of a true extension at the generators, where its code is read,
    # so only the comparison of whole tables can refuse it.
    from nilcoh import cohomology

    a = catalog_by_id()["c6_inv_c6"].action()
    J = a.actor
    J2 = sylow_subgroup(J, 2)
    assert extend_from_sylow(a, 2, 1) != h1(a).distinguished
    x = next(x for x in range(1, J.order) if x not in minimal_generators(full_subgroup(J)))
    real = cohomology.p_parts

    def broken(G, p, elements):
        parts = list(real(G, p, elements))
        parts[x] = next(y for y in J2.elements if y != parts[x])
        return parts

    monkeypatch.setattr(cohomology, "p_parts", broken)
    with pytest.raises(NoPreimageFound):
        extend_from_sylow(a, 2, 1)


@pytest.mark.parametrize("enumerate_or_partition, count", [
    (cocycles, len), (h1, lambda H: H.cocycle_count())], ids=["cocycles", "h1"])
def test_z1_and_h1_keep_no_table_per_cocycle(enumerate_or_partition, count):
    # 4,096 cocycles on C2^3 -> C2^4: a tuple of their 8 values each would
    # keep about 0.5 MB.  The store keeps one 8-byte code per cocycle.
    import gc
    import tracemalloc

    a = trivial_action(abelian([2, 2, 2]), abelian([2, 2, 2, 2]))
    gc.collect()
    tracemalloc.start()
    try:
        kept = enumerate_or_partition(a)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert count(kept) == 4096
    assert retained < 16 * 4096


def test_codes_past_eight_bytes_are_kept_in_a_list():
    # Under a budget of 10^21, C2^6 -> C_2048 has codes below 2048^6 = 2^66,
    # past 8-byte entries; the 64 homomorphisms still come out in table
    # order, each its own class.
    a = trivial_action(abelian([2] * 6), cyclic(2048))
    z = cocycles(a, budget=10 ** 21)
    tables = [c.values for c in z]
    assert len(set(tables)) == 64 and tables == sorted(tables)
    assert all(check_cocycle(a, z.domain, t) for t in tables)
    H = h1(a, budget=10 ** 21)
    assert [H.class_of(t) for t in tables] == list(range(64))


def test_cohomologous_witnesses():
    a = inv_c4()
    zs = {c.values: c for c in cocycles(a)}
    phi0 = zs[(0, 0)]
    assert cohomologous(phi0, phi0) == 0
    # Twisting the zero cocycle by n=1 lands on values (0, 2).
    assert cohomologous(phi0, zs[(0, 2)]) == 1
    assert cohomologous(phi0, zs[(0, 1)]) is None


def test_cohomologous_domain_mismatch():
    a = inv_c4()
    phi = cocycles(a)[0]
    rho = restrict(phi, trivial_subgroup(a.actor))
    with pytest.raises(DomainMismatch):
        cohomologous(phi, rho)


def test_h1_partition_is_twist_orbit():
    a = inv_c4()
    H = h1(a)
    N = a.target
    for cls in H.classes:
        rep = cls[0]
        orbit = {twist(rep, n).values for n in range(N.order)}
        assert orbit == {c.values for c in cls}
    assert H.distinguished == 0
    assert H.reps()[0].values == (0,) * H.domain.order


def test_cocycle_is_a_frozen_value_object():
    # A Cocycle read from `cocycles` is made by its constructor, as any
    # other; it is a value: no assignment, no instance dict, and equality
    # and hashing by (action, domain, values).
    from dataclasses import FrozenInstanceError

    a = inv_c4()
    phi = cocycles(a)[1]
    with pytest.raises(FrozenInstanceError):
        phi.values = (0, 0)
    assert not hasattr(phi, "__dict__")
    same = Cocycle(a, full_subgroup(a.actor), (0, 1))
    assert phi is not same and phi == same and hash(phi) == hash(same)
    assert phi == cocycles(a)[1] and hash(phi) == hash(cocycles(a)[1])
    assert phi != Cocycle(a, phi.domain, (0, 3))
    assert phi != Cocycle(inv_c4(), phi.domain, phi.values)
    assert phi != Cocycle(a, trivial_subgroup(a.actor), phi.values)
    assert len({phi, same, *cocycles(a)}) == 4


def test_complement_correspondence_round_trip():
    a = inv_c4()
    P = semidirect(a)
    for phi in cocycles(a):
        K = cocycle_to_complement(P, phi)
        back = complement_to_cocycle(P, K)
        assert back.values == phi.values
    n_sub = P.n_part()
    for K in complements(P.group, n_sub):
        phi = complement_to_cocycle(P, K)
        assert cocycle_to_complement(P, phi).elements == K.elements


def test_complement_cocycle_values():
    a = inv_c4()
    P = semidirect(a)
    emb_j = P.j_part()
    assert complement_to_cocycle(P, emb_j).values == (0, 0)
    K = Subgroup(P.group, [0, 5])  # contains (a^2, r)
    assert complement_to_cocycle(P, K).values == (0, 2)
    with pytest.raises(ValueError):
        complement_to_cocycle(P, P.n_part())


def test_cohomologous_iff_n_conjugate():
    from nilcoh.harness.catalog import catalog_by_id

    for iid in ("c2_inv_c4", "c2_swap_c2c2", "c6_inv_c3", "c4_swap_c2c2"):
        a = catalog_by_id()[iid].action()
        P = semidirect(a)
        zs = cocycles(a)
        G, n_sub = P.group, P.n_part()
        for x in zs:
            Kx = cocycle_to_complement(P, x)
            for y in zs:
                Ky = cocycle_to_complement(P, y)
                related = cohomologous(x, y) is not None
                n_conj = any(
                    Kx.conjugate_by(n).elements == Ky.elements
                    for n in n_sub.elements
                )
                assert related == n_conj


def test_class_count_matches_complement_classes():
    from nilcoh.harness.catalog import catalog_by_id
    from nilcoh.harness.suite import correspondence_report

    actions = [catalog_by_id()[iid].action()
               for iid in ("c2_inv_c4", "c2_swap_c2c2", "c2_inv_c6", "c4_inv_c4",
                           "c3_cycle_q8", "d4_proj_c4")]
    # Complements of C2 in C2 x C2^4 need four generators.
    actions.append(trivial_action(abelian([2, 2, 2, 2]), cyclic(2)))
    for a in actions:
        P = semidirect(a)
        comps = complements(P.group, P.n_part())
        classes = subgroup_conjugacy_classes(P.group, comps, under=P.n_part())
        assert len(comps) == len(cocycles(a)), a
        assert h1(a).size == len(classes), a
        report = correspondence_report(a, repr(a))
        assert report.passed and not report.falsification, (a, report.witness)
    assert report.witness == {"h1_classes": 16, "complements": 16,
                              "n_conjugacy_classes": 16}


def test_restriction():
    from nilcoh.harness.catalog import catalog_by_id

    a = catalog_by_id()["c6_inv_c3"].action()
    J = a.actor
    J3 = sylow_subgroup(J, 3)
    for phi in cocycles(a):
        rho = restrict(phi, J3)
        # The 3-part acts trivially here, so restrictions are homomorphisms.
        for x in J3.elements:
            for y in J3.elements:
                xy = J.mul[x][y]
                assert rho.value_at(xy) == a.target.mul[rho.value_at(x)][rho.value_at(y)]
        assert restrict(phi, full_subgroup(J)).values == phi.values
    with pytest.raises(NotASubgroup):
        restrict(restrict(cocycles(a)[0], J3), sylow_subgroup(J, 2))


def test_res_h1_well_defined_on_members():
    from nilcoh.harness.catalog import catalog_by_id

    a = catalog_by_id()["c6_inv_c6"].action()
    H = h1(a)
    for p in (2, 3):
        K = sylow_subgroup(a.actor, p)
        for cls in H.classes:
            assert len({h1(a, K).class_of(restrict(c, K)) for c in cls}) == 1


def test_conjugate_cocycle_identity_element():
    a = inv_c4()
    for phi in cocycles(a):
        assert conjugate_cocycle(phi, 0).values == phi.values


def test_conjugate_cocycle_witness_is_value_at_inverse():
    # For a full-domain cocycle, phi^j = twist(phi, phi(j')) exactly.
    from nilcoh.harness.catalog import catalog_by_id

    for iid in ("c2_inv_c4", "c6_inv_c6", "q8_conj_q8", "c3_inner_heis3"):
        a = catalog_by_id()[iid].action()
        J = a.actor
        for phi in h1(a).reps():
            for j in range(J.order):
                conj = conjugate_cocycle(phi, j)
                witness = phi.value_at(J.inv[j])
                assert conj.values == twist(phi, witness).values


def test_conjugation_composes():
    from nilcoh.harness.catalog import catalog_by_id

    a = catalog_by_id()["c6_inv_c6"].action()
    J = a.actor
    phi = h1(a).reps()[1]
    for j1 in range(J.order):
        for j2 in range(J.order):
            lhs = conjugate_cocycle(conjugate_cocycle(phi, j1), j2)
            rhs = conjugate_cocycle(phi, J.mul[j1][j2])
            assert lhs.values == rhs.values


def test_conjugate_cocycle_is_valid_on_conjugate_domain():
    from nilcoh.harness.catalog import catalog_by_id

    a = catalog_by_id()["q8_conj_q8"].action()
    J = a.actor
    K = sylow_subgroup(J, 2)  # whole group; also try a proper subgroup
    K = subgroup_generated(J, [2])
    for phi in cocycles(a, K):
        for j in range(J.order):
            conj = conjugate_cocycle(phi, j)
            assert check_cocycle(a, conj.domain, conj.values)


def test_res_image_lands_in_invariants():
    from nilcoh.harness.catalog import catalog_by_id

    for iid in ("c2_inv_c4", "c6_inv_c6", "c6_inv_c3", "c9_pow4_c9"):
        a = catalog_by_id()[iid].action()
        for p in prime_factors(a.actor.order):
            K = sylow_subgroup(a.actor, p)
            local = h1(a, K)
            inv = set(fixed_classes(local, full_subgroup(a.actor)))
            assert {local.class_of(restrict(rep, K)) for rep in h1(a).reps()} <= inv, iid


def test_invariants_match_hall_fixed_classes_for_nilpotent_actor():
    from nilcoh.harness.catalog import catalog_by_id

    for iid in ("c6_inv_c6", "c6_inv_c3", "c6_inv_c12", "c9_pow4_c9"):
        a = catalog_by_id()[iid].action()
        for p in prime_factors(a.actor.order):
            K = sylow_subgroup(a.actor, p)
            local = h1(a, K)
            hall = hall_pprime(a.actor, p)
            assert (tuple(fixed_classes(local, full_subgroup(a.actor)))
                    == tuple(fixed_classes(local, hall)))


def test_fixed_classes_match_conjugate_cocycle():
    # Every domain <x, z> with z central, the cyclic ones among them, under
    # its normalizer and under J.  The normalizer can act on it nontrivially;
    # in the Heisenberg group, y and y' even conjugate x differently.  A
    # reflection subgroup of S3 or D4 is not normal: it meets some K^s in less
    # than K, where fixed_classes reads H1 of that meet.  Each Hall subgroup
    # centralizes its Sylow subgroup.
    from nilcoh.harness.catalog import EQ3_EXTRA

    actions = [inst.action() for inst in CATALOG + EQ3_EXTRA]
    actions.append(conjugation_self_action(heisenberg(3)))
    non_normal = 0
    for a in actions:
        J = a.actor
        domains = sorted({subgroup_generated(J, [x, z]) for x in range(J.order)
                          for z in center(J).elements}, key=lambda K: K.elements)
        pairs = [(K, S) for K in domains for S in (normalizer(J, K), full_subgroup(J))]
        if is_nilpotent(J):
            pairs += [(sylow_subgroup(J, p), hall_pprime(J, p))
                      for p in prime_factors(J.order)]
        for K, S in pairs:
            local = h1(a, K)
            assert tuple(fixed_classes(local, S)) == invariant_classes_by_twist(local, S), \
                (a.name, K, S)
        non_normal += sum(not K.is_normal() for K in domains)
    assert non_normal >= 10
    # The Sylow 2-subgroup P = D4 of S4 is self-normalizing, so only a
    # smaller meet can reject: 2 of the 4 classes of Hom(P, C2) are stable, as
    # many as Hom(S4, C2) has (Cartan and Eilenberg, Ch. XII).
    S4 = group_from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])
    a = trivial_action(S4, cyclic(2))
    P = sylow_subgroup(S4, 2)
    local = h1(a, P)
    assert fixed_classes(local, normalizer(S4, P)) == (0, 1, 2, 3)
    stable = fixed_classes(local, full_subgroup(S4))
    assert stable == invariant_classes_by_twist(local, full_subgroup(S4))
    assert len(stable) == h1(a).size == 2


def test_fixed_classes_on_generators_only_when_s_normalizes_k():
    # heis3 normalizes its normal subgroup K = <x, z> of order 9 and moves
    # 78 of the 105 classes of H1(K, heis3): deciding on S.gens must keep
    # exactly the 27 classes that every element fixes.
    a = conjugation_self_action(heisenberg(3))
    J = a.actor
    K = subgroup_generated(J, [3] + list(center(J).elements))
    S = full_subgroup(J)
    assert K.order == 9 and K.is_normal() and len(S.gens) < S.order
    H = h1(a, K)
    fixed = fixed_classes(H, S)
    assert fixed == invariant_classes_by_twist(H, S)
    assert len(fixed) == 27 and H.size == 105
    # S4 does not normalize its Sylow 2-subgroup P = D4, so every element is
    # tried: 4 of the 16 classes of Hom(P, C2 x C2) are stable, while the
    # normalizer P fixes all of them.
    S4 = group_from_permutations(S4_PERMS)
    a = trivial_action(S4, abelian([2, 2]))
    P = sylow_subgroup(S4, 2)
    H = h1(a, P)
    assert not P.is_normal()
    assert fixed_classes(H, full_subgroup(S4)) == invariant_classes_by_twist(
        H, full_subgroup(S4)) == (0, 4, 8, 12)
    assert fixed_classes(H, normalizer(S4, P)) == tuple(range(16))


def test_fixed_classes_reads_h1_of_each_distinct_meet_once(monkeypatch):
    # The 16 elements of S4 outside P = D4 conjugate P to the two other
    # Sylow 2-subgroups, and P meets each in the Klein four-group V4: one
    # new domain, enumerated once, decides all 16.
    from nilcoh import cohomology

    S4 = group_from_permutations(S4_PERMS)
    a = trivial_action(S4, abelian([2, 2]))
    P = sylow_subgroup(S4, 2)
    H = h1(a, P)
    domains, real_h1 = [], cohomology.h1
    monkeypatch.setattr(cohomology, "h1",
                        lambda action, K=None: domains.append(K) or real_h1(action, K))
    assert fixed_classes(H, full_subgroup(S4)) == (0, 4, 8, 12)
    [V4] = domains
    assert V4.order == 4 and V4.is_normal() and set(V4.elements) < set(P.elements)
    assert all(S4.element_order(x) <= 2 for x in V4.elements)


def test_fixed_classes_tries_one_element_per_right_coset(monkeypatch):
    # P = D4 does not normalize itself out of S4's 3 cosets of it: one pass
    # restricts each representative to V4, and one each conjugates it by an
    # element of the two cosets other than P, where every element of S4 made
    # 26 passes.  `invariant_classes_by_twist` agrees.
    from nilcoh import cohomology

    S4 = group_from_permutations(S4_PERMS)
    a = trivial_action(S4, abelian([2, 2]))
    P = sylow_subgroup(S4, 2)
    H = h1(a, P)
    passes, real_local_classes = [], cohomology._local_classes
    monkeypatch.setattr(cohomology, "_local_classes",
                        lambda *args: passes.append(args[3]) or real_local_classes(*args))
    assert fixed_classes(H, full_subgroup(S4)) == (0, 4, 8, 12)
    assert len(passes) == 3 and passes[0] == 0
    assert [x in P for x in passes[1:]] == [False, False]
    assert P.conjugate_by(passes[1]) != P.conjugate_by(passes[2])
    monkeypatch.undo()
    assert fixed_classes(H, full_subgroup(S4)) == invariant_classes_by_twist(H, full_subgroup(S4))


def test_all_classes_invariant_when_domain_is_whole_group():
    a = inv_c4()
    H = h1(a)
    assert fixed_classes(H, full_subgroup(a.actor)) == tuple(range(H.size))


def test_primary_projection_of_coprime_prime_is_trivial():
    from nilcoh.harness.catalog import catalog_by_id

    a = catalog_by_id()["c6_inv_c3"].action()  # |N| = 3; prime 3 only
    part = primary_part(a, 3)
    assert part.action.target.order == 3
    # For q = 2 the component is trivial (2 does not divide |N|).
    part2 = primary_part(a, 2)
    assert part2.action.target.order == 1
    assert h1(part2.action).size == 1


def _included_classes(a, q):
    """H1(J_q, N_q), H1(J_q, N) and the class table of the map that reads the
    values of the first in N."""
    part = primary_part(a, q)
    Jq = sylow_subgroup(a.actor, q)
    src, tgt = h1(part.action, Jq), h1(a, Jq)
    table = tuple(tgt.class_of(tuple(part.to_parent[v] for v in rep.values))
                  for rep in src.reps())
    return src, tgt, table


def test_include_coefficients_bijective():
    from nilcoh.harness.catalog import catalog_by_id

    a = catalog_by_id()["c2_inv_c6"].action()  # C2 inverting C6 = C2 x C3
    for q in (2, 3):
        src, tgt, table = _included_classes(a, q)
        assert sorted(table) == list(range(tgt.size))
        assert table[src.distinguished] == tgt.distinguished
    # Identity case: N already a q-group.
    b = catalog_by_id()["c2_inv_c4"].action()
    src, tgt, table = _included_classes(b, 2)
    assert table == tuple(range(tgt.size))
    assert primary_part(b, 2).to_parent == tuple(range(4))


def test_include_coefficients_preserves_fixedness():
    from nilcoh.harness.catalog import catalog_by_id

    for iid in ("c2_inv_c6", "c6_inv_c6", "c6_inv_c12"):
        a = catalog_by_id()[iid].action()
        for q in shared_primes(a):
            src, tgt, table = _included_classes(a, q)
            hall = hall_pprime(a.actor, q)
            src_fixed = set(fixed_classes(src, hall))
            tgt_fixed = set(fixed_classes(tgt, hall))
            for i in range(src.size):
                assert (i in src_fixed) == (table[i] in tgt_fixed), (iid, q)


def test_decomposition_spot_instances():
    from nilcoh.harness.catalog import catalog_by_id

    cat = catalog_by_id()
    rep = decomposition_map(cat["c2_inv_c4"].action())
    assert rep.shared_primes == (2,) and rep.bijective
    assert rep.h1_full.size == 2 and len(rep.blocks[0].fixed) == 2

    rep = decomposition_map(cat["c6_inv_c3"].action())
    assert rep.shared_primes == (3,)
    assert rep.blocks[0].h1_local.size == 3
    assert len(rep.blocks[0].fixed) == 1
    assert rep.h1_full.size == 1 and rep.bijective

    rep = decomposition_map(cat["c2_inv_c3"].action())
    assert rep.shared_primes == () and rep.h1_full.size == 1 and rep.bijective


def _patch_local_h1(monkeypatch, rebuild):
    """Make `decomposition_map` see rebuild(H) for every local H1(J_p, N)."""
    from nilcoh import cohomology

    real = cohomology.h1

    def local(action, K=None, budget=cohomology.GENERATOR_ENUM_BUDGET):
        H = real(action, K, budget)
        return H if K is None else rebuild(H)

    monkeypatch.setattr(cohomology, "h1", local)


def _split_classes(H):
    return h1_of_classes(H.action, H.domain, [[c] for cls in H.classes for c in cls])


def _split_and_reverse_classes(H):
    return h1_of_classes(H.action, H.domain,
                         [[c] for cls in reversed(H.classes) for c in reversed(cls)])


def _move_distinguished(H):
    moved = h1_of_classes(H.action, H.domain, H.classes)
    moved.distinguished = H.size - 1
    return moved


def _merge_first_classes(H):
    return h1_of_classes(H.action, H.domain,
                         [H.classes[0] + H.classes[1]] + list(H.classes[2:]))


def _patch_cohomology(monkeypatch, name, change):
    """Replace a cohomology function f by args -> change(args[0], f(*args))."""
    from nilcoh import cohomology

    real = getattr(cohomology, name)
    monkeypatch.setattr(cohomology, name, lambda *args: change(args[0], real(*args)))


def _patch_fixed_classes(monkeypatch, change):
    _patch_cohomology(monkeypatch, "fixed_classes", change)


@pytest.mark.parametrize("build", [
    lambda: trivial_action(abelian([2, 2, 2]), abelian([2, 2, 2, 2])),
    lambda: conjugation_self_action(heisenberg(3)),
], ids=["c2e3_triv_c2e4", "heis3_conj_heis3"])
def test_decomposition_of_a_p_group_actor_reads_its_own_index(monkeypatch, build):
    # J is its own Sylow subgroup, whose H1 is H1(J, N) from the cache, so
    # each cocycle's local class is its class in H1(J, N)'s store; a copy of
    # the local H1 forces the lookup of every value table, with the same report.
    own = decomposition_map(build())
    assert own.blocks[0].h1_local is own.h1_full
    _patch_local_h1(monkeypatch,
                    lambda H: h1_of_classes(H.action, H.domain, H.classes))
    looked_up = decomposition_map(build())
    assert looked_up.blocks[0].h1_local is not looked_up.h1_full
    assert decomposition_fields(own) == decomposition_fields(looked_up)
    assert own.bijective


# Each fault, its instance, and the report's failure, forward images and
# (well_defined, point_preserved, injective, surjective).  The failure names
# the least failing class, a split before the blocks' fixedness, and each
# class is sent to its representative's local tuple.
DECOMPOSITION_FAULTS = {
    "local_h1_splits_a_class": (
        "c6_inv_c6", lambda mp: _patch_local_h1(mp, _split_classes),
        "class 0 restricts to multiple local class tuples",
        ((0, 0), (3, 0)), (False, True, True, False)),
    "fixed_classes_drops_a_class": (
        "c6_inv_c6", lambda mp: _patch_fixed_classes(mp, lambda H, fixed: fixed[:-1]),
        "class 0 restricts at p=3 to class 0, which the Hall subgroup does not fix",
        ((0, 0), (1, 0)), (True, True, True, False)),
    "fixed_classes_drops_a_later_class": (
        "c2_inv_c4", lambda mp: _patch_fixed_classes(mp, lambda H, fixed: fixed[:-1]),
        "class 1 restricts at p=2 to class 1, which the Hall subgroup does not fix",
        ((0,), (1,)), (True, True, True, False)),
    "distinguished_class_moved": (
        "c6_inv_c6", lambda mp: _patch_local_h1(mp, _move_distinguished),
        "distinguished class does not map to the distinguished tuple",
        ((0, 0), (1, 0)), (True, False, True, True)),
    "two_classes_merged": (
        "c6_inv_c6", lambda mp: _patch_local_h1(mp, _merge_first_classes),
        "two classes restrict to the same local tuple",
        ((0, 0), (0, 0)), (True, True, False, True)),
    "fixed_classes_adds_a_class": (
        "c6_inv_c6", lambda mp: _patch_fixed_classes(mp, lambda H, fixed: tuple(range(H.size))),
        "fixed local tuple (0, 1) has no preimage",
        ((0, 0), (1, 0)), (True, True, True, False)),
    # The first block, p = 2, finds class 1 unfixed; the second, p = 3,
    # class 0, which is named.
    "fixed_classes_drops_classes_at_two_primes": (
        "c6_inv_c6", lambda mp: _patch_fixed_classes(
            mp, lambda H, fixed: tuple(c for c in fixed if c != 3 - H.domain.order)),
        "class 0 restricts at p=3 to class 0, which the Hall subgroup does not fix",
        ((0, 0), (1, 0)), (True, True, True, False)),
    # Each local cocycle its own class, numbered down from the last: class 0's
    # members restrict at p=2 to classes 3, 4 and 5, and its representative,
    # the zero cocycle, to 5; class 1's to 0, 1 and 2, and its representative
    # to 2.  The least tuples would be (3, 2) and (0, 2).
    "local_h1_splits_and_renumbers_classes": (
        "c6_inv_c6", lambda mp: _patch_local_h1(mp, _split_and_reverse_classes),
        "class 0 restricts to multiple local class tuples",
        ((5, 2), (2, 2)), (False, True, True, False)),
}


@pytest.mark.parametrize("fault", sorted(DECOMPOSITION_FAULTS))
def test_decomposition_failures_name_their_witness(monkeypatch, fault):
    from nilcoh.harness.catalog import catalog_by_id

    iid, patch, failure, forward, flags = DECOMPOSITION_FAULTS[fault]
    a = catalog_by_id()[iid].action()
    patch(monkeypatch)
    rep = decomposition_map(a)
    assert rep.failure == failure
    assert rep.forward == forward
    assert (rep.well_defined, rep.point_preserved, rep.injective, rep.surjective) == flags
    assert not rep.bijective


def test_decomposition_bijective_on_all_catalog_instances():
    for inst in CATALOG:
        rep = decomposition_map(inst.action())
        assert rep.bijective, (inst.id, rep.failure)
        point = tuple(b.h1_local.distinguished for b in rep.blocks)
        assert rep.forward[rep.h1_full.distinguished] == point


def test_eq1_primary_product_on_catalog():
    # Projecting values to N_q maps H1(J, N) bijectively onto the product of
    # H1(J, N_q) over the shared primes q; any other q gives one class, and a
    # q-group N projects onto itself class by class.
    for inst in CATALOG:
        a = inst.action()
        reps = h1(a).reps()
        tables, sizes = [], []
        for q in prime_factors(a.target.order):
            part = primary_part(a, q)
            Hq = h1(part.action)
            table = tuple(Hq.class_of(tuple(part.proj[v] for v in rep.values))
                          for rep in reps)
            if q not in shared_primes(a):
                assert Hq.size == 1, (inst.id, q)
                continue
            if part.action.target.order == a.target.order:
                assert table == tuple(range(len(reps))), inst.id
            tables.append(table)
            sizes.append(Hq.size)
        images = list(zip(*tables)) if tables else [()] * len(reps)
        assert sorted(images) == sorted(product(*map(range, sizes))), inst.id


def test_extend_from_sylow_round_trip():
    # Every Hall-fixed class of every nilpotent catalog action, on the full N
    # and on its q-primary part, lifts by the direct recipe and restricts
    # back to itself.
    lifted = 0
    for inst in CATALOG:
        a = inst.action()
        J = a.actor
        if not (is_nilpotent(J) and is_nilpotent(a.target)):
            continue
        for q in shared_primes(a):
            Jq = sylow_subgroup(J, q)
            for b in (a, primary_part(a, q).action):
                local = h1(b, Jq)
                Hfull = h1(b)
                for cls in fixed_classes(local, hall_pprime(J, q)):
                    ext = extend_from_sylow(b, q, cls)
                    back = restrict(Hfull.reps()[ext], Jq)
                    assert local.class_of(back.values) == cls, (inst.id, q, cls)
                    if cls == local.distinguished:
                        assert ext == Hfull.distinguished
                    lifted += 1
    assert lifted == 2 * 84


def test_extend_from_sylow_raises_when_the_recipe_fails(monkeypatch):
    # A recipe whose tables leave Z1 must surface; no search of H1(J, N)
    # may stand in for it.  The recipe is broken by sending each j to the
    # 2-part of j * 1 instead of j's own.  The distinguished class cannot
    # show this, since its zero cocycle extends under any map, so class 1 is
    # extended, which the true recipe does.
    from nilcoh import cohomology
    from nilcoh.harness.catalog import catalog_by_id

    a = catalog_by_id()["c6_inv_c6"].action()
    J = a.actor
    J2 = sylow_subgroup(J, 2)
    local = h1(a, J2)
    assert local.distinguished != 1 and 1 in fixed_classes(local, hall_pprime(J, 2))
    back = restrict(h1(a).reps()[extend_from_sylow(a, 2, 1)], J2)
    assert local.class_of(back.values) == 1
    real = cohomology.p_parts
    monkeypatch.setattr(cohomology, "p_parts",
                        lambda G, p, elements: real(G, p, [G.mul[x][1] for x in elements]))
    with pytest.raises(NoPreimageFound):
        extend_from_sylow(a, 2, 1)


def test_extend_from_sylow_requires_fixed_class():
    from nilcoh.harness.catalog import catalog_by_id

    a = catalog_by_id()["c6_inv_c3"].action()
    part = primary_part(a, 3)
    J3 = sylow_subgroup(a.actor, 3)
    local = h1(part.action, J3)
    hall = hall_pprime(a.actor, 3)
    fixed = set(fixed_classes(local, hall))
    unfixed = [i for i in range(local.size) if i not in fixed]
    assert unfixed
    with pytest.raises(ValueError):
        extend_from_sylow(part.action, 3, unfixed[0])


def test_extend_from_sylow_requires_nilpotent_target():
    # Glauberman's argument needs N = N_q x N_q'; a non-nilpotent N is
    # outside the lemma, so no NoPreimageFound may be reported for it.
    from nilcoh.harness.catalog import dihedral

    a = trivial_action(cyclic(2), dihedral(3))
    with pytest.raises(NotNilpotent):
        extend_from_sylow(a, 2, 0)


def test_coprime_actions_have_trivial_h1():
    for inst in CATALOG:
        if "coprime" in inst.tags:
            assert h1(inst.action()).size == 1, inst.id


def test_p_primary_classes_match_the_class_orders_of_the_product_table():
    # The classes of p-power order, read off the full class-product table,
    # whose oracle also checks that the product of every member of class i
    # with every member of class k lies in one class.
    from nilcoh.cohomology import _p_primary_classes
    from nilcoh.harness.catalog import EQ3_EXTRA

    actions = [inst.action() for inst in CATALOG + EQ3_EXTRA]
    # H1 = Hom(J, N) for a trivial action: C2 x C4 and C6, with classes of
    # order 4 and of order 6.
    actions += [trivial_action(cyclic(4), abelian([2, 4])),
                trivial_action(cyclic(6), cyclic(6))]
    checked, seen = 0, set()
    for a in actions:
        if not a.target.is_abelian():
            continue
        H = h1(a)
        table = abelian_h1_table_by_scan(H)
        orders = []
        for i in range(H.size):
            x, k = i, 1
            while x != H.distinguished:
                x, k = table[x][i], k + 1
            orders.append(k)
        seen.update(orders)
        for p in (2, 3, 5):
            powers = {p ** e for e in range(H.size.bit_length())}
            expected = tuple(i for i, o in enumerate(orders) if o in powers)
            assert _p_primary_classes(H, p) == expected, (a, p)
        checked += 1
    assert checked >= 20
    assert {4, 6} <= seen


def test_eq3_rejects_nonabelian_target():
    from nilcoh.harness.catalog import catalog_by_id

    with pytest.raises(NotAbelian):
        eq3_check(catalog_by_id()["q8_conj_q8"].action())


def test_eq3_on_abelian_catalog_instances():
    for inst in CATALOG:
        if "abelian_n" not in inst.tags:
            continue
        report = eq3_check(inst.action())
        assert report.ok, (inst.id, report.failure)


# Each fault, its instance, and the report's failure and flags
# (product_matches, restrictions_bijective).
EQ3_FAULTS = {
    "primary_part_is_every_class": (
        "c6_inv_c6", lambda mp: _patch_cohomology(
            mp, "_p_primary_classes", lambda H, primary: tuple(range(H.size))),
        "restriction at p=3 is not injective on the primary part", (True, False)),
    "primary_part_is_the_identity_class": (
        "c2_inv_c4", lambda mp: _patch_cohomology(
            mp, "_p_primary_classes", lambda H, primary: (0,)),
        "restriction at p=2 does not map the primary part onto the invariant classes",
        (True, False)),
    "first_shared_prime_dropped": (
        "c6_inv_c6", lambda mp: _patch_cohomology(
            mp, "shared_primes", lambda action, primes: primes[1:]),
        "|H1| = 2 but invariant class counts multiply to 1", (False, True)),
}


@pytest.mark.parametrize("fault", sorted(EQ3_FAULTS))
def test_eq3_failures_name_their_witness(monkeypatch, fault):
    iid, patch, failure, flags = EQ3_FAULTS[fault]
    a = catalog_by_id()[iid].action()
    patch(monkeypatch)
    report = eq3_check(a)
    assert report.failure == failure
    assert (report.product_matches, report.restrictions_bijective) == flags
    assert not report.ok


def test_eq3_builds_no_subgroup_to_decide_invariance(monkeypatch):
    from nilcoh import cohomology

    built = []
    real_init, real_fixed = Subgroup.__init__, cohomology.fixed_classes

    def counted_fixed(H, S):
        monkeypatch.setattr(Subgroup, "__init__",
                            lambda self, *args: built.append(1) or real_init(self, *args))
        try:
            return real_fixed(H, S)
        finally:
            monkeypatch.setattr(Subgroup, "__init__", real_init)

    monkeypatch.setattr(cohomology, "fixed_classes", counted_fixed)
    report = eq3_check(trivial_action(abelian([2, 2, 2]), abelian([2, 2, 2])))
    assert report.ok and report.invariant_sizes == (512,)
    assert built == []


def test_eq3_with_non_nilpotent_actor():
    from nilcoh.harness.catalog import EQ3_EXTRA

    for inst in EQ3_EXTRA:
        report = eq3_check(inst.action())
        assert report.ok, (inst.id, report.failure)
    # The S3-on-C3 instance specifically: restriction maps are bijections.
    s3c3 = EQ3_EXTRA[0].action()
    rep = eq3_check(s3c3)
    assert rep.shared_primes == (3,)
