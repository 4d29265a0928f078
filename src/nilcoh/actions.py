"""Actions of one finite group on another by automorphisms, the induced
semidirect product, and finite G-sets.

Left-action convention throughout: act(j, n) applies the automorphism of j to
n, and the semidirect multiplication is (n1, j1)(n2, j2) = (n1 * act(j1, n2),
j1 j2).  The single source of truth tying this to conjugation is the checked
identity  embed_J(j)' embed_N(n) embed_J(j) = embed_N(act(j', n)), which
`semidirect_embeddings` tests on every table said to be a semidirect product.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from .errors import (
    DoesNotGenerate,
    NotAHomomorphism,
    NotAutomorphism,
    NotNormalized,
    OrderCapExceeded,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    GroupHom,
    Subgroup,
    cayley_tree,
    compose,
    coset_representatives,
)

DEFAULT_GSET_CAP = 4096


def is_automorphism(N: Group, perm: Sequence[int]) -> bool:
    """Whether perm is a bijection of N fixing 0 that respects every product
    with a generator in N.gens, which by the lemma on `Group.gens` makes it
    respect every product."""
    if len(perm) != N.order or sorted(perm) != list(range(N.order)):
        return False
    if perm[0] != 0:
        return False
    mul = N.mul
    return all(
        perm[mul[a][g]] == mul[perm[a]][perm[g]] for a in range(N.order) for g in N.gens
    )


class ActionOnGroup:
    """A homomorphism from J into Aut(N), one permutation of N per J-element.

    The homomorphism property is checked on (element, generator) pairs, which
    suffices by the lemma on `Group.gens`.  An action is immutable, so its
    H1 results and its semidirect product are computed once and kept on it.
    """

    __slots__ = ("actor", "target", "auto", "name", "_h1_cache", "_semidirect")

    def __init__(self, actor: Group, target: Group, auto: Sequence[Sequence[int]],
                 name: str | None = None):
        perms = tuple(tuple(int(x) for x in p) for p in auto)
        if len(perms) != actor.order:
            raise ValueError("need one permutation of N per element of J")
        for j, perm in enumerate(perms):
            if not is_automorphism(target, perm):
                raise NotAutomorphism(f"image of element {j} is not an automorphism")
        ident = tuple(range(target.order))
        if perms[0] != ident:
            raise NotAHomomorphism("identity of J must act as the identity map")
        mul = actor.mul
        for a, pa in enumerate(perms):
            for g in actor.gens:
                if perms[mul[a][g]] != compose(pa, perms[g]):
                    raise NotAHomomorphism(
                        f"action of product {a}*{g} differs from composed action"
                    )
        self.actor = actor
        self.target = target
        self.auto = perms
        self.name = name
        self._h1_cache: dict = {}
        self._semidirect: SemidirectProduct | None = None

    def act(self, j: int, n: int) -> int:
        return self.auto[j][n]

    def is_trivial(self) -> bool:
        ident = tuple(range(self.target.order))
        return all(p == ident for p in self.auto)

    def __repr__(self) -> str:
        tag = self.name or "action"
        return f"<{tag}: |J|={self.actor.order} on |N|={self.target.order}>"


def trivial_action(J: Group, N: Group, name: str | None = None) -> ActionOnGroup:
    ident = tuple(range(N.order))
    return ActionOnGroup(J, N, [ident] * J.order, name=name or "trivial")


def action_from_generator_images(
    J: Group,
    N: Group,
    gens: Sequence[int],
    images: Sequence[Sequence[int]],
    name: str | None = None,
) -> ActionOnGroup:
    """Extend generator images to the unique action homomorphism, if one exists.

    Images are assigned along a spanning tree of J's Cayley graph.
    ActionOnGroup then checks that the result is a homomorphism, and each
    given generator must act by its given image: a mismatch at either step
    shows the images are inconsistent with J's relations.
    """
    if len(gens) != len(images):
        raise ValueError("need exactly one image per generator")
    for img in images:
        if not is_automorphism(N, img):
            raise NotAutomorphism(f"{list(img)} is not an automorphism of the target")
    gens = [int(g) for g in gens]
    for g in gens:
        if not 0 <= g < J.order:
            raise ValueError(f"generator {g} outside group of order {J.order}")
    gen_perms = [tuple(int(x) for x in img) for img in images]
    auto: dict[int, tuple[int, ...]] = {0: tuple(range(N.order))}
    for j, slot, k in cayley_tree(J, gens):
        auto[k] = compose(auto[j], gen_perms[slot])
    if len(auto) != J.order:
        raise DoesNotGenerate(f"generators reach only {len(auto)} of {J.order} elements")
    action = ActionOnGroup(J, N, [auto[j] for j in range(J.order)], name=name)
    for g, pg in zip(gens, gen_perms):
        if auto[g] != pg:
            raise NotAHomomorphism(f"images are inconsistent with relations at element {g}")
    return action


def conjugation_action(G: Group, N: Subgroup, J: Subgroup,
                       name: str | None = None) -> ActionOnGroup:
    """Action of J on N by conjugation inside G; J must normalize N."""
    action, _, _ = conjugation_action_with_maps(G, N, J, name=name)
    return action


def conjugation_action_with_maps(
    G: Group, N: Subgroup, J: Subgroup, name: str | None = None
) -> tuple[ActionOnGroup, tuple[int, ...], tuple[int, ...]]:
    """conjugation_action plus the element maps of actor and target into G."""
    for j in J.elements:
        for n in N.elements:
            if G.mul[G.mul[j][n]][G.inv[j]] not in N:
                raise NotNormalized(f"element {j} does not normalize the target")
    Jg, j_map = J.as_group()
    Ng, n_map = N.as_group()
    n_pos = {x: i for i, x in enumerate(n_map)}
    auto = [
        [n_pos[G.mul[G.mul[j][n]][G.inv[j]]] for n in n_map]
        for j in j_map
    ]
    return ActionOnGroup(Jg, Ng, auto, name=name), j_map, n_map


def semidirect_embeddings(action: ActionOnGroup,
                          G: Group) -> tuple[GroupHom, GroupHom] | None:
    """The embeddings n -> n * |J| of N and j -> j of J into G when G's table
    is the semidirect table of the action, else None.

    For a group G of order |N||J| this holds exactly when both maps are
    homomorphisms, element n * |J| + j is embed_N(n) embed_J(j), and
    conjugation realizes the action.  Then
    embed_N(n1) embed_J(j1) embed_N(n2) embed_J(j2)
    = embed_N(n1 act(j1, n2)) embed_J(j1 j2), which is the semidirect product.
    """
    N, J = action.target, action.actor
    nj = J.order
    if G.order != N.order * nj:
        return None
    try:
        embed_N = GroupHom(N, G, [n * nj for n in range(N.order)])
        embed_J = GroupHom(J, G, range(nj))
    except ValueError:
        return None
    mul = G.mul
    if any(mul[n * nj][j] != n * nj + j for n in range(N.order) for j in range(nj)):
        return None
    for j in range(nj):
        inv_auto = action.auto[J.inv[j]]
        if any(G.conj(n * nj, j) != inv_auto[n] * nj for n in range(N.order)):
            return None
    return embed_N, embed_J


class SemidirectProduct:
    """The group N x| J for an action, with its embeddings and projection.

    Element (n, j) has index n * |J| + j, so the identity is index 0.  The
    product (n1, j1)(n2, j2) = (m, j1 j2) with m = n1 act(j1, n2) has index
    m * |J| + J.mul[j1][j2], so row (n1, j1) of the table is the segments
    [m * |J| + x for x in J.mul[j1]] laid end to end, m running over
    n1 act(j1, n2) for n2 in order.  The |N| segments of each j1 are built
    once and shared by all |N| rows with that j1.
    """

    __slots__ = ("action", "group", "embed_N", "embed_J", "project_J")

    def __init__(self, action: ActionOnGroup, order_cap: int = DEFAULT_ORDER_CAP):
        N, J = action.target, action.actor
        size = _product_order(action, order_cap)
        nj = J.order
        segments = [[[m * nj + x for x in jrow] for m in range(N.order)] for jrow in J.mul]
        table = [
            list(chain.from_iterable(map(segs.__getitem__, map(n1_row.__getitem__, a1))))
            for n1_row in N.mul
            for segs, a1 in zip(segments, action.auto)
        ]
        group = Group(table, name="semidirect")
        embeddings = semidirect_embeddings(action, group)
        if embeddings is None:
            raise NotAHomomorphism(
                "conjugation in the semidirect product does not realize the action"
            )
        self.action = action
        self.group = group
        self.embed_N, self.embed_J = embeddings
        self.project_J = GroupHom(group, J, [g % nj for g in range(size)])

    def n_part(self) -> Subgroup:
        return self.embed_N.image()

    def j_part(self) -> Subgroup:
        return self.embed_J.image()


def _product_order(action: ActionOnGroup, order_cap: int) -> int:
    """|N||J|, or OrderCapExceeded when it is above the cap."""
    size = action.target.order * action.actor.order
    if size > order_cap:
        raise OrderCapExceeded(f"|N x| J| = {size} exceeds cap {order_cap}")
    return size


def semidirect(action: ActionOnGroup, order_cap: int = DEFAULT_ORDER_CAP) -> SemidirectProduct:
    """The action's semidirect product, built on the first call and kept on
    the action.  The order cap is checked on every call."""
    _product_order(action, order_cap)
    if action._semidirect is None:
        action._semidirect = SemidirectProduct(action, order_cap=order_cap)
    return action._semidirect


class GSet:
    """A finite set with a G-action, stored as one point permutation per element.

    The homomorphism property is checked on (element, generator) pairs, which
    suffices by the lemma on `Group.gens`.
    """

    __slots__ = ("group", "size", "act")

    def __init__(self, group: Group, act: Sequence[Sequence[int]],
                 size_cap: int = DEFAULT_GSET_CAP):
        tables = tuple(tuple(int(x) for x in row) for row in act)
        if len(tables) != group.order:
            raise ValueError("need one point permutation per group element")
        size = len(tables[0]) if tables else 0
        if size > size_cap:
            raise OrderCapExceeded(f"G-set size {size} exceeds cap {size_cap}")
        pts = list(range(size))
        for g, row in enumerate(tables):
            if len(row) != size or sorted(row) != pts:
                raise ValueError(f"element {g} does not act by a permutation")
        if tables and tables[0] != tuple(pts):
            raise ValueError("identity must act trivially")
        mul = group.mul
        for a, ta in enumerate(tables):
            for g in group.gens:
                if tables[mul[a][g]] != compose(ta, tables[g]):
                    raise ValueError(f"action is not a homomorphism at ({a}, {g})")
        self.group = group
        self.size = size
        self.act = tables

    def orbit(self, point: int, S: Subgroup | None = None) -> set[int]:
        movers = S.elements if S is not None else range(self.group.order)
        seen = {point}
        frontier = [point]
        while frontier:
            nxt = []
            for w in frontier:
                for g in movers:
                    v = self.act[g][w]
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen


def coset_gset(G: Group, H: Subgroup) -> GSet:
    """Left multiplication on the left cosets of H; point 0 is the coset H."""
    mul = G.mul
    reps, rep_of = coset_representatives(G, H)
    index = {rep: i for i, rep in enumerate(reps)}
    act = [[index[rep_of[mul[g][r]]] for r in reps] for g in range(G.order)]
    return GSet(G, act)


def is_transitive(gset: GSet, S: Subgroup) -> bool:
    """Whether S has a single orbit on the points."""
    if gset.size == 0:
        return False
    return len(gset.orbit(0, S)) == gset.size


def fixed_points(gset: GSet, S: Subgroup) -> list[int]:
    return [
        w for w in range(gset.size) if all(gset.act[s][w] == w for s in S.elements)
    ]


def stabilizer(gset: GSet, point: int) -> Subgroup:
    if not 0 <= point < gset.size:
        raise ValueError(f"point {point} outside G-set of size {gset.size}")
    return Subgroup(
        gset.group,
        (g for g in range(gset.group.order) if gset.act[g][point] == point),
    )
