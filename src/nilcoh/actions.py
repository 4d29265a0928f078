"""Actions of one finite group on another by automorphisms, the induced
semidirect product, and finite G-sets.

Left-action convention throughout: act(j, n) applies the automorphism of j to
n, and the semidirect multiplication is (n1, j1)(n2, j2) = (n1 * act(j1, n2),
j1 j2).  The single source of truth tying this to conjugation is the checked
identity  embed_J(j)' embed_N(n) embed_J(j) = embed_N(act(j', n)), which
`semidirect_embeddings` tests on every table said to be a semidirect product.
"""

from __future__ import annotations

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
    composer,
    conjugates,
    coset_representatives,
    group_from_rows,
    respects_generators,
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
    return respects_generators(N, N.mul, perm)


def _first_mismatch(group: Group, perms: Sequence[tuple[int, ...]]) -> tuple[int, int] | None:
    """None when perms[a*g] == perms[a] after perms[g] for every element a and
    every g in group.gens, tested with one C-level composition per (a, g);
    otherwise the first failing pair (a, g), by a and then by g."""
    mul = group.mul
    if all([perms[row[g]] for row in mul] == list(map(composer(perms[g]), perms))
           for g in group.gens):
        return None
    return next((a, g) for a, pa in enumerate(perms) for g in group.gens
                if perms[mul[a][g]] != compose(pa, perms[g]))


class ActionOnGroup:
    """A homomorphism from J into Aut(N), one permutation of N per J-element.

    The homomorphism property is checked on (element, generator) pairs, which
    suffices by the lemma on `Group.gens`.  An action is immutable, so its
    H1 results and its semidirect product are computed once and kept on it.
    The entries must be Python ints, as in `Group`.
    """

    __slots__ = ("actor", "target", "auto", "name", "_h1_cache", "_semidirect")

    def __init__(self, actor: Group, target: Group, auto: Sequence[Sequence[int]],
                 name: str | None = None):
        perms = tuple(map(tuple, auto))
        if len(perms) != actor.order:
            raise ValueError("need one permutation of N per element of J")
        for j, perm in enumerate(perms):
            if not is_automorphism(target, perm):
                raise NotAutomorphism(f"image of element {j} is not an automorphism")
        ident = tuple(range(target.order))
        if perms[0] != ident:
            raise NotAHomomorphism("identity of J must act as the identity map")
        pair = _first_mismatch(actor, perms)
        if pair is not None:
            raise NotAHomomorphism(
                "action of product {}*{} differs from composed action".format(*pair))
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
    gen_perms = [tuple(map(int, img)) for img in images]
    takes = [composer(p) for p in gen_perms]
    auto: dict[int, tuple[int, ...]] = {0: tuple(range(N.order))}
    for j, slot, k in cayley_tree(J, gens):
        auto[k] = takes[slot](auto[j])
    if len(auto) != J.order:
        raise DoesNotGenerate(f"generators reach only {len(auto)} of {J.order} elements")
    action = ActionOnGroup(J, N, [auto[j] for j in range(J.order)], name=name)
    for g, pg in zip(gens, gen_perms):
        if auto[g] != pg:
            raise NotAHomomorphism(f"images are inconsistent with relations at element {g}")
    return action


def conjugation_action_with_maps(
    G: Group, N: Subgroup, J: Subgroup, name: str | None = None
) -> tuple[ActionOnGroup, tuple[int, ...], tuple[int, ...]]:
    """The action of J on N by conjugation inside G, with the element maps of
    actor and target into G; J must normalize N."""
    # j acts by n -> j n j', which is conjugation by j'.
    images = [conjugates(G, N.elements, G.inv[j]) for j in J.elements]
    for j, img in zip(J.elements, images):
        if not N._set.issuperset(img):
            raise NotNormalized(f"element {j} does not normalize the target")
    Jg, j_map = J.as_group()
    Ng, n_map = N.as_group()
    auto = [N.positions(img) for img in images]
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
    embedded = embed_N.images
    if any(G.mul[x][:nj] != tuple(range(x, x + nj)) for x in embedded):
        return None
    for j in range(nj):
        if conjugates(G, embedded, j) != compose(embedded, action.auto[J.inv[j]]):
            return None
    return embed_N, embed_J


class SemidirectProduct:
    """The group N x| J for an action, with its embeddings and projection.

    Element (n, j) has index n * |J| + j, so the identity is index 0, and
    the product (n1, j1)(n2, j2) = (n1 act(j1, n2), j1 j2).  The rows of the
    generators (n, 0) for n in N.gens and (0, j) for j in J.gens come from
    the product formula, and `group_from_rows` builds every other row as one
    composition along their walk, which is at once the proof that the table
    is a group.  `semidirect_embeddings` then checks that it is the
    semidirect table of the action.  When the generators' rows do not reach
    every element, NotAHomomorphism says so.
    """

    __slots__ = ("action", "group", "embed_N", "embed_J", "project_J")

    def __init__(self, action: ActionOnGroup, order_cap: int = DEFAULT_ORDER_CAP):
        N, J = action.target, action.actor
        size, nj = _product_order(action, order_cap), J.order
        gens = [(n, 0) for n in N.gens] + [(0, j) for j in J.gens]
        rows = [(n * nj + j, _semidirect_row(action, n, j)) for n, j in gens]
        try:
            group = group_from_rows(size, rows, name="semidirect")
        except DoesNotGenerate as exc:
            raise NotAHomomorphism(f"in N x| J, {exc}") from exc
        embeddings = semidirect_embeddings(action, group)
        if embeddings is None:
            raise NotAHomomorphism(
                "conjugation in the semidirect product does not realize the action"
            )
        self.action = action
        self.group = group
        self.embed_N, self.embed_J = embeddings
        self.project_J = GroupHom(group, J, list(range(J.order)) * N.order)

    def n_part(self) -> Subgroup:
        return self.embed_N.image()

    def j_part(self) -> Subgroup:
        return self.embed_J.image()


def _semidirect_row(action: ActionOnGroup, n1: int, j1: int) -> tuple[int, ...]:
    """Row (n1, j1) of the semidirect table, by the product formula: entry
    n2 * |J| + j2 is m * |J| + J.mul[j1][j2] with m = n1 act(j1, n2)."""
    nj, jrow = action.actor.order, action.actor.mul[j1]
    return tuple(m * nj + x for m in compose(action.target.mul[n1], action.auto[j1])
                 for x in jrow)


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
    suffices by the lemma on `Group.gens`.  The entries must be Python ints,
    as in `Group`.
    """

    __slots__ = ("group", "size", "act")

    def __init__(self, group: Group, act: Sequence[Sequence[int]]):
        tables = tuple(map(tuple, act))
        if len(tables) != group.order:
            raise ValueError("need one point permutation per group element")
        size = len(tables[0]) if tables else 0
        if size > DEFAULT_GSET_CAP:
            raise OrderCapExceeded(f"G-set size {size} exceeds cap {DEFAULT_GSET_CAP}")
        pts = list(range(size))
        for g, row in enumerate(tables):
            if len(row) != size or sorted(row) != pts:
                raise ValueError(f"element {g} does not act by a permutation")
        if tables and tables[0] != tuple(pts):
            raise ValueError("identity must act trivially")
        pair = _first_mismatch(group, tables)
        if pair is not None:
            raise ValueError("action is not a homomorphism at ({}, {})".format(*pair))
        self.group = group
        self.size = size
        self.act = tables

    def orbit(self, point: int, S: Subgroup | None = None) -> set[int]:
        """The orbit of the point under S (default: the whole group), found
        breadth first by the generators of S, which reach every element of
        S as words since an inverse is a positive power."""
        movers = S.gens if S is not None else self.group.gens
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
    reps, label = coset_representatives(G, H)
    take = composer(reps)
    return GSet(G, [compose(label, take(row)) for row in G.mul])


def is_transitive(gset: GSet, S: Subgroup) -> bool:
    """Whether S has a single orbit on the points."""
    if gset.size == 0:
        return False
    return len(gset.orbit(0, S)) == gset.size


def fixed_points(gset: GSet, S: Subgroup) -> list[int]:
    """The points that S fixes: those that its generators fix."""
    return [
        w for w in range(gset.size) if all(gset.act[s][w] == w for s in S.gens)
    ]


def stabilizer(gset: GSet, point: int) -> Subgroup:
    if not 0 <= point < gset.size:
        raise ValueError(f"point {point} outside G-set of size {gset.size}")
    return Subgroup(
        gset.group,
        (g for g in range(gset.group.order) if gset.act[g][point] == point),
    )
