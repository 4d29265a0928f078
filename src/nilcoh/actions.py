"""Actions of one finite group on another by automorphisms, the induced
semidirect product, and finite G-sets.

Left-action convention throughout: act(j, n) applies the automorphism of j to
n, and the semidirect multiplication is (n1, j1)(n2, j2) = (n1 * act(j1, n2),
j1 j2).  The single source of truth tying this to conjugation is the checked
identity  embed_J(j)' embed_N(n) embed_J(j) = embed_N(act(j', n)), which
`semidirect_embeddings` tests on every table said to be a semidirect product.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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
    compose,
    composer,
    conjugates,
    conjugates_into,
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


def _first_mismatch(group: Group, perms: Sequence[tuple[int, ...]]) -> tuple[int, int]:
    """The first pair (a, g), by a and then by g in group.gens, with
    perms[a*g] != perms[a] after perms[g]."""
    mul = group.mul
    return next((a, g) for a, pa in enumerate(perms) for g in group.gens
                if perms[mul[a][g]] != compose(pa, perms[g]))


def _walk_points(group: Group, generator_perms: Iterable[tuple[int, Sequence[int]]],
                 size: int) -> tuple[tuple[int, ...], ...]:
    """The permutations P_x of range(size), one per element x, of the
    homomorphism from the group that sends each generator s to the P_s of
    its pair (s, P_s): the package's one proof that a map into permutations
    is a homomorphism.

    Each P_s must be a permutation of range(size).  The walk starts from the
    identity permutation at element 0; for every element x it reaches and
    every generator s it forms P_x after P_s once, for the element x*s read
    from group.mul.  The first such edge into an element stores that
    permutation, and every other edge must equal the one stored
    (NotAHomomorphism otherwise, naming the edge).  Every element must be
    reached (DoesNotGenerate otherwise), so each is a word in the s, and
    P_{x*s} = P_x P_s for every x and s with P_0 the identity; the induction
    of the lemma on `Group.gens` then makes x -> P_x a homomorphism, and
    P_s is the one given, since the identity's edges store or match it.
    This is the orbit walk of Holt, Eick & O'Brien (*Handbook of
    Computational Group Theory*, 2005, §4.1): one composition and at most
    one comparison per (element, generator) pair.  It keeps every edge,
    where `groups._walk_rows` composes on tree edges only and proves the
    rest by commuting its generators with its columns: that proof needs the
    permutations to be regular, and a G-set need not be.
    """
    steps = [(s, composer(perm)) for s, perm in generator_perms]
    perms: list[tuple[int, ...] | None] = [None] * group.order
    perms[0] = tuple(range(size))
    reached = [0]
    for x in reached:                      # reached grows while it is walked
        row, px = group.mul[x], perms[x]
        for s, take in steps:
            y = row[s]
            product = take(px)
            if perms[y] is None:
                perms[y] = product
                reached.append(y)
            elif perms[y] != product:
                raise NotAHomomorphism(
                    f"images are inconsistent with relations at element {y} = {x}*{s}")
    if len(reached) != group.order:
        raise DoesNotGenerate(f"generators reach only {len(reached)} of {group.order} elements")
    return tuple(perms)


class ActionOnGroup:
    """A homomorphism from J into Aut(N), one permutation of N per J-element.

    A table given whole is proven by the walk on points (`_walk_points`)
    from the images of `J.gens`, through `action_from_generator_images`:
    it is accepted exactly when the walk rebuilds it.  Only when it does not
    does a scan name the first defect, in this order: an element whose image
    is not an automorphism, the identity acting other than trivially, the
    first (element, generator) pair whose images do not compose.  An action
    is immutable, so its H1 results and its semidirect product are computed
    once and kept on it.  The entries must be Python ints, as in `Group`.
    """

    __slots__ = ("actor", "target", "auto", "name", "_h1_cache", "_semidirect")

    def __init__(self, actor: Group, target: Group, auto: Sequence[Sequence[int]]):
        perms = tuple(map(tuple, auto))
        if len(perms) != actor.order:
            raise ValueError("need one permutation of N per element of J")
        try:
            walked = action_from_generator_images(
                actor, target, actor.gens, [perms[g] for g in actor.gens]).auto
        except (NotAutomorphism, NotAHomomorphism):
            walked = None
        if walked != perms:
            for j, perm in enumerate(perms):
                if not is_automorphism(target, perm):
                    raise NotAutomorphism(f"image of element {j} is not an automorphism")
            if perms[0] != tuple(range(target.order)):
                raise NotAHomomorphism("identity of J must act as the identity map")
            raise NotAHomomorphism("action of product {}*{} differs from composed action"
                                   .format(*_first_mismatch(actor, perms)))
        self._keep(actor, target, perms, None)

    def _keep(self, actor: Group, target: Group, auto: tuple, name: str | None) -> None:
        self.actor, self.target, self.auto, self.name = actor, target, auto, name
        self._h1_cache: dict = {}
        self._semidirect: SemidirectProduct | None = None

    def __repr__(self) -> str:
        tag = self.name or "action"
        return f"<{tag}: |J|={self.actor.order} on |N|={self.target.order}>"


def trivial_action(J: Group, N: Group) -> ActionOnGroup:
    return action_from_generator_images(J, N, J.gens, [range(N.order)] * len(J.gens),
                                        name="trivial")


def action_from_generator_images(
    J: Group,
    N: Group,
    gens: Sequence[int],
    images: Sequence[Sequence[int]],
    name: str | None = None,
) -> ActionOnGroup:
    """Extend generator images to the unique action homomorphism, if one exists.

    Each image must be an automorphism of N (NotAutomorphism otherwise).
    One walk on points (`_walk_points`) extends the images to every element
    of J and proves the extension a homomorphism; it raises NotAHomomorphism
    at the first edge where the images are inconsistent with J's relations,
    and DoesNotGenerate when the generators do not reach all of J.  Every
    element acts by a composition of automorphisms, which is one.
    """
    if len(gens) != len(images):
        raise ValueError("need exactly one image per generator")
    for img in images:
        if not is_automorphism(N, img):
            raise NotAutomorphism(f"{list(img)} is not an automorphism of the target")
    for g in gens:
        if not 0 <= g < J.order:
            raise ValueError(f"generator {g} outside group of order {J.order}")
    action = ActionOnGroup.__new__(ActionOnGroup)
    action._keep(J, N, _walk_points(J, zip(gens, images), N.order), name)
    return action


def conjugation_action_with_maps(
    G: Group, N: Subgroup, J: Subgroup
) -> tuple[ActionOnGroup, tuple[int, ...], tuple[int, ...]]:
    """The action of J on N by conjugation inside G, with the element maps of
    actor and target into G.

    J must normalize N, which it does exactly when its generators do.
    Otherwise NotNormalized names the first generator that does not, which
    is the least element of J that does not: `J.gens` is greedy in index
    order, so every smaller element lies in the group of the generators
    before it.  Only the conjugations by `J.gens` are formed, and
    `action_from_generator_images` walks them.
    """
    # j acts by n -> j n j', which is conjugation by j'.
    j = next((j for j in J.gens if not conjugates_into(G, N, N, G.inv[j])), None)
    if j is not None:
        raise NotNormalized(f"element {j} does not normalize the target")
    Jg, j_map = J.as_group()
    Ng, n_map = N.as_group()
    images = [N.positions(conjugates(G, N.elements, G.inv[j])) for j in J.gens]
    action = action_from_generator_images(Jg, Ng, J.positions(J.gens), images)
    return action, j_map, n_map


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
    """The group N x| J for an action, with its embeddings.

    Element (n, j) has index n * |J| + j, so the identity is index 0, and
    the product (n1, j1)(n2, j2) = (n1 act(j1, n2), j1 j2).  The rows of the
    generators (n, 0) for n in N.gens and (0, j) for j in J.gens come from
    the product formula, and `group_from_rows` builds every other row as one
    composition along their walk, which is at once the proof that the table
    is a group.  `semidirect_embeddings` then checks that it is the
    semidirect table of the action.  When the generators' rows do not reach
    every element, NotAHomomorphism says so.  The embedded N and J are built
    on the first call of `n_part` and `j_part` and kept.
    """

    __slots__ = ("action", "group", "embed_N", "embed_J", "_n_part", "_j_part")

    def __init__(self, action: ActionOnGroup):
        N, J = action.target, action.actor
        size, nj = _product_order(action), J.order
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
        self._n_part: Subgroup | None = None
        self._j_part: Subgroup | None = None

    def n_part(self) -> Subgroup:
        if self._n_part is None:
            self._n_part = self.embed_N.image()
        return self._n_part

    def j_part(self) -> Subgroup:
        if self._j_part is None:
            self._j_part = self.embed_J.image()
        return self._j_part


def _semidirect_row(action: ActionOnGroup, n1: int, j1: int) -> tuple[int, ...]:
    """Row (n1, j1) of the semidirect table, by the product formula: entry
    n2 * |J| + j2 is m * |J| + J.mul[j1][j2] with m = n1 act(j1, n2)."""
    nj, jrow = action.actor.order, action.actor.mul[j1]
    return tuple(m * nj + x for m in compose(action.target.mul[n1], action.auto[j1])
                 for x in jrow)


def _product_order(action: ActionOnGroup) -> int:
    """|N||J|, or OrderCapExceeded when it is above DEFAULT_ORDER_CAP."""
    size = action.target.order * action.actor.order
    if size > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(f"|N x| J| = {size} exceeds cap {DEFAULT_ORDER_CAP}")
    return size


def semidirect(action: ActionOnGroup) -> SemidirectProduct:
    """The action's semidirect product, built on the first call and kept on
    the action."""
    if action._semidirect is None:
        action._semidirect = SemidirectProduct(action)
    return action._semidirect


class GSet:
    """A finite set with a G-action, stored as one point permutation per element.

    A table given whole is proven by the walk on points (`_walk_points`)
    from the permutations of `group.gens`: it is accepted exactly when the
    walk rebuilds it.  Only when it does not does a scan name the first
    defect, in this order: an element that does not act by a permutation,
    the identity acting other than trivially, the first (element, generator)
    pair whose permutations do not compose.  The entries must be Python
    ints, as in `Group`.
    """

    __slots__ = ("group", "size", "act")

    def __init__(self, group: Group, act: Sequence[Sequence[int]]):
        tables = tuple(map(tuple, act))
        if len(tables) != group.order:
            raise ValueError("need one point permutation per group element")
        size = len(tables[0])
        if size > DEFAULT_GSET_CAP:
            raise OrderCapExceeded(f"G-set size {size} exceeds cap {DEFAULT_GSET_CAP}")
        pts = list(range(size))
        moves = [(g, tables[g]) for g in group.gens]
        walked = None
        if all(sorted(row) == pts for _, row in moves):
            try:
                walked = _walk_points(group, moves, size)
            except NotAHomomorphism:
                pass
        if walked != tables:
            for g, row in enumerate(tables):
                if len(row) != size or sorted(row) != pts:
                    raise ValueError(f"element {g} does not act by a permutation")
            if tables[0] != tuple(pts):
                raise ValueError("identity must act trivially")
            raise ValueError("action is not a homomorphism at ({}, {})"
                             .format(*_first_mismatch(group, tables)))
        self.group, self.size, self.act = group, size, tables

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
    """Left multiplication on the left cosets of H; point 0 is the coset H.

    Only the permutations of `G.gens` are formed (s sends coset i to the
    coset of s * reps[i]), and the walk on points extends them to a
    homomorphism rho.  The walk proves a G-set, not which one, so every x
    must also send point 0 to the coset of x (ValueError otherwise).  Then
    rho(x) sends the coset yH = rho(y)(0) to rho(xy)(0) = xyH, which is G/H.
    """
    reps, label = coset_representatives(G, H)
    act = _walk_points(G, [(s, compose(label, compose(G.mul[s], reps))) for s in G.gens],
                       len(reps))
    if [p[0] for p in act] != list(label):
        x = next(x for x, p in enumerate(act) if p[0] != label[x])
        raise ValueError(f"element {x} does not send the coset H to its own coset")
    gset = GSet.__new__(GSet)
    gset.group, gset.size, gset.act = G, len(reps), act
    return gset


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
