"""Finite groups as dense multiplication tables with 0-based element indices.

Every group lives on elements 0..order-1 with index 0 the identity; all
higher-level algorithms are table-driven scans.  Conjugation is g^y = y' g y
(inverse on the left), and all values are immutable once validated.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import (
    DoesNotGenerate,
    NilcohError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotNormal,
    OrderCapExceeded,
)

DEFAULT_ORDER_CAP = 2048


class Group:
    """A finite group given by its full multiplication table.

    `gens` is the greedy generating sequence of the elements in index order,
    found by the closure walk over whole left cosets (`generating_sequence`)
    once index 0 is checked to be a two-sided identity, which also makes
    that walk end on a table that is not a group.  There every element is
    still a product of `gens`, which are all of range(1, n) when the powers
    of some element cycle without reaching 0.  The table is a group exactly
    when the walk of `group_from_rows` over the rows of `gens` rebuilds it.
    That walk builds rows along a Cayley tree and accepts them only when
    each L_s commutes with each column R_t (R_t(x) = x*t); the group G the
    L_s generate then centralizes a set of maps that reach every point from
    0, so G is regular and the rows are its table carried over by
    g -> g(0) (Holt, Eick & O'Brien, *Handbook of Computational Group
    Theory*, 2005, §4.1; Dixon & Mortimer, *Permutation Groups*, 1996,
    Thm 4.2A).  On a group table L_{x*s} = L_x after L_s and
    s*(z*t) = (s*z)*t, so the walk rebuilds the table row for row.  When it
    fails or builds another table, a scan entry by entry names the first
    witness, in this order: associativity by Light's test on `gens`, which
    is complete as every element is a product of them (Clifford & Preston,
    *The Algebraic Theory of Semigroups* I, 1961); two-sided inverses.  The
    entries must be Python ints, as the scenario boundary requires of every
    table it reads.  Every group the package builds from its generators'
    rows is proven by the same walk, through `group_from_rows`.

    A map f with f(x*g) = f(x)f(g) for every x and every g in gens, and f(0)
    the identity, is a homomorphism: induction on the length of y as a word
    in gens gives f(x*y) = f(x)f(y).  Every homomorphism check in the
    package tests only these (element, generator) pairs.
    """

    __slots__ = ("order", "mul", "inv", "gens", "name", "_full")

    def __init__(self, mul: Sequence[Sequence[int]]):
        table = tuple(map(tuple, mul))
        self.order = _check_table_shape(table)
        self.mul, self.name, self._full = table, None, None
        ident = tuple(range(self.order))
        if table[0] != ident or tuple(row[0] for row in table) != ident:
            raise NoIdentity("index 0 is not a two-sided identity")
        walk = generating_sequence(self, ident)   # None only on powers that miss 0
        self.gens = walk[0] if walk else ident[1:]
        try:
            rows, self.inv = _walk_rows(self.order, [(g, table[g]) for g in self.gens])
        except (NilcohError, ValueError):
            rows = None
        if rows != table:
            _raise_first_defect(table, self.gens)

    def elements(self) -> range:
        return range(self.order)

    def conj(self, g: int, by: int) -> int:
        """g^by = by' * g * by."""
        row = self.mul[self.inv[by]]
        return self.mul[row[g]][by]

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x = self.mul[x][a]
            k += 1
        return k

    def power(self, a: int, k: int) -> int:
        k %= self.element_order(a)
        x = 0
        for _ in range(k):
            x = self.mul[x][a]
        return x

    def is_abelian(self) -> bool:
        gens, mul = self.gens, self.mul
        return all(mul[a][b] == mul[b][a] for i, a in enumerate(gens) for b in gens[i + 1:])

    def __repr__(self) -> str:
        tag = self.name or "Group"
        return f"<{tag} of order {self.order}>"


def _check_table_shape(table: Sequence[Sequence[int]]) -> int:
    """The order of a square table whose entries all lie in [0, order).

    The range is read off the set of the distinct entries, one C-level
    `set().union` over the rows; `min` and `max` of every row measured 2.3
    times as slow on C2 x| C_1024.  Only a table that fails is scanned row
    by row, to name the first bad row or entry."""
    n = len(table)
    if n == 0:
        raise NoIdentity("empty table")
    values = set().union(*table)
    if any(len(row) != n for row in table) or min(values) < 0 or max(values) >= n:
        for i, row in enumerate(table):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            if min(row) < 0 or max(row) >= n:
                x = next(x for x in row if not 0 <= x < n)
                raise ValueError(f"table entry {x} out of range [0, {n - 1}]")
    return n


def _raise_first_defect(table: tuple[tuple[int, ...], ...], gens: Sequence[int]) -> None:
    """Raise the first group axiom that the square table, whose identity is
    at index 0, breaks, with its witness: NotAssociative(x, g, y) for the
    first generator g, row x and entry y where (x*g)*y != x*(g*y), then
    NoInverse.  Associativity
    is compared a whole row at a time, the row of x*g against row x after
    the row of g, and only the first row that differs is scanned entry by
    entry."""
    ident = range(len(table))
    for g in gens:
        after_g = composer(table[g])
        for x, row in enumerate(table):
            left, right = table[row[g]], after_g(row)
            if left != right:
                raise NotAssociative(x, g, next(y for y in ident if left[y] != right[y]))
    raise NoInverse(next(a for a, row in enumerate(table)
                         if 0 not in row or table[row.index(0)][a] != 0))


def compose(p: Sequence, q: Sequence[int]) -> tuple:
    """p after q: the tuple whose entry i is p[q[i]].

    The whole-row kernel of the package's table scans: `itemgetter(*q)(p)`
    makes all the lookups in one C-level call.  For rows of 8 to 512 entries
    (Python 3.11) it is 1.7 to 2 times as fast as a list comprehension over
    q, and 3.4 to 4.4 times as fast as `tuple(map(p.__getitem__, q))`.  A scan
    that reads a column, x*g for every x, stays a list comprehension, which
    is as fast as any composition of rows there.  `itemgetter` returns a
    bare item for one index and cannot be built from none, so those lengths
    are handled here.  p may be any indexable: a row, a table (giving a tuple
    of rows) or a dict.
    """
    if len(q) > 1:
        return itemgetter(*q)(p)
    return (p[q[0]],) if q else ()


def composer(q: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The function p -> compose(p, q), to map over many rows p."""
    return itemgetter(*q) if len(q) > 1 else partial(compose, q=q)


def conjugates(G: Group, elements: Sequence[int], g: int) -> tuple[int, ...]:
    """The conjugates x^g = g' x g of the elements, in their order.

    One pass of two lookups per element: each whole-row alternative needs
    two passes (the column of g, or g' x' inverted), and measured slower
    for 2 to 256 elements."""
    mul = G.mul
    row = mul[G.inv[g]]
    return tuple([mul[row[x]][g] for x in elements])


def conjugacy_orbit(G: Group, elements: Sequence[int],
                    gens: Sequence[int]) -> list[tuple[int, ...]]:
    """The conjugates S^y of the subset S = elements over y in <gens>, each as
    its sorted element tuple, breadth first from S itself.

    The orbit algorithm (Holt, Eick & O'Brien, *Handbook of Computational
    Group Theory*, 2005, §4.1): every y in <gens> is a word in gens, since
    in a finite group an inverse is a positive power, so the orbit is the
    closure of {S} under S -> S^g for g in gens.  Each member is conjugated
    by each generator once, |orbit| x |gens| conjugations in all.
    """
    start = tuple(sorted(elements))
    orbit = [start]
    seen = {start}
    for S in orbit:                        # orbit grows while it is walked
        for g in gens:
            T = tuple(sorted(conjugates(G, S, g)))
            if T not in seen:
                seen.add(T)
                orbit.append(T)
    return orbit


def respects_generators(source: Group, target_mul: Sequence[Sequence[int]],
                        images: Sequence[int]) -> bool:
    """Whether images[a*g] == images[a] * images[g] in target_mul for every
    element a and every g in source.gens, which by the lemma on `Group.gens`
    makes images a homomorphism when images[0] is the identity."""
    rows = compose(target_mul, images)       # the target row of images[a], for each a
    return all([images[row[g]] for row in source.mul] == [row[images[g]] for row in rows]
               for g in source.gens)


class Subgroup:
    """A validated subset of a parent group, closed under product and inverse.

    `gens` is the greedy generating sequence of the elements in index order.
    The walk that finds it reaches <gens> = <elements>, which holds every
    element, one whole left coset at a time, so elements that hold the
    identity are a subgroup exactly when the walk reaches no more of them
    (`generating_sequence`, bounded by |H|).  Only when it reaches more does a scan of inverses and products
    name the first witness.  When there are as many elements as the parent
    has, they are all of an already validated group, and their number is
    the proof: `gens` is then `parent.gens`, the same walk's greedy
    sequence over range(|G|), and no walk runs.

    A subgroup built by `generated_by` is the closure its own walk reaches
    from the seeds it is given, so it needs no other proof, and its `gens`
    is that walk's greedy sequence over the seeds, in their order.  A
    normal subgroup keeps its complements once they are enumerated
    (`structure.complements`), and a subgroup its generating sequence of
    least length once it is computed (`structure.minimal_generators`).
    """

    __slots__ = ("parent", "elements", "gens", "_set", "_pos", "_complements",
                 "_minimal_gens")

    def __init__(self, parent: Group, elements: Iterable[int]):
        elts = tuple(sorted(set(elements)))
        if 0 not in elts:
            raise ValueError("subgroup must contain the identity (index 0)")
        if elts[0] < 0 or elts[-1] >= parent.order:
            x = elts[0] if elts[0] < 0 else elts[-1]
            raise ValueError(f"element {x} outside parent of order {parent.order}")
        if len(elts) == parent.order:
            walk = parent.gens, set(elts)
        else:
            walk = generating_sequence(parent, elts, limit=len(elts))
        if walk is None:
            members = set(elts)
            for a in elts:
                if parent.inv[a] not in members:
                    raise ValueError(f"subgroup not closed under inverse at {a}")
                row = parent.mul[a]
                for b in elts:
                    if row[b] not in members:
                        raise ValueError(f"subgroup not closed under product at ({a}, {b})")
        self._keep(parent, elts, walk)

    @classmethod
    def generated_by(cls, parent: Group, seeds: Sequence[int],
                     limit: int | None = None) -> Subgroup | None:
        """The subgroup that the seeds generate, built from the closure walk
        over them (`generating_sequence`), or None when that walk reaches
        more than `limit` elements."""
        walk = generating_sequence(parent, seeds, limit)
        if walk is None:
            return None
        H = cls.__new__(cls)
        H._keep(parent, tuple(sorted(walk[1])), walk)
        return H

    def _keep(self, parent: Group, elts: tuple[int, ...],
              walk: tuple[tuple[int, ...], set[int]]) -> None:
        self.parent = parent
        self.elements = elts
        self.gens, self._set = walk
        self._pos = {x: i for i, x in enumerate(elts)}
        self._complements = self._minimal_gens = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._set

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.elements))

    def __repr__(self) -> str:
        return f"<Subgroup of order {self.order} in {self.parent!r}>"

    def position(self, x: int) -> int:
        """Index of parent element x within this subgroup's element list."""
        return self._pos[x]

    def positions(self, xs: Sequence[int]) -> tuple[int, ...]:
        """The positions of the parent elements xs, in one `compose`; a
        KeyError names an element outside this subgroup."""
        return compose(self._pos, xs)

    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def conjugate_by(self, g: int) -> "Subgroup":
        """The subgroup {h^g : h in H} for h^g = g' h g."""
        return Subgroup(self.parent, conjugates(self.parent, self.elements, g))

    def is_normal(self) -> bool:
        G = self.parent
        return all(self._set.issuperset(conjugates(G, self.gens, g)) for g in G.gens)

    def as_group(self) -> tuple[Group, tuple[int, ...]]:
        """Re-index this subgroup as a standalone Group, built from the
        re-indexed rows of `gens`.

        Returns the group together with the map new-index -> parent-index.
        Parent identity 0 is the least element, so it lands at new index 0.
        The walk proves the rows a group, and the map, a homomorphism on the
        group's generators and a bijection onto this subgroup, proves it is
        this subgroup re-indexed, as the projection does for `quotient`.
        """
        elts, pos, mul = self.elements, self._pos, self.parent.mul
        take = composer(elts)
        G = group_from_rows(len(elts), [(pos[g], compose(pos, take(mul[g]))) for g in self.gens])
        if not respects_generators(G, mul, elts):
            raise ValueError("the re-indexed rows are not the subgroup's")
        return G, elts


class GroupHom:
    """A homomorphism between table groups, stored as a per-element image list.

    Checked on (element, generator) pairs, which suffices by the lemma on
    `Group.gens`.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: Group, target: Group, images: Sequence[int]):
        imgs = tuple(images)
        if len(imgs) != source.order:
            raise ValueError("image list length does not match source order")
        if any(not 0 <= x < target.order for x in imgs):
            raise ValueError("image outside target group")
        if imgs[0] != 0:
            raise ValueError("homomorphism must send identity to identity")
        if not respects_generators(source, target.mul, imgs):
            smul, tmul = source.mul, target.mul
            for a in range(source.order):
                for g in source.gens:
                    if imgs[smul[a][g]] != tmul[imgs[a]][imgs[g]]:
                        raise ValueError(f"not a homomorphism at pair ({a}, {g})")
        self.source = source
        self.target = target
        self.images = imgs

    def __call__(self, x: int) -> int:
        return self.images[x]

    def image(self) -> Subgroup:
        return Subgroup(self.target, set(self.images))


# -- constructors --------------------------------------------------------------


def group_from_table(table: Sequence[Sequence[int]]) -> Group:
    """Validate a raw multiplication table and canonicalize the identity to 0.

    A table whose row 0 and column 0 are the identity's goes to `Group` as
    it is, and `Group` checks its shape; any other table is checked for
    shape here, before its identity is looked for and moved to 0."""
    rows = tuple(map(tuple, table))
    n = len(rows)
    if rows[:1] != (tuple(range(n)),) or [row[:1] for row in rows] != [(x,) for x in range(n)]:
        _check_table_shape(rows)
        e = next(
            (c for c in range(n) if all(rows[c][x] == x and rows[x][c] == x for x in range(n))),
            None,
        )
        if e is None:
            raise NoIdentity("no two-sided identity element")
        # Swap labels 0 and e.
        sigma = list(range(n))
        sigma[0], sigma[e] = e, 0
        rows = [[sigma[rows[sigma[a]][sigma[b]]] for b in range(n)] for a in range(n)]
    return Group(rows)


def group_from_rows(order: int, generator_rows: Iterable[tuple[int, Sequence[int]]],
                    name: str | None = None) -> Group:
    """The group on range(order) generated by elements s whose rows
    L_s (L_s[y] = s*y) are given as pairs (s, L_s), built and proven in one
    walk over the generators' rows (`_walk_rows`).  `gens` is `Group`'s
    greedy generating sequence of the table the walk writes."""
    G = Group.__new__(Group)
    G.order, G.name, G._full = order, name, None
    G.mul, G.inv = _walk_rows(order, generator_rows)
    G.gens = generating_sequence(G, range(order))[0]
    return G


def _walk_rows(order: int, generator_rows: Iterable[tuple[int, Sequence[int]]]
               ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The rows and the inverses of the group the rows L_s generate, from the
    package's one proof of groupness.

    Each L_s must be a permutation of range(order) with L_s[0] = s.  The walk
    starts from the identity row and builds rows along a breadth-first tree:
    the first edge (x, s) into y = row_x[s] stores row_x after L_s as row y,
    and every other edge is one index read.  Every element must be reached
    (DoesNotGenerate otherwise).  Then, with R_t(x) = row_x[t] the column of
    generator t, every pair of generators must satisfy L_s∘R_t = R_t∘L_s; a
    mismatch at z is (s*z)*t != s*(z*t) and raises NotAssociative(s, z, t).
    The test reads the given L_s, not row s, so two rows that claim one
    element, or a row at index 0 that is not the identity, are refused.

    This proves the rows a group table (Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*, 2005, §4.1; Dixon & Mortimer, *Permutation
    Groups*, 1996, Thm 4.2A).  Let G be the permutation group the L_s
    generate.  Each row_x is in G with row_x(0) = x, and the walk is the
    orbit of 0 under the R_t, so the R_t reach every point from 0.  Every g
    in G commutes with each R_t, so the points g fixes are closed under the
    R_t; a g that fixes 0 fixes every point.  So G is regular, the n rows
    are all of G, and T[x][y] = row_x[y] is G's composition carried over by
    g -> g(0): identity, associativity and inverses follow.  Conversely the
    rows of a group satisfy s*(z*t) = (s*z)*t, so no group is refused.  The
    cost is n - 1 row compositions along the tree, d column reads and 2d²
    compositions for d generators.  inv[y], the position of 0 in row y, is
    read off L_s inverted when the tree edge (x, s) reaches y.
    """
    if order < 1:
        raise NoIdentity("empty table")
    ident = tuple(range(order))
    steps = []
    for s, row in generator_rows:
        if sorted(row) != list(ident):
            raise ValueError(f"the row of generator {s} is not a permutation of "
                             f"0..{order - 1}")
        if row[0] != s:
            raise NoIdentity(f"entry 0 of the row of generator {s} is {row[0]}")
        steps.append((s, row, composer(row), sorted(ident, key=row.__getitem__)))
    rows: list[tuple[int, ...] | None] = [None] * order
    rows[0] = ident
    inv = [0] * order                      # inv[x]: the position of 0 in row x
    reached = [0]
    for x in reached:                      # reached grows while it is walked
        row = rows[x]
        for s, _, take, back in steps:
            y = row[s]
            if rows[y] is None:
                rows[y] = take(row)
                inv[y] = back[inv[x]]      # row y is row x after L_s
                reached.append(y)
    if len(reached) != order:
        raise DoesNotGenerate(f"the generator rows reach {len(reached)} of {order} elements")
    for t, *_ in steps:
        column = tuple(map(itemgetter(t), rows))
        after_column = composer(column)
        for s, row, take, _ in steps:
            left, right = after_column(row), take(column)
            if left != right:
                raise NotAssociative(s, next(z for z in ident if left[z] != right[z]), t)
    return tuple(rows), tuple(inv)


def group_from_permutations(
    generators: Sequence[Sequence[int]],
    degree: int | None = None,
) -> Group:
    """Closure of a set of permutations under composition, as a table group.

    Permutations act on points 0..degree-1; the product p*q acts by
    (p*q)(i) = p(q(i)).  Raises OrderCapExceeded if the closure grows past
    DEFAULT_ORDER_CAP.  Elements are indexed in sorted order, so the
    identity is 0.

    The breadth-first closure forms g*p for every element p and generator g,
    which is the left multiplication L_g; relabelled by sorted position,
    these are the generators' rows, and `group_from_rows` writes the rest of
    the table from them.  No generators give the trivial group, whatever the
    degree, with nothing built on the points.
    """
    if degree is not None and degree < 0:
        raise ValueError(f"degree {degree} is negative")
    gens = [tuple(p) for p in generators]
    if not gens:
        return group_from_rows(1, [])
    if degree is None:
        degree = len(gens[0])
    for p in gens:
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise ValueError(f"{p} is not a permutation of 0..{degree - 1}")
    # Elements by discovery position: the queue of the breadth-first search.
    perms = [tuple(range(degree))]
    found = {perms[0]: 0}
    left = [[] for _ in gens]              # left[slot][d] = position of g * perms[d]
    for p in perms:                        # perms grows while it is walked
        take = composer(p)
        for slot, g in enumerate(gens):
            q = take(g)
            k = found.get(q)
            if k is None:
                if len(perms) >= DEFAULT_ORDER_CAP:
                    raise OrderCapExceeded(f"closure exceeds cap {DEFAULT_ORDER_CAP}")
                k = found[q] = len(perms)
                perms.append(q)
            left[slot].append(k)
    # Relabel by sorted position; the identity is lexicographically least.
    n = len(perms)
    by_rank = sorted(range(n), key=perms.__getitem__)
    rank = [0] * n
    for i, d in enumerate(by_rank):
        rank[d] = i
    rows = [(rank[found[g]], compose(rank, compose(moves, by_rank)))
            for g, moves in zip(gens, left)]
    return group_from_rows(n, rows)


def subgroup_generated(G: Group, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing the seed elements."""
    gens = sorted(set(seeds))
    for x in gens:
        if not 0 <= x < G.order:
            raise ValueError(f"seed {x} outside group of order {G.order}")
    return Subgroup(G, generating_sequence(G, gens)[1])


def generating_sequence(G: Group, elements: Iterable[int], limit: int | None = None
                        ) -> tuple[tuple[int, ...], set[int]] | None:
    """The package's closure walk: the greedy generating sequence of the
    elements (each element, in the order given, that the elements chosen
    before it do not generate) and the set of elements they generate, or
    None as soon as that set holds more than `limit` elements.

    The closure grows one whole left coset at a time (Holt, Eick & O'Brien,
    *Handbook of Computational Group Theory*, 2005, §4.1).  A new generator
    x is adjoined to H, the closure of the generators before it, by listing
    its powers, stopping once past the bound; B is the larger of H and <x>.
    The left cosets yB of <H, x> are then walked outward from B by left
    multiplication with every generator: g*y is read off the row of g, and
    each new coset costs one C-level composition of the row of y with B.
    In a group the left closure of a set is its right closure, so the
    greedy sequence and the closure are those of right multiplication.
    On a table with its identity at 0 that is not yet known to be a group
    (`Group.__init__`) the walk still ends: powers that cycle without
    reaching 0 pass the bound, which returns None, and each new coset holds
    y*0 = y.
    """
    mul = G.mul
    bound = G.order if limit is None else limit
    gens: list[int] = []
    lefts: list[tuple[int, ...]] = []         # the rows of gens: g*y = row_g[y]
    reached = {0}
    for x in elements:
        if x in reached:
            continue
        gens.append(x)
        lefts.append(xrow := mul[x])
        powers, p = [0], x
        while p and len(powers) <= bound:
            powers.append(p)
            p = xrow[p]
        if len(powers) > bound:               # |<x>| > bound, or a cycle that misses 0
            return None
        if len(powers) > len(reached):        # B = <x>, the larger
            reached = set(powers)
        coset = composer(reached)             # y -> yB
        reps = [0]
        for y in reps:                        # reps grows while it is walked
            for row in lefts:
                z = row[y]
                if z not in reached:
                    reached.update(coset(mul[z]))
                    if len(reached) > bound:
                        return None
                    reps.append(z)
    return tuple(gens), reached


def full_subgroup(G: Group) -> Subgroup:
    """The whole of G as a Subgroup, built on the first call and kept on G,
    so what is kept on it (`structure.minimal_generators`, complements) is
    computed once per group."""
    if G._full is None:
        G._full = Subgroup(G, range(G.order))
    return G._full


# -- classical constructions ----------------------------------------------------


def centralizer(G: Group, H: Subgroup) -> Subgroup:
    mul = G.mul
    return Subgroup(
        G,
        (g for g in range(G.order) if all(mul[g][h] == mul[h][g] for h in H.gens)),
    )


def normalizer(G: Group, H: Subgroup) -> Subgroup:
    return Subgroup(G, (g for g in range(G.order) if conjugates_into(G, H, H, g)))


def coset_representatives(G: Group, H: Subgroup) -> tuple[list[int], tuple[int, ...]]:
    """The least element of each left coset gH, ascending, and for every
    element the position in that list of its coset."""
    reps: list[int] = []
    label: dict[int, int] = {}
    for g in range(G.order):
        if g not in label:  # every smaller element of gH is already labelled
            label.update(dict.fromkeys(compose(G.mul[g], H.elements), len(reps)))
            reps.append(g)
    return reps, compose(label, range(G.order))


def quotient(G: Group, N: Subgroup) -> tuple[Group, GroupHom]:
    """Quotient group G/N on sorted coset representatives, with the projection.

    Built from the rows of the cosets of G.gens: coset gN sends coset rN to
    g*rN.  Raises NotNormal (with a witnessing pair) when N is not normal in
    G.
    """
    for g in G.gens:
        if not N._set.issuperset(conjugates(G, N.gens, g)):
            raise NotNormal(g, next(h for h in N.elements if G.conj(h, g) not in N))
    reps, label = coset_representatives(G, N)
    take = composer(reps)
    rows = [(label[g], compose(label, take(G.mul[g]))) for g in G.gens]
    Q = group_from_rows(len(reps), rows, name=(f"{G.name}/N" if G.name else None))
    return Q, GroupHom(G, Q, label)


def are_conjugate_subgroups(G: Group, H: Subgroup, K: Subgroup) -> int | None:
    """Least g with H^g = K, or None if the subgroups are not conjugate."""
    if H.parent is not G or K.parent is not G:
        raise ValueError("subgroups must share the given parent group")
    if H.order != K.order:
        return None
    return conjugator_into(G, H, K)


def conjugates_into(G: Group, S: Subgroup, H: Subgroup, g: int) -> bool:
    """Whether S^g lies in H, tested on S.gens, whose conjugates generate S^g."""
    mul, members = G.mul, H._set
    row = mul[G.inv[g]]
    return all(mul[row[x]][g] in members for x in S.gens)


def conjugator_into(G: Group, S: Subgroup, H: Subgroup) -> int | None:
    """Least g with S^g contained in H, or None."""
    return next((g for g in range(G.order) if conjugates_into(G, S, H, g)), None)
