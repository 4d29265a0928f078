"""Crossed homomorphisms and the pointed set H1(K, N).

Conventions (the unique ones consistent with the machine-checked anchors:
F(phi) is a subgroup, N-conjugacy of F(phi) matches the equivalence, and
phi^j is equivalent to phi with witness phi(j')):

    cocycle identity   phi(j j') = phi(j) * act(j, phi(j'))
    coboundary         phi'(j)   = n' * phi(j) * act(j, n)
    conjugate cocycle  phi^j(x)  = act(j', phi(j x j'))   on K^j = j' K j

Enumeration extends cocycles one generator at a time along the chain of
subgroups that a generating sequence spans (Celler, Neubueser and Wright,
Acta Appl. Math. 21, 1990), coset by coset: a candidate value at the new
generator is tested on the Schreier relations of the right cosets of the
subgroup so far, and only the survivors are extended.  A cocycle is kept as
one int, the code of its values at the generators, and its value table is
made only when it is read.  A brute-force oracle stands alongside.  H1 is
partitioned on the codes alone.  Class representatives are the
lexicographically least value tables, and all reported sets are ordered by
representative.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from itertools import compress, count, islice, product, repeat
from math import prod
from operator import add, eq, floordiv, getitem, mod, mul, ne

from .actions import ActionOnGroup, SemidirectProduct
from .errors import (
    BudgetExceeded,
    DomainMismatch,
    NoPreimageFound,
    NotAbelian,
    NotASubgroup,
    NotNilpotent,
)
from .groups import (
    Group,
    Subgroup,
    compose,
    composer,
    conjugates,
    conjugates_into,
    full_subgroup,
    generating_sequence,
)
from .structure import (
    hall_pprime,
    is_nilpotent,
    minimal_generators,
    p_part,
    p_parts,
    prime_factors,
    sylow_subgroup,
)


GENERATOR_ENUM_BUDGET = 10_000_000
BRUTEFORCE_BUDGET = 1_000_000


class Cocycle:
    """A crossed homomorphism on a subgroup K of the actor, valued in N.

    An immutable value: equal and hashed by (action, domain, values), and
    assignment or deletion of a field raises `dataclasses.FrozenInstanceError`
    (imported only then, as the import of `dataclasses` is costly).
    """

    __slots__ = ("action", "domain", "values")

    def __init__(self, action: ActionOnGroup, domain: Subgroup, values: tuple[int, ...]):
        setter = object.__setattr__
        setter(self, "action", action)
        setter(self, "domain", domain)
        setter(self, "values", values)

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Cocycle:
            return NotImplemented
        return (self.action, self.domain, self.values) == (other.action, other.domain,
                                                           other.values)

    def __hash__(self) -> int:
        return hash((self.action, self.domain, self.values))

    def value_at(self, j: int) -> int:
        return self.values[self.domain.position(j)]

    def __repr__(self) -> str:
        return f"<cocycle on K of order {self.domain.order}: {self.values}>"


class _CayleyTree:
    """The cocycles on a subgroup K as codes, and their values along K's
    Cayley tree.

    With g_1..g_d the sequence `minimal_generators(K)` that `cocycles`
    extends along, a cocycle phi is fixed by its values at the g_i, so its
    code, the sum of phi(g_i) * |N|^(d-i), is one int below |N|^d.
    Breadth first from 1, each other x in K is reached by one edge
    x = t g_slot, and phi(t g) = phi(t) * act(t, phi(g)) gives phi(x) from
    phi(t): |K| lookups make one table, and one whole-column step per edge
    of x's tree word gives the values at x of many cocycles at once.
    """

    __slots__ = ("action", "domain", "gens", "_edges")

    def __init__(self, action: ActionOnGroup, domain: Subgroup):
        self.action, self.domain = action, domain
        self.gens = minimal_generators(domain)
        self._edges = None

    def edges(self) -> dict[int, tuple[int, int, Sequence[int], int, int]]:
        """x -> (t, slot, act(t, -), x's position, t's position) with
        x = t g_slot, for each x != 1 of the domain in the order reached;
        walked on the first read and kept."""
        if self._edges is None:
            jmul, auto, pos = self.action.actor.mul, self.action.auto, self.domain.position
            up, reached = {}, [0]
            for t in reached:                  # reached grows while it is walked
                row = jmul[t]
                for slot, g in enumerate(self.gens):
                    x = row[g]
                    if x and x not in up:
                        up[x] = (t, slot, auto[t], pos(x), pos(t))
                        reached.append(x)
            self._edges = up
        return self._edges

    def code(self, values: Sequence[int]) -> int:
        """The code of the value table, read at the generators alone."""
        code, radix = 0, self.action.target.order
        for v in compose(values, self.domain.positions(self.gens)):
            code = code * radix + v
        return code

    def tables(self, codes: Iterable[int]) -> Iterator[tuple[int, ...]]:
        """The value table of the cocycle with each code, made when it is
        read."""
        radix, nmul, d, n = (self.action.target.order, self.action.target.mul,
                             len(self.gens), self.domain.order)
        edges = list(self.edges().values())
        for code in codes:
            digits = [0] * d
            for k in reversed(range(d)):
                code, digits[k] = divmod(code, radix)
            val = [0] * n
            for _, slot, at, kx, kt in edges:
                val[kx] = nmul[val[kt]][at[digits[slot]]]
            yield tuple(val)

    def slots(self, codes: Sequence[int]) -> list[list[int]]:
        """The digit columns of the codes: their values at g_1..g_d."""
        radix, out = self.action.target.order, []
        for k in reversed(range(len(self.gens))):
            out.append(list(map(mod, map(floordiv, codes, repeat(radix ** k)), repeat(radix))))
        return out

    def columns(self, slots: list[list[int]], xs: Sequence[int]) -> list[list[int]]:
        """The values at each x != 1 in xs of the cocycles whose digit columns
        are `slots`, a column per edge of x's tree word; words share the
        columns of their common prefixes."""
        nmul, up = self.action.target.mul, self.edges()
        got = {}
        for x in xs:
            path = []
            while x and x not in got:
                path.append(x)
                x = up[x][0]
            for y in reversed(path):
                t, slot, at, _, _ = up[y]
                got[y] = slots[slot] if t == 0 else list(
                    map(getitem, compose(nmul, got[t]), compose(at, slots[slot])))
        return [got[x] for x in xs]


def _encode(columns: list[Sequence[int]], radix: int, size: int) -> list[int]:
    """The codes of `size` cocycles from their digit columns, most
    significant first."""
    if not columns:
        return [0] * size
    codes = columns[0]
    for column in columns[1:]:
        codes = map(add, map(mul, codes, repeat(radix)), column)
    return list(codes)


class Z1(Sequence):
    """Z1(K, N): the codes of the cocycles (`_CayleyTree`) in table order; a
    cocycle's table, and its `Cocycle`, are made only when it is read.
    Iteration reads them by index, as `Sequence` does."""

    __slots__ = ("action", "domain", "_codes", "_tree")

    def __init__(self, action: ActionOnGroup, domain: Subgroup, codes: Sequence[int]):
        self.action, self.domain, self._codes = action, domain, codes
        self._tree = _CayleyTree(action, domain)

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, i: int | slice) -> Cocycle | list[Cocycle]:
        tables = self._tree.tables(self._codes[i] if isinstance(i, slice) else (self._codes[i],))
        made = [Cocycle(self.action, self.domain, t) for t in tables]
        return made if isinstance(i, slice) else made[0]


def _check_budget(n_order: int, ngens: int, budget: int) -> None:
    if n_order ** ngens > budget:
        raise BudgetExceeded(f"|N|^#gens = {n_order}^{ngens} exceeds budget {budget}")


def cocycles(action: ActionOnGroup, K: Subgroup | None = None,
             budget: int = GENERATOR_ENUM_BUDGET) -> Z1:
    """The complete set Z1(K, N) as codes (`_CayleyTree`), ordered by value
    table.

    With g_1..g_d the sequence `minimal_generators(K)`, of the least length
    d when K is nilpotent and the greedy `K.gens` otherwise, the budget
    bounds |N|^d and the cocycles are built along
    the chain K_i = <g_1..g_i>, each cocycle phi on K_i extended to
    K_{i+1} = <K_i, g> by each value v in N at g = g_{i+1}.  The extension
    works on the right cosets K_i t (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005, ch. 8):

    - A breadth-first transversal over g_1..g_{i+1}, from t = 1, gives each
      representative reached by a tree edge t s the value
      phi'(t s) = phi'(t) * act(t, phi'(s)), with phi'(g) = v and phi' = phi
      on K_i.
    - Every other edge t s = h t' (h in K_i) is a Schreier relation, checked
      as phi(h) * act(h, phi'(t')) = phi'(t) * act(t, phi'(s)).  The edges
      1 s with s in K_i hold by themselves and are skipped.  When the
      powers of g represent their cosets, the relation at t = g^(m-1) and
      s = g, with g^m in K_i, is the power relation of a polycyclic
      presentation.
    - Setting phi'(h t) = phi(h) * act(h, phi'(t)), the cocycle identity at
      (h t, s) reduces to the one at (t, s), since phi is a cocycle on K_i;
      and identities at (element, generator) pairs force it on all pairs
      (as in the lemma on `Group.gens`, by induction on the length of a word
      in any generating sequence, for j -> (phi'(j), j) in N x| J).  So the
      checks are necessary and sufficient, with no normality needed.

    All v are tried at once, as vectors over N of the values at the
    representatives; each check keeps the v that pass it.  Before the last
    step, only the survivors get their |K_{i+1}| - |K_i| new cells, a whole
    column of candidates per cell.  K_i keeps its positions in K_{i+1}'s
    tables, which list K_i and then each further coset as h t over K_i's
    order.  The last step writes no cells: a survivor phi with code c on
    K_{d-1} and each v that passes phi's checks give the code c * |N| + v.
    Step i tries |Z1(K_i, N)| * |N| candidates, at most |N|^(i+1), so the
    |N|^d that the budget bounds also bounds the candidates of all steps,
    within a factor of two when |N| > 1, and the codes: they fit 8-byte
    entries for any budget below 2^63.

    Each step extends its survivors in their order by ascending v, so the
    codes come out in code order, the lexicographic order of
    (phi(g_1), ..., phi(g_d)).  Let h_1 < ... < h_m be the greedy generating
    sequence of K's elements in index order.  Value tables compare as
    (phi(h_1), ..., phi(h_m)) do: where two cocycles first differ at some
    h_k, they agree on <h_1..h_{k-1}>, which holds every smaller element.
    So code order is table order when g_1..g_d is that sequence, which the
    walk tests: each g_i must be the least element of K outside K_{i-1}.
    Otherwise the last step also reads each survivor's values at h_1..h_m,
    phi'(h t) for h t = h_k, and the codes are sorted by them.

    What a survivor does not change is done once per step, where the
    transversal is walked (loop-invariant code motion; Aho, Lam, Sethi and
    Ullman, Compilers, 2nd ed., 2006, 9.5).  The values at the
    representatives reached from 1 by g alone (g, g^2, ...) read no value
    of phi, and neither does a check with h = 1 whose edge generator is g
    between two such representatives, such as the power relation g^m = 1:
    it is tested once, and the v it rejects leave the candidate vector and
    every such value for all survivors.  Where t' is such a representative,
    act(h, phi'(t')) is one vector per step, and where t is one as well, the
    check reads phi at h and at the edge's generator alone, so its outcome
    is kept by that pair of values and read by every later survivor with
    the same pair.  The composer over each such representative's vector is
    built once per step, and when the vector is all of N in order its cells
    are the fill rows themselves.  A fill row x -> phi(h) * act(h, x) is
    N's row of phi(h), with no composition, for h in the kernel of the
    action.  The same relations are tested on the same candidates, so the
    tables are the same.  A shared value stands for phi's own only while
    phi's candidates are all of the step's: once one of phi's own checks
    drops a candidate, its remaining checks and its cells are computed from
    its filtered vectors.
    """
    J, N = action.actor, action.target
    if K is None:
        K = full_subgroup(J)
    if K.parent is not J:
        raise NotASubgroup("domain must be a subgroup of the acting group")
    gens = minimal_generators(K)
    _check_budget(N.order, len(gens), budget)
    jmul, nmul, auto, radix = J.mul, N.mul, action.auto, N.order
    zeros, everything = (0,) * radix, tuple(range(radix))
    columns: dict[int, tuple[int, ...]] = {}        # u -> (x*u for x in N), on demand

    def times(xs: tuple[int, ...], at: tuple[int, ...], w) -> tuple[int, ...]:
        """x * act(t, w) for each x in xs, at one w or at each of a vector."""
        if isinstance(w, int):
            u = at[w]
            if u not in columns:
                columns[u] = tuple([row[u] for row in nmul])
            return compose(columns[u], xs)
        return tuple(map(getitem, compose(nmul, xs), compose(at, w)))

    # The survivors on K_i, as value tables over `layout`, the elements of
    # K_i in coset order: K_{i+1} lists K_i, then each further coset K_i t
    # as h t for h in K_i's layout, so K_i keeps its positions.  The last
    # step writes codes alone; the zero cocycle on K = 1 has code 0.
    layout, survivors = [0], [(0,)]
    codes = array("q") if radix ** len(gens) <= 1 << 63 else []
    if not gens:
        codes.append(0)
    in_order = True                 # each g_i so far is least in K outside K_{i-1}
    keys: list[int] | None = None   # the values at h_1..h_m as codes, when not in order
    for i, g in enumerate(gens):
        sub, size = gens[:i + 1], len(layout)
        known = [layout.index(s) for s in gens[:i]]
        # Breadth-first transversal of the right cosets K_i t over sub, from
        # t = 1; where[x] = (coset of x, position in layout of h) for x = h t.
        # The first edge, 1 g = g, is a tree edge: coset 1 is K_i g.
        # free[c] = phi'(t_c) for each t_c reached from 1 by g alone, the
        # same for all survivors, and None for the others, whose tree edges
        # `own` lists with the position of g_slot in the layout.
        reps = [0, g]
        where = {x: (0, k) for k, x in enumerate(layout)}
        in_order = in_order and all(map(where.__contains__, K.elements[:K.position(g)]))
        where.update(zip([jmul[h][g] for h in layout], [(1, k) for k in range(size)]))
        free, own, checks = [zeros, everything], [], []
        for c, t in enumerate(islice(reps, 1, None), start=1):  # reps grows meanwhile
            row, at = jmul[t], auto[t]
            for slot, s in enumerate(sub):
                kr = 0 if slot == i else known[slot]
                y = row[s]
                hit = where.get(y)
                if hit is None:
                    where.update(zip([jmul[h][y] for h in layout],
                                     [(len(reps), k) for k in range(size)]))
                    if slot == i and free[c] is not None:
                        free.append(times(free[c], at, free[1]))
                    else:
                        own.append((len(reps), c, at, slot, kr))
                        free.append(None)
                    reps.append(y)
                    continue
                ct, kh = hit
                if kh == 0 and slot == i and free[c] is not None and free[ct] is not None:
                    # h = 1 acts as the identity: the check reads no value of
                    # phi, and filters every free value for all survivors.
                    lhs, rhs = free[ct], times(free[c], at, free[1])
                    if lhs != rhs:
                        take = composer(list(compress(count(), map(eq, lhs, rhs))))
                        free = [v if v is None else take(v) for v in free]
                else:
                    checks.append((c, at, slot, kh, auto[layout[kh]], ct, kr))
        last = i == len(gens) - 1
        if last and not in_order:
            keys = []
            at_h = [(c, kh, auto[layout[kh]])
                    for c, kh in map(where.__getitem__, generating_sequence(J, K.elements)[0])]
        # With t' free, act(h, phi'(t')) is the same for all survivors; with t
        # free as well, the check reads phi at h and g_slot alone, and its
        # outcome is kept by that pair of values.
        checks = [(c, at, slot, kh, ah, ct, kr,
                   None if free[ct] is None else compose(ah, free[ct]),
                   None if free[ct] is None or free[c] is None else {})
                  for c, at, slot, kh, ah, ct, kr in checks]
        # The fill row x -> phi(h) * act(h, x) is N's row of phi(h) for each
        # h in the kernel of the action; `moving` composes the others.
        if not last:
            moving = [(k, composer(auto[h])) for k, h in enumerate(layout)
                      if auto[h] != everything]
            layout = [jmul[h][t] for t in reps for h in layout]
            takes = [None if v is None or v is everything else composer(v) for v in free[1:]]
        grown: list[tuple[int, ...]] = []
        for phi in survivors:
            # The candidates at g are vectors over v in N, and so are the
            # values at the coset representatives, val[c] = phi'(t_c).  The
            # free values, the act(h, phi'(t')) vectors and the kept outcomes
            # stand for phi's own while none of its checks dropped a candidate.
            val = free.copy()
            for n, c, at, slot, kr in own:
                val[n] = times(val[c], at, val[1] if slot == i else phi[kr])
            shared = True
            for c, at, slot, kh, ah, ct, kr, acted, outcomes in checks:
                x, y = phi[kh], phi[kr]
                if shared and outcomes is not None and (x, y) in outcomes:
                    keep = outcomes[x, y]
                else:
                    lhs = compose(nmul[x], acted if shared and acted is not None
                                  else compose(ah, val[ct]))
                    rhs = times(val[c], at, val[1] if slot == i else y)
                    keep = None if lhs == rhs else list(compress(count(), map(eq, lhs, rhs)))
                    if shared and outcomes is not None:
                        outcomes[x, y] = keep
                if keep is not None:
                    if not keep:
                        break
                    val = list(map(composer(keep), val))
                    shared = False
            else:
                if last:
                    base = 0
                    for k in known:
                        base = base * radix + phi[k]
                    codes.extend(map((base * radix).__add__, val[1]))
                    if keys is not None:
                        keys += _encode([compose(nmul[phi[kh]], compose(ah, val[c]))
                                         for c, kh, ah in at_h], radix, len(val[1]))
                    continue
                # phi'(h t) = phi(h) * act(h, phi'(t)), a column per cell.
                fills = list(compose(nmul, phi))
                for k, take in moving:
                    fills[k] = take(fills[k])
                cells = [repeat(x, len(val[1])) for x in phi]
                for vt, take in zip(val[1:], takes if shared else repeat(None)):
                    cells += fills if vt is everything else map(take or composer(vt), fills)
                grown.extend(zip(*cells))
        survivors = grown
    if keys is not None:
        keyed = sorted(zip(keys, codes))
        del codes[:]
        codes.extend(code for _, code in keyed)
    return Z1(action, K, codes)


def cocycles_bruteforce(action: ActionOnGroup, K: Subgroup | None = None,
                        budget: int = BRUTEFORCE_BUDGET) -> list[Cocycle]:
    """Independent oracle: test every map K -> N against the cocycle identity.

    Maps are enumerated depth-first in element order; a branch is abandoned
    as soon as some already-assigned pair violates the identity (any
    completion would fail the same pair).  The budget caps explored
    assignments.
    """
    J, N = action.actor, action.target
    if K is None:
        K = full_subgroup(J)
    if K.parent is not J:
        raise NotASubgroup("domain must be a subgroup of the acting group")
    elts = K.elements
    pos = K.position
    size = len(elts)
    nmul = N.mul
    # Pairs (a, b) whose product lands within the first k assigned elements,
    # indexed by the largest element position involved.
    pair_checks: list[list[tuple[int, int, int]]] = [[] for _ in range(size)]
    for ia, a in enumerate(elts):
        for ib, b in enumerate(elts):
            ic = pos(J.mul[a][b])
            pair_checks[max(ia, ib, ic)].append((ia, ib, ic))
    out: list[Cocycle] = []
    values = [0] * size
    explored = 0

    def consistent_at(k: int) -> bool:
        for ia, ib, ic in pair_checks[k]:
            a = elts[ia]
            if values[ic] != nmul[values[ia]][action.auto[a][values[ib]]]:
                return False
        return True

    def descend(k: int) -> None:
        nonlocal explored
        if k == size:
            out.append(Cocycle(action, K, tuple(values)))
            return
        for v in range(N.order):
            explored += 1
            if explored > budget:
                raise BudgetExceeded(f"brute-force oracle exceeded budget {budget}")
            values[k] = v
            if consistent_at(k):
                descend(k + 1)
        values[k] = 0

    # Position 0 is the identity of K; phi(1) = 1 is itself a pair check:
    # start the search at position 0 like any other value.
    descend(0)
    out.sort(key=lambda c: c.values)
    return out


class CohomologySet:
    """H1(K, N): all cocycles partitioned into classes, with the class of the
    all-identity cocycle distinguished.

    One flat store of cocycle codes (`_CayleyTree`), as `h1` builds it: each
    code once, class by class (`codes`), the class number of each (`owner`, a
    `range` when every class is one cocycle), and the position of each
    class's first member, its representative (`starts`).  The zero cocycle
    has code 0.  The class of each code is indexed on the first lookup.
    `reps`, `classes` and a lookup by value table make the tables they read
    along K's Cayley tree, and keep none.
    """

    def __init__(self, action: ActionOnGroup, domain: Subgroup, codes: Sequence[int],
                 owner: Sequence[int], starts: Sequence[int]):
        self.action, self.domain = action, domain
        self._codes, self._owner, self._starts = codes, owner, starts
        self._tree = _CayleyTree(action, domain)
        self._index = None
        self.distinguished = owner[codes.index(0)]
        self._classes = None

    @property
    def classes(self) -> tuple[tuple[Cocycle, ...], ...]:
        if self._classes is None:
            action, domain = self.action, self.domain
            self._classes = tuple(tuple(Cocycle(action, domain, t) for t in self._member_tables(i))
                                  for i in range(self.size))
        return self._classes

    def _lookup(self) -> dict[int, int]:
        """code -> class number, built on the first call and kept."""
        if self._index is None:
            self._index = dict(zip(self._codes, self._owner))
        return self._index

    def _member_tables(self, i: int) -> Iterator[tuple[int, ...]]:
        end = self._starts[i + 1] if i + 1 < self.size else None
        return self._tree.tables(self._codes[self._starts[i]:end])

    def _rep_codes(self) -> tuple[int, ...]:
        return compose(self._codes, self._starts)

    def _rep_tables(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._tree.tables(self._rep_codes()))

    @property
    def size(self) -> int:
        return len(self._starts)

    def reps(self) -> list[Cocycle]:
        return [Cocycle(self.action, self.domain, t) for t in self._rep_tables()]

    def class_of(self, values: tuple[int, ...] | Cocycle) -> int:
        """The class of a value table, or of a Cocycle of this action and
        domain; KeyError when it is no cocycle.  The table's code is read at
        the generators alone, so the whole table is compared with the table
        that the code makes."""
        if isinstance(values, Cocycle):
            if values.action is not self.action or values.domain != self.domain:
                raise DomainMismatch("cocycle belongs to a different action or domain")
            values = values.values
        tree = self._tree
        code = tree.code(values) if len(values) == self.domain.order else None
        cls = self._lookup().get(code)
        if cls is None or next(tree.tables((code,))) != values:
            raise KeyError(values)
        return cls

    def cocycle_count(self) -> int:
        return len(self._codes)

    def __repr__(self) -> str:
        return (
            f"<H1: {self.size} classes from {self.cocycle_count()} cocycles "
            f"on K of order {self.domain.order}>"
        )


def h1(action: ActionOnGroup, K: Subgroup | None = None,
       budget: int = GENERATOR_ENUM_BUDGET) -> CohomologySet:
    """Partition Z1(K, N) by the coboundary relation.

    Classes are the orbits of Z1 under twisting by elements of N; they come
    out ordered by their least member, so the distinguished class is first.

    A cocycle is fixed by its values on any generating sequence of K, so
    the orbits are found on the codes of `cocycles`, its values at
    `minimal_generators(K)`, the d generators that `cocycles` extends along:
    d is the least number of generators when K is nilpotent, and the length
    of the greedy `K.gens` otherwise.  The budget bounds |N|^d, for a cached
    result too.  Twisting is a right action of N, and n in C = Z(N) meet
    the K-fixed points of N twists every cocycle to itself:
    n' * phi(j) * act(j, n) = n' * phi(j) * n = phi(j).  So twisting by a
    transversal of N/C reaches each whole orbit.

    The transversal leaves out the coset C itself.  When nothing else is in
    it, N/C = 1 and every class is a single cocycle: the store is the codes
    of `cocycles`' result, with `range` for the class numbers and starts.
    Otherwise the orbits are walked from each cocycle not yet in a class, on
    its code alone, twisted by the whole transversal at once
    (`_twist_orbits`).  No map over N is built per twist: the twists can far
    outnumber the classes (C2 inverting C_256 has 127 twists and 2 classes).
    No value table is made.
    """
    J, N = action.actor, action.target
    K = full_subgroup(J) if K is None else K
    if K.parent is not J:
        # Checked before the lookup, since the key holds only K's elements.
        raise NotASubgroup("domain must be a subgroup of the acting group")
    cached = action._h1_cache.get(K.elements)
    if cached is not None:
        # A cached result answers to the caller's budget as well, so the
        # outcome does not depend on what ran before.
        ngens, result = cached
        _check_budget(N.order, ngens, budget)
        return result
    codes = cocycles(action, K, budget=budget)._codes
    gens = minimal_generators(K)
    nmul = N.mul
    acts = [action.auto[g] for g in gens]
    # C: the elements that the generators of K fix and the generators of N
    # commute with, tested a column at a time; the column of True keeps all
    # of N when there are no generators.
    tests = [map(eq, au, count()) for au in acts]
    tests += [map(eq, [row[m] for row in nmul], nmul[m]) for m in N.gens]
    fixed_central = list(compress(count(), map(all, zip(repeat(True, N.order), *tests))))
    # A transversal of N/C, without C itself.
    transversal = []
    covered = set(fixed_central)
    for n in range(1, N.order):
        if n not in covered:
            covered.update(compose(nmul[n], fixed_central))
            transversal.append(n)
    if transversal and len(codes) > 1:
        codes, owner, starts = _twist_orbits(codes, transversal, acts, N)
    else:
        owner = starts = range(len(codes))
    result = CohomologySet(action, K, codes, owner, starts)
    action._h1_cache[K.elements] = (len(gens), result)
    return result


def _twist_orbits(codes: Sequence[int], transversal: list[int], acts: list[Sequence[int]],
                  N: Group) -> tuple[Sequence[int], list[int], list[int]]:
    """The orbits of the cocycles, given by their codes in table order, under
    twisting by 1 and by each n in the transversal, each in table order and
    listed by least member, as the store of `CohomologySet`: the codes orbit
    by orbit, the orbit of each, and where each orbit starts.

    Twisting acts on a code digit by digit: the value x at a generator g
    becomes n' * x * act(g, n), for `acts` holding act(g, -) for each g.
    From each cocycle not yet in an orbit, each digit's twists form one
    vector over the whole transversal, a few compositions per generator
    whatever the number of twists, and the twisted codes are read off those
    vectors.  The rows of n' * x over the transversal are built once per
    value x that occurs."""
    nmul, radix = N.mul, N.order
    index = dict(zip(codes, count()))
    inverses = compose(N.inv, transversal)
    rights = [compose(au, transversal) for au in acts]
    rows: dict[int, tuple[tuple[int, ...], ...]] = {}     # x -> rows of n' * x, on demand
    assigned = [False] * len(codes)
    digits = [0] * len(acts)
    order, owner, starts = [], [], []
    for i, code in enumerate(codes):
        if assigned[i]:
            continue
        for k in reversed(range(len(digits))):
            code, digits[k] = divmod(code, radix)
        twins = None
        for x, right in zip(digits, rights):
            if x not in rows:
                rows[x] = compose(nmul, compose([row[x] for row in nmul], inverses))
            twisted = map(getitem, rows[x], right)
            twins = twisted if twins is None else map(add, map(mul, twins, repeat(radix)), twisted)
        members = sorted(set(map(index.__getitem__, twins)).union((i,)))
        for j in members:
            assigned[j] = True
        owner += repeat(len(starts), len(members))
        starts.append(len(order))
        order += members
    store = codes[:0]
    store.extend(compose(codes, order))
    return store, owner, starts


# -- complement correspondence ---------------------------------------------------


def cocycle_to_complement(P: SemidirectProduct, phi: Cocycle) -> Subgroup:
    """F(phi) = { phi(j) j : j in J }, a complement of N in the semidirect product."""
    action = P.action
    if phi.action is not action:
        raise DomainMismatch("cocycle belongs to a different action")
    J = action.actor
    if phi.domain.order != J.order:
        raise NotASubgroup("complement correspondence needs a cocycle on all of J")
    nj = J.order
    return Subgroup(P.group, (phi.value_at(j) * nj + j for j in range(nj)))


# -- restriction and stable classes --------------------------------------------------


def _local_classes(local: CohomologySet, H: CohomologySet,
                   codes: Sequence[int], s: int) -> Iterator[int]:
    """The class in `local` of the restriction to `local.domain` of the
    conjugate phi^s of each cocycle phi of H, given by its code, for
    `local.domain` inside K meet K^s: phi^s has value act(s', phi(s y s'))
    at y.  Its code is read off those values at the domain's generators
    y, each a column computed along the tree word of s y s' in H's domain
    from the codes' digits; s = 0, the identity, restricts phi itself."""
    tree, G = H._tree, H.domain.parent
    sinv = G.inv[s]
    values = tree.columns(tree.slots(codes), conjugates(G, local._tree.gens, sinv))
    if s:
        values = list(map(compose, repeat(H.action.auto[sinv]), values))
    return map(local._lookup().__getitem__,
               _encode(values, H.action.target.order, len(codes)))


def fixed_classes(H: CohomologySet, S: Subgroup) -> Sequence[int]:
    """The classes of H1(K, N) that every s in S fixes: the stable classes
    (Cartan and Eilenberg, Homological Algebra, 1956, Ch. XII).

    Class i is kept when, for every s, its representative phi and the
    conjugate phi^s restrict to the same class of H1(K meet K^s, N), which
    is H itself when s normalizes K (`_local_classes`).  H1 of a smaller
    meet is `h1`'s, from its cache, and answers to `GENERATOR_ENUM_BUDGET`
    like any `h1`; each distinct meet is built, enumerated and restricted
    to once per call.

    When every generator of S conjugates K.gens into K, S normalizes K and
    acts on H1(K, N), so a class that S.gens fix is fixed by all of S, and
    only S.gens are tried.  With no s to try, every class is fixed, and the
    answer is `range(H.size)`, not a listing of it.
    """
    action, K = H.action, H.domain
    G = K.parent
    normalizes = all(conjugates_into(G, K, K, s) for s in S.gens)
    tries = S.gens if normalizes else S.elements
    out = range(H.size)
    if not tries:
        return out
    # x lies in K meet K^s exactly when s x s' lies in K.
    meets: dict[tuple[int, ...], list[int]] = {}
    for s in tries:
        inside = map(K.__contains__, conjugates(G, K.elements, G.inv[s]))
        meets.setdefault(tuple(compress(K.elements, inside)), []).append(s)
    reps = H._rep_codes()
    for meet, ss in meets.items():
        local = H if meet == K.elements else h1(action, Subgroup(G, meet))
        own = list(_local_classes(local, H, reps, 0))
        for s in ss:
            images = list(_local_classes(local, H, reps, s))
            out = [i for i in out if images[i] == own[i]]
    return tuple(out)


# -- primary decomposition --------------------------------------------------------


def shared_primes(action: ActionOnGroup) -> tuple[int, ...]:
    """Primes dividing both |J| and |N|."""
    norder = action.target.order
    return tuple(p for p in prime_factors(action.actor.order) if norder % p == 0)


def extend_from_sylow(action: ActionOnGroup, q: int, class_index: int) -> int:
    """Extend a J'_q-fixed class of H1(J_q, N) to a class of H1(J, N) by the
    direct recipe ext(j' j) = phi(j), tried on every representative phi of
    the class, for j' in the Hall subgroup J'_q and j in J_q.

    The recipe cannot fail.  H1(J_q, N) = H1(J_q, N_q), since the other
    primary parts of N are coprime to J_q.  J'_q acts coprimely on the
    N_q-orbit that a fixed class forms, so by Glauberman's lemma (Glauberman,
    Math. Z. 84, 1964) some representative has values that J'_q fixes
    pointwise, and on it the recipe gives a cocycle.  So NoPreimageFound
    falsifies the decomposition on this instance.  The recipe's tables are
    looked up in H1(J, N), which must be within `GENERATOR_ENUM_BUDGET` as well.
    """
    J = action.actor
    if not is_nilpotent(J) or not is_nilpotent(action.target):
        raise NotNilpotent("extension requires nilpotent actor and target")
    Jq = sylow_subgroup(J, q)
    Hq = h1(action, Jq)
    full = full_subgroup(J)
    if class_index not in fixed_classes(Hq, hall_pprime(J, q, within=full)):
        raise ValueError(f"class {class_index} is not fixed by the Hall subgroup")
    where = Jq.positions(p_parts(J, q, range(J.order)))  # j -> place of its q-part in J_q
    # H1(J, N) holds every cocycle of Z1(J, N), since `cocycles` is complete,
    # and `class_of` compares the whole table with its code's, so a table is
    # taken exactly when it is a cocycle.
    Hfull = h1(action)
    for values in Hq._member_tables(class_index):
        try:
            return Hfull.class_of(compose(values, where))
        except KeyError:
            pass
    raise NoPreimageFound(
        f"no representative of fixed class {class_index} at q={q} extends to J"
    )


class PrimeBlock:
    """Per-prime data for the Sylow-wise decomposition."""

    __slots__ = ("prime", "sylow", "hall", "h1_local", "fixed")

    def __init__(self, prime: int, sylow: Subgroup, hall: Subgroup,
                 h1_local: CohomologySet, fixed: tuple[int, ...]):
        self.prime, self.sylow, self.hall = prime, sylow, hall
        self.h1_local, self.fixed = h1_local, fixed


class DecompositionReport:
    """Outcome of comparing H1(J, N) with the product of fixed local classes.

    `forward[i]` is the local class tuple of class i's representative.  All
    members of a class restrict to it unless the report is not
    `well_defined`, which falsifies the decomposition."""

    __slots__ = ("shared_primes", "blocks", "h1_full", "_columns", "well_defined",
                 "point_preserved", "injective", "surjective", "failure")

    def __init__(self, shared_primes: tuple[int, ...], blocks: tuple[PrimeBlock, ...],
                 h1_full: CohomologySet, columns: list[Sequence[int]],
                 well_defined: bool, point_preserved: bool, injective: bool,
                 surjective: bool, failure: str | None):
        self.shared_primes, self.blocks, self.h1_full = shared_primes, blocks, h1_full
        self._columns, self.well_defined = columns, well_defined
        self.point_preserved, self.injective = point_preserved, injective
        self.surjective, self.failure = surjective, failure

    @property
    def forward(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self._columns)) if self._columns else ((),) * self.h1_full.size

    @property
    def bijective(self) -> bool:
        return (
            self.well_defined
            and self.point_preserved
            and self.injective
            and self.surjective
        )

    def to_json(self) -> dict:
        return {
            "shared_primes": list(self.shared_primes),
            "h1_size": self.h1_full.size,
            "local_fixed_sizes": [len(b.fixed) for b in self.blocks],
            "forward": [list(t) for t in self.forward],
            "bijective": self.bijective,
            "failure": self.failure,
        }


def decomposition_map(action: ActionOnGroup,
                      budget: int = GENERATOR_ENUM_BUDGET) -> DecompositionReport:
    """Restrict classes of H1(J, N) to every shared-prime Sylow subgroup and
    check the product map onto the fixed local classes is a pointed bijection.

    Any failure here falsifies the decomposition for this instance and
    signals an implementation bug; the report carries a witness.
    """
    if not is_nilpotent(action.actor) or not is_nilpotent(action.target):
        raise NotNilpotent("decomposition requires nilpotent actor and target")
    return _decompose(action, budget)


def _decompose(action: ActionOnGroup, budget: int) -> DecompositionReport:
    """decomposition_map for an action already known to be nilpotent on
    nilpotent, so that `verify_lemma1` tests each group once.

    One pass over the blocks.  Per block, one column holds the local class
    of every cocycle of H1(J, N)'s store, restricted at once from the
    store's codes in store order (`_local_classes`); when J is a p-group,
    its Sylow subgroup's H1 is H1(J, N) itself, from `h1`'s cache, and the
    column is the owner column.  Class i is sent to its representative's
    entries.  The map is well defined when each column equals those entries
    read through the owner column, and lands in the fixed classes when
    every entry is fixed, which a block whose classes are all fixed need not
    test.  Only a failed test looks for its witness: the owner of the first
    differing position is the least class that restricts to several tuples,
    and the first unfixed entry the least class sent outside the fixed
    classes.  The report names the least failing class; on one class, a
    split comes before the blocks' fixedness, in block order.  `forward` is
    zipped from each block's entries when read; one block's are compared as
    ints, and counted without a listing when the block is H1(J, N) itself.
    """
    J = action.actor
    primes = shared_primes(action)
    full = full_subgroup(J)
    blocks = []
    for p in primes:
        Jp = sylow_subgroup(J, p)
        hall = hall_pprime(J, p, within=full)
        local = h1(action, Jp, budget=budget)
        blocks.append(PrimeBlock(p, Jp, hall, local, fixed_classes(local, hall)))
    Hfull = h1(action, budget=budget)
    owner, starts = Hfull._owner, Hfull._starts
    firsts, faults = [], []     # faults: (class, rank, message), rank 0 for a split
    for rank, b in enumerate(blocks, start=1):
        local = b.h1_local
        if local is Hfull:
            first = range(Hfull.size)  # owner[starts[i]] is i
        else:
            column = tuple(_local_classes(local, Hfull, Hfull._codes, 0))
            first = compose(column, starts)
            if column != compose(first, owner):
                i = owner[next(compress(count(), map(ne, column, compose(first, owner))))]
                faults.append((i, 0, f"class {i} restricts to multiple local class tuples"))
        if len(b.fixed) != local.size:
            fixed = set(b.fixed)
            if not all(map(fixed.__contains__, first)):
                i = next(i for i, x in enumerate(first) if x not in fixed)
                faults.append((i, rank, f"class {i} restricts at p={b.prime} to class "
                                        f"{first[i]}, which the Hall subgroup does not fix"))
        firsts.append(first)
    well_defined = all(rank for _, rank, _ in faults)
    all_fixed = not any(rank for _, rank, _ in faults)
    failure = min(faults)[2] if faults else None
    point = tuple(b.h1_local.distinguished for b in blocks)
    point_preserved = tuple(first[Hfull.distinguished] for first in firsts) == point
    if not point_preserved:
        failure = failure or "distinguished class does not map to the distinguished tuple"
    # A block whose local H1 is H1(J, N) sends class i to i: its images are
    # counted, not listed.
    if len(blocks) == 1:
        images = Hfull.size if isinstance(firsts[0], range) else len(set(firsts[0]))
    else:
        images = len(set(zip(*firsts))) if blocks else 1
    injective = images == Hfull.size
    if not injective:
        failure = failure or "two classes restrict to the same local tuple"
    # With every image a tuple of fixed classes, the images are all of them
    # exactly when there are as many as fixed tuples.
    surjective = all_fixed and images == prod(len(b.fixed) for b in blocks)
    if not surjective and failure is None:
        missing = min(set(product(*(b.fixed for b in blocks))) - set(zip(*firsts)))
        failure = f"fixed local tuple {missing} has no preimage"
    return DecompositionReport(
        shared_primes=primes,
        blocks=tuple(blocks),
        h1_full=Hfull,
        columns=firsts,
        well_defined=well_defined,
        point_preserved=point_preserved,
        injective=injective,
        surjective=surjective,
        failure=failure,
    )


# -- abelian cross-check -----------------------------------------------------------


def _p_primary_classes(H: CohomologySet, p: int) -> tuple[int, ...]:
    """The classes of H1(J, N), for abelian N, whose order is a power of p.

    With abelian N, H1 is a group under the pointwise product of
    representatives, and a class's order divides |H1|.  So a class is
    p-primary exactly when its q-th power is the identity class, for q the
    p-part of |H1|; that power is the class of the representative's
    pointwise q-th power.  n -> n^q is an endomorphism of N that every
    automorphism commutes with, so that power is a cocycle, and its code is
    the representative's digits raised to the q-th power, one composition
    with n -> n^q per digit column.
    """
    N = H.action.target
    q = p_part(H.size, p)
    power = [N.power(n, q) for n in range(N.order)]
    reps, index = H._rep_codes(), H._lookup()
    powers = _encode(list(map(compose, repeat(power), H._tree.slots(reps))), N.order, len(reps))
    return tuple(i for i, code in enumerate(powers) if index[code] == H.distinguished)


class Eq3Report:
    """Abelian primary decomposition: the product over shared primes of
    J-invariant local classes recovers H1(J, N), via restriction maps that are
    bijections from the p-primary components."""

    __slots__ = ("shared_primes", "h1_order", "invariant_sizes", "product_matches",
                 "restrictions_bijective", "failure")

    def __init__(self, shared_primes: tuple[int, ...], h1_order: int,
                 invariant_sizes: tuple[int, ...], product_matches: bool,
                 restrictions_bijective: bool, failure: str | None):
        self.shared_primes, self.h1_order = shared_primes, h1_order
        self.invariant_sizes, self.product_matches = invariant_sizes, product_matches
        self.restrictions_bijective, self.failure = restrictions_bijective, failure

    @property
    def ok(self) -> bool:
        return self.product_matches and self.restrictions_bijective

    def to_json(self) -> dict:
        return {
            "shared_primes": list(self.shared_primes),
            "h1_order": self.h1_order,
            "invariant_sizes": list(self.invariant_sizes),
            "ok": self.ok,
            "failure": self.failure,
        }


def eq3_check(action: ActionOnGroup) -> Eq3Report:
    """Verify the abelian primary decomposition of H1(J, N) for abelian N.

    For each shared prime p: the p-primary component of H1(J, N) must
    restrict bijectively onto the J-invariant classes of H1(J_p, N), and the
    invariant class counts must multiply to |H1(J, N)|.
    """
    N = action.target
    if not N.is_abelian():
        raise NotAbelian("the abelian cross-check needs an abelian target")
    J = action.actor
    H = h1(action)
    whole = full_subgroup(J)
    primes = shared_primes(action)
    inv_sizes = []
    failure = None
    restrictions_ok = True
    for p in primes:
        Jp = sylow_subgroup(J, p)
        local = h1(action, Jp)
        inv = fixed_classes(local, whole)
        inv_sizes.append(len(inv))
        primary = compose(H._rep_codes(), _p_primary_classes(H, p))
        images = list(_local_classes(local, H, primary, 0))
        if len(set(images)) != len(images):
            restrictions_ok = False
            failure = failure or f"restriction at p={p} is not injective on the primary part"
        elif set(images) != set(inv):
            restrictions_ok = False
            failure = failure or (
                f"restriction at p={p} does not map the primary part onto the "
                "invariant classes"
            )
    expected = prod(inv_sizes)
    product_matches = H.size == expected
    if not product_matches:
        failure = failure or (
            f"|H1| = {H.size} but invariant class counts multiply to {expected}"
        )
    return Eq3Report(
        shared_primes=primes,
        h1_order=H.size,
        invariant_sizes=tuple(inv_sizes),
        product_matches=product_matches,
        restrictions_bijective=restrictions_ok,
        failure=failure,
    )
