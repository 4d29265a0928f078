"""Built-in group and action constructors, and the default instance catalog.

The shipped catalog holds 28 nilpotent-on-nilpotent actions, most of them
non-coprime and three with a pair of shared primes, plus a handful of
abelian-coefficient instances with a non-nilpotent actor for the abelian
cross-check.
"""

from __future__ import annotations

import math
from typing import Callable

from ..actions import ActionOnGroup, action_from_generator_images, trivial_action
from ..errors import NoIdentity
from ..groups import Group, conjugates, group_from_rows
from ..structure import prime_factors


# -- group constructors ------------------------------------------------------------


def cyclic(n: int) -> Group:
    """Z_n on 0..n-1, walked from the row y -> y + 1 of its generator 1
    (no generator for n = 1; NoIdentity for n < 1)."""
    gens = [(1, tuple(range(1, n)) + (0,))] if n > 1 else []
    return group_from_rows(n, gens, name=f"C{n}")


def abelian(factors: list[int]) -> Group:
    """Direct product of cyclic groups, mixed-radix encoded, the first factor
    most significant.

    Built from the rows of the unit vectors: with f a factor and s its
    stride, the product of the factors after it, the unit vector s adds s
    to x and wraps within x's block of f*s elements."""
    if min(factors, default=1) < 1:
        raise NoIdentity("empty table")
    n = math.prod(factors)
    strides = [math.prod(factors[i + 1:]) for i in range(len(factors))]
    rows = [(s, tuple(x + s if x // s % f < f - 1 else x - (f - 1) * s for x in range(n)))
            for f, s in zip(factors, strides) if f > 1]
    return group_from_rows(n, rows, name="x".join(f"C{f}" for f in factors))


def dihedral(n: int) -> Group:
    """Order 2n; index s*n + i encodes the map x -> (-1)^s x + i on Z_n.

    Rotations occupy indices 0..n-1, reflections n..2n-1.  Built from the
    rows of 1 and n, the rotation x -> x + 1 and the reflection x -> -x.
    """
    def mul(g1: int, g2: int) -> int:
        s1, i1 = divmod(g1, n)
        s2, i2 = divmod(g2, n)
        i = (i1 + (i2 if s1 == 0 else -i2)) % n
        return ((s1 + s2) % 2) * n + i

    rows = [(g, tuple(mul(g, b) for b in range(2 * n))) for g in (1, n)]
    return group_from_rows(2 * n, rows, name=f"D{n}")


def quaternion8() -> Group:
    """The quaternion group; index 2b + s encodes (-1)^s e_b for e in (1,i,j,k).
    Built from the rows of i and j."""
    # signs[a][b]: sign flip of e_a * e_b; rows follow i*j=k, j*k=i, k*i=j.
    signs = [
        [0, 0, 0, 0],   # 1 * x
        [0, 1, 0, 1],   # i: i*1=i, i*i=-1, i*j=k, i*k=-j
        [0, 1, 1, 0],   # j: j*i=-k, j*j=-1, j*k=i
        [0, 0, 1, 1],   # k: k*i=j, k*j=-i, k*k=-1
    ]
    prod = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]

    def mul(g1: int, g2: int) -> int:
        b1, s1 = divmod(g1, 2)
        b2, s2 = divmod(g2, 2)
        return prod[b1][b2] * 2 + (s1 + s2 + signs[b1][b2]) % 2

    rows = [(g, tuple(mul(g, b) for b in range(8))) for g in (2, 4)]
    return group_from_rows(8, rows, name="Q8")


def heisenberg(p: int) -> Group:
    """Upper unitriangular 3x3 matrices over F_p: order p^3, class 2.
    Built from the rows of the two elementary matrices, (1, 0, 0) at index
    p^2 and (0, 1, 0) at index p."""
    if prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    size = p ** 3

    def mul(g1: int, g2: int) -> int:
        a1, r1 = divmod(g1, p * p)
        b1, c1 = divmod(r1, p)
        a2, r2 = divmod(g2, p * p)
        b2, c2 = divmod(r2, p)
        return ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p

    rows = [(g, tuple(mul(g, b) for b in range(size))) for g in (p * p, p)]
    return group_from_rows(size, rows, name=f"Heis{p}")


def direct_product(G: Group, H: Group) -> Group:
    """G x H, (a, b) at index a*|H| + b, built from the rows of (g, 0) for g
    in G.gens and (0, h) for h in H.gens."""
    m = H.order
    rows = [(g * m, tuple(a * m + b for a in G.mul[g] for b in range(m))) for g in G.gens]
    rows += [(h, tuple(a * m + b for a in range(G.order) for b in H.mul[h])) for h in H.gens]
    name = None
    if G.name and H.name:
        name = f"{G.name}x{H.name}"
    return group_from_rows(G.order * m, rows, name=name)


# Each builtin with the order it builds from the same arguments, so that
# scenario input can be capped before any table is built.
BUILTIN_GROUPS: dict[str, tuple[Callable[..., Group], Callable[..., int]]] = {
    "cyclic": (cyclic, lambda n: n),
    "abelian": (abelian, lambda factors: math.prod(factors)),
    "dihedral": (dihedral, lambda n: 2 * n),
    "quaternion8": (quaternion8, lambda: 8),
    "heisenberg": (heisenberg, lambda p: p ** 3),
}


# -- action constructors -----------------------------------------------------------


def inversion_action(N: Group) -> ActionOnGroup:
    """C2 inverting an abelian target."""
    C2 = cyclic(2)
    return action_from_generator_images(C2, N, [1], [N.inv], name="inversion")


def swap_action(A: Group) -> ActionOnGroup:
    """C2 swapping the factors of A x A."""
    N = direct_product(A, A)
    perm = [0] * N.order
    for a in range(A.order):
        for b in range(A.order):
            perm[a * A.order + b] = b * A.order + a
    C2 = cyclic(2)
    return action_from_generator_images(C2, N, [1], [perm], name="swap")


def cyclic_action(J: Group, N: Group, image: list[int], name: str | None = None) -> ActionOnGroup:
    """A cyclic actor, generator index 1 mapped to the given automorphism."""
    return action_from_generator_images(J, N, [1], [image], name=name)


def conjugation_self_action(G: Group) -> ActionOnGroup:
    """G acting on itself by conjugation: j sends n to j n j', from the
    conjugations by G.gens."""
    images = [conjugates(G, range(G.order), G.inv[g]) for g in G.gens]
    return action_from_generator_images(G, G, G.gens, images, name="conjugation")


def power_map(n: int, k: int) -> list[int]:
    """The map x -> k x on Z_n (an automorphism when gcd(k, n) = 1)."""
    return [(k * x) % n for x in range(n)]


# -- catalog -----------------------------------------------------------------------


class ActionInstance:
    """One catalog entry: a named action with classification tags, built on
    first use and kept."""

    __slots__ = ("id", "description", "build", "tags", "_cached")

    def __init__(self, id: str, description: str, build: Callable[[], ActionOnGroup],
                 tags: frozenset[str] = frozenset()):
        self.id, self.description, self.build, self.tags = id, description, build, tags
        self._cached = None

    def action(self) -> ActionOnGroup:
        if self._cached is None:
            self._cached = self.build()
        return self._cached


def _shared(j_order: int, n_order: int) -> list[int]:
    return [p for p in prime_factors(j_order) if n_order % p == 0]


def _tags(j_order: int, n_order: int, extra: tuple[str, ...] = ()) -> frozenset[str]:
    shared = _shared(j_order, n_order)
    tags = set(extra)
    tags.add("noncoprime" if shared else "coprime")
    if len(shared) >= 2:
        tags.add("two_shared_primes")
    return frozenset(tags)


def _q8_cycle_perm() -> list[int]:
    # i -> j -> k -> i, signs along for the ride.
    return [0, 1, 4, 5, 6, 7, 2, 3]


def _q8_twist_perm() -> list[int]:
    # i <-> j, k -> -k (conjugation-flavored involution).
    return [0, 1, 4, 5, 2, 3, 7, 6]


def _c2c2_cycle_perm() -> list[int]:
    # (1,0) -> (0,1) -> (1,1) -> (1,0) on index a*2 + b.
    return [0, 3, 1, 2]


def _c3c3_shear_perm() -> list[int]:
    # (a, b) -> (a + b, b) on index a*3 + b.
    return [((a + b) % 3) * 3 + b for a in range(3) for b in range(3)]


def _heis3_inner_perm() -> list[int]:
    H = heisenberg(3)
    g = 9  # the element (1, 0, 0)
    return [H.mul[H.mul[g][x]][H.inv[g]] for x in range(27)]


def _q8c3_twist_perm() -> list[int]:
    # Conjugation by i on the Q8 factor, inversion on the C3 factor.
    Q8 = quaternion8()
    conj_i = [Q8.mul[Q8.mul[2][x]][Q8.inv[2]] for x in range(8)]
    out = [0] * 24
    for q in range(8):
        for c in range(3):
            out[q * 3 + c] = conj_i[q] * 3 + ((3 - c) % 3)
    return out


def _d4_on_c4_action() -> ActionOnGroup:
    # The rotation 1 acts trivially and the reflection 4 inverts.
    C4 = cyclic(4)
    return action_from_generator_images(dihedral(4), C4, [1, 4], [range(4), C4.inv],
                                        name="d4_proj")


def _s3_sign_action(n_order: int) -> ActionOnGroup:
    # The rotation 1 acts trivially and the reflection 3 inverts.
    N = cyclic(n_order)
    return action_from_generator_images(dihedral(3), N, [1, 3], [range(n_order), N.inv],
                                        name=f"s3_sign_c{n_order}")


def _build_catalog() -> list[ActionInstance]:
    entries = [
        ActionInstance(
            "c2_inv_c4", "C2 inverts C4 (semidirect product is D4)",
            lambda: inversion_action(cyclic(4)), _tags(2, 4, ("abelian_n", "spot"))),
        ActionInstance(
            "c2_swap_c2c2", "C2 swaps the factors of C2 x C2",
            lambda: swap_action(cyclic(2)), _tags(2, 4, ("abelian_n", "spot"))),
        ActionInstance(
            "c2_inv_c3", "C2 inverts C3 (coprime)",
            lambda: inversion_action(cyclic(3)), _tags(2, 3, ("abelian_n",))),
        ActionInstance(
            "c3_cycle_q8", "C3 cycles i, j, k in the quaternion group (coprime)",
            lambda: cyclic_action(cyclic(3), quaternion8(), _q8_cycle_perm(),
                                  name="q8_cycle"),
            _tags(3, 8)),
        ActionInstance(
            "c2_inv_c6", "C2 inverts C6",
            lambda: inversion_action(cyclic(6)), _tags(2, 6, ("abelian_n",))),
        ActionInstance(
            "c6_inv_c6", "C6 inverts C6 componentwise (two shared primes)",
            lambda: cyclic_action(cyclic(6), cyclic(6), power_map(6, 5),
                                  name="c6_inv"),
            _tags(6, 6, ("abelian_n",))),
        ActionInstance(
            "c6_inv_c3", "C6 inverts C3 through its 2-part",
            lambda: cyclic_action(cyclic(6), cyclic(3), power_map(3, 2),
                                  name="c6_on_c3"),
            _tags(6, 3, ("abelian_n",))),
        ActionInstance(
            "c4_inv_c4", "C4 inverts C4 through its order-2 quotient",
            lambda: cyclic_action(cyclic(4), cyclic(4), power_map(4, 3),
                                  name="c4_inv"),
            _tags(4, 4, ("abelian_n",))),
        ActionInstance(
            "c2_inv_c8", "C2 inverts C8",
            lambda: inversion_action(cyclic(8)), _tags(2, 8, ("abelian_n",))),
        ActionInstance(
            "c2_pow5_c8", "C2 acts on C8 by x -> 5x",
            lambda: cyclic_action(cyclic(2), cyclic(8), power_map(8, 5),
                                  name="pow5"),
            _tags(2, 8, ("abelian_n",))),
        ActionInstance(
            "c2_pow3_c8", "C2 acts on C8 by x -> 3x",
            lambda: cyclic_action(cyclic(2), cyclic(8), power_map(8, 3),
                                  name="pow3"),
            _tags(2, 8, ("abelian_n",))),
        ActionInstance(
            "c4_swap_c2c2", "C4 swaps the factors of C2 x C2 through its quotient",
            lambda: cyclic_action(cyclic(4), abelian([2, 2]), [0, 2, 1, 3],
                                  name="c4_swap"),
            _tags(4, 4, ("abelian_n",))),
        ActionInstance(
            "c2_twist_q8", "C2 swaps i and j in the quaternion group",
            lambda: cyclic_action(cyclic(2), quaternion8(), _q8_twist_perm(),
                                  name="q8_twist"),
            _tags(2, 8)),
        ActionInstance(
            "c3_cycle_c2c2", "C3 cycles the involutions of C2 x C2 (coprime)",
            lambda: cyclic_action(cyclic(3), abelian([2, 2]), _c2c2_cycle_perm(),
                                  name="v4_cycle"),
            _tags(3, 4, ("abelian_n",))),
        ActionInstance(
            "c3_inner_heis3", "C3 acts on the Heisenberg group of order 27 by an inner automorphism",
            lambda: cyclic_action(cyclic(3), heisenberg(3), _heis3_inner_perm(),
                                  name="heis_inner"),
            _tags(3, 27)),
        ActionInstance(
            "c3_shear_c3c3", "C3 shears C3 x C3",
            lambda: cyclic_action(cyclic(3), abelian([3, 3]), _c3c3_shear_perm(),
                                  name="shear"),
            _tags(3, 9, ("abelian_n",))),
        ActionInstance(
            "c2c2_on_c4", "C2 x C2 acts on C4: one factor inverts, the other is inert",
            lambda: action_from_generator_images(
                abelian([2, 2]), cyclic(4), [2, 1],
                [list(cyclic(4).inv), list(range(4))], name="v4_on_c4"),
            _tags(4, 4, ("abelian_n",))),
        ActionInstance(
            "c4_pow2_c5", "C4 acts on C5 by x -> 2x (coprime)",
            lambda: cyclic_action(cyclic(4), cyclic(5), power_map(5, 2),
                                  name="pow2"),
            _tags(4, 5, ("abelian_n",))),
        ActionInstance(
            "c2_triv_c2", "C2 acts trivially on C2",
            lambda: trivial_action(cyclic(2), cyclic(2)),
            _tags(2, 2, ("abelian_n", "trivial"))),
        ActionInstance(
            "c3_triv_c3", "C3 acts trivially on C3",
            lambda: trivial_action(cyclic(3), cyclic(3)),
            _tags(3, 3, ("abelian_n", "trivial"))),
        ActionInstance(
            "c2_triv_c4", "C2 acts trivially on C4",
            lambda: trivial_action(cyclic(2), cyclic(4)),
            _tags(2, 4, ("abelian_n", "trivial"))),
        ActionInstance(
            "c3c3_triv_c3", "C3 x C3 acts trivially on C3",
            lambda: trivial_action(abelian([3, 3]), cyclic(3)),
            _tags(9, 3, ("abelian_n", "trivial"))),
        ActionInstance(
            "q8_conj_q8", "Q8 acts on Q8 by conjugation",
            lambda: conjugation_self_action(quaternion8()),
            _tags(8, 8)),
        ActionInstance(
            "d4_proj_c4", "D4 acts on C4 through its reflection quotient",
            _d4_on_c4_action, _tags(8, 4, ("abelian_n",))),
        ActionInstance(
            "c2_inv_c2c4", "C2 inverts C2 x C4",
            lambda: inversion_action(abelian([2, 4])),
            _tags(2, 8, ("abelian_n",))),
        ActionInstance(
            "c6_inv_c12", "C6 inverts C12 (two shared primes)",
            lambda: cyclic_action(cyclic(6), cyclic(12), power_map(12, 11),
                                  name="c6_on_c12"),
            _tags(6, 12, ("abelian_n",))),
        ActionInstance(
            "c9_pow4_c9", "C9 acts on C9 by x -> 4x",
            lambda: cyclic_action(cyclic(9), cyclic(9), power_map(9, 4),
                                  name="pow4"),
            _tags(9, 9, ("abelian_n",))),
        ActionInstance(
            "c6_twist_q8c3",
            "C6 twists Q8 x C3: conjugation by i and inversion (two shared "
            "primes, nonabelian target)",
            lambda: cyclic_action(cyclic(6), direct_product(quaternion8(),
                                                            cyclic(3)),
                                  _q8c3_twist_perm(), name="q8c3_twist"),
            _tags(6, 24)),
    ]
    return entries


CATALOG: list[ActionInstance] = _build_catalog()


EQ3_EXTRA: list[ActionInstance] = [
    ActionInstance(
        "s3_sign_c3", "S3 acts on C3 by sign (non-nilpotent actor)",
        lambda: _s3_sign_action(3),
        frozenset({"noncoprime", "abelian_n", "non_nilpotent_j"})),
    ActionInstance(
        "s3_sign_c6", "S3 acts on C6 by sign (non-nilpotent actor, two shared primes)",
        lambda: _s3_sign_action(6),
        frozenset({"noncoprime", "abelian_n", "non_nilpotent_j",
                   "two_shared_primes"})),
]


def catalog_by_id() -> dict[str, ActionInstance]:
    out = {}
    for inst in CATALOG + EQ3_EXTRA:
        if inst.id in out:
            raise ValueError(f"duplicate catalog id {inst.id}")
        out[inst.id] = inst
    return out
