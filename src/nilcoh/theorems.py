"""Executable verifiers for the conjugacy and fixed-point statements.

Each verifier checks its hypotheses strictly and separately from the
conclusion.  A failed conclusion under satisfied hypotheses is a
FALSIFICATION record: by the underlying theorems it can only mean an
implementation bug, and the reporting channel exists to make that testable.
"""

from __future__ import annotations

from typing import Sequence

from .actions import (
    ActionOnGroup,
    GSet,
    conjugation_action_with_maps,
    fixed_points,
    is_transitive,
    semidirect_embeddings,
    stabilizer,
)
from .cohomology import (
    GENERATOR_ENUM_BUDGET,
    _decompose,
    extend_from_sylow,
    fixed_classes,
    h1,
)
from .errors import (
    BudgetExceeded,
    HypothesisNotMet,
    NoConjugatorFound,
    NoPreimageFound,
    ProofStepFailed,
)
from .groups import (
    Group,
    Subgroup,
    are_conjugate_subgroups,
    centralizer,
    compose,
    conjugacy_orbit,
    conjugates_into,
    conjugator_into,
    quotient,
)
from .structure import (
    complement_classes,
    complements,
    hall_pprime,
    is_nilpotent,
    is_nilpotent_subgroup,
    p_parts,
    prime_factors,
    subgroup_conjugacy_classes,
    sylow_subgroup,
)


class VerificationReport:
    """Outcome of one verifier run on one instance.

    `expectation_met` is the outcome of user-supplied expectations (counts
    etc.); a miss fails the check without claiming a theorem falsification.
    """

    __slots__ = ("theorem", "instance", "hypotheses", "details", "conclusion_verified",
                 "witness", "notes", "relaxed", "expectation_met")

    def __init__(self, theorem: str, instance: str, relaxed: bool = False):
        self.theorem, self.instance, self.relaxed = theorem, instance, relaxed
        self.hypotheses, self.details, self.notes = {}, {}, []
        self.conclusion_verified = self.witness = self.expectation_met = None

    @property
    def hypotheses_met(self) -> bool:
        return all(self.hypotheses.values())

    @property
    def falsification(self) -> bool:
        # Only meaningful conclusions can falsify; relaxed runs are observations.
        return (
            self.hypotheses_met
            and not self.relaxed
            and self.conclusion_verified is False
        )

    @property
    def passed(self) -> bool:
        return (
            self.hypotheses_met
            and bool(self.conclusion_verified)
            and self.expectation_met is not False
        )

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_json(self) -> dict:
        hyp = {}
        for name, met in self.hypotheses.items():
            hyp[name] = {"met": met, "detail": self.details.get(name, "")}
        return {
            "theorem": self.theorem,
            "instance": self.instance,
            "hypotheses": hyp,
            "pass": self.passed,
            "witness": self.witness,
            "falsification": self.falsification,
        }


def _set_hypothesis(report: VerificationReport, name: str, met: bool, detail: str = "") -> bool:
    report.hypotheses[name] = met
    if detail:
        report.details[name] = detail
    return met


def _sylow_containment_data(G: Group, J: Subgroup, H: Subgroup) -> dict[int, int | None]:
    """For each prime p dividing |J|: a conjugator of J_p into H, if any."""
    return {
        p: conjugator_into(G, sylow_subgroup(G, p, within=J), H)
        for p in prime_factors(J.order)
    }


def _prop5_setting_checks(
    G: Group, N: Subgroup, J: Subgroup, H: Subgroup
) -> list[tuple[str, bool, str]]:
    if N.parent is not G or J.parent is not G or H.parent is not G:
        raise ValueError("N, J, H must be subgroups of G")
    return [
        ("n_normal", N.is_normal(), "N is not normal in G"),
        ("n_nilpotent", is_nilpotent_subgroup(N), "N is not nilpotent"),
        ("j_nilpotent", is_nilpotent_subgroup(J), "J is not nilpotent"),
        ("j_complements_n",
         J.order * N.order == G.order
         and sum(1 for x in J.elements if x in N) == 1,
         "J is not a complement of N in G"),
    ]


def _prop5_hypotheses(G: Group, N: Subgroup, J: Subgroup, H: Subgroup) -> dict[int, int | None]:
    """The Sylow containment data, once every prop5 hypothesis is checked;
    raises HypothesisNotMet on the first that fails."""
    for name, ok, detail in _prop5_setting_checks(G, N, J, H):
        if not ok:
            raise HypothesisNotMet(name, detail)
    data = _sylow_containment_data(G, J, H)
    missing = sorted(p for p, g in data.items() if g is None)
    if missing:
        raise HypothesisNotMet(
            "sylow_conjugate_in_h",
            f"H contains no conjugate of the Sylow part at primes {missing}",
        )
    return data


def find_conjugator(G: Group, N: Subgroup, J: Subgroup, H: Subgroup) -> int:
    """The least g with J^g contained in H, when every Sylow subgroup of J
    has a conjugate inside H: the contract, a scan of G in index order."""
    _prop5_hypotheses(G, N, J, H)
    g = conjugator_into(G, J, H)
    if g is None:
        raise NoConjugatorFound("hypotheses hold but no conjugate of J lies in H")
    return g


def _guided_conjugator(
    G: Group, N: Subgroup, J: Subgroup, H: Subgroup, sylow_data: dict[int, int | None]
) -> int:
    """An element g with J^g contained in H, found by the inductive argument
    through quotients, the center of N and the complement correspondence
    from the Sylow data of checked hypotheses (`_prop5_hypotheses`), and
    verified elementwise.  A step it cannot complete raises ProofStepFailed,
    which names the step."""
    g = _proof_guided(G, N, J, H, sylow_data)
    if not conjugates_into(G, J, H, g):
        raise ProofStepFailed("elementwise check of the result")
    return g


def _image_subgroup(pi, S: Subgroup) -> Subgroup:
    return Subgroup(pi.target, {pi(x) for x in S.elements})


def _j_part_factor(G: Group, J: Subgroup, N: Subgroup, g: int) -> int:
    """The N-part n of the factorization g = j n with j in J, n in N."""
    for j in J.elements:
        n = G.mul[G.inv[j]][g]
        if n in N:
            return n
    raise ProofStepFailed("J*N factorization")  # pragma: no cover


def _proof_guided(
    G: Group, N: Subgroup, J: Subgroup, H: Subgroup, sylow_data: dict[int, int | None]
) -> int:
    """The induction of the conjugacy argument."""
    if all(j in H for j in J.elements):
        return 0
    jprimes = prime_factors(J.order)
    if len(jprimes) == 1:
        g = sylow_data[jprimes[0]]  # J is its own Sylow subgroup
        if g is None:
            raise ProofStepFailed("single-prime base case")
        return g
    nprimes = prime_factors(N.order)
    if len(nprimes) >= 2:
        return _two_prime_step(G, N, J, H, nprimes[0])
    return _single_prime_coefficients(G, N, J, H, nprimes[0] if nprimes else None)


def _recurse_in_quotient(
    G: Group, N: Subgroup, J: Subgroup, H: Subgroup, kernel: Subgroup
) -> int:
    """Run the induction in G/kernel; returns a lift of the quotient conjugator."""
    Q, pi = quotient(G, kernel)
    nbar = _image_subgroup(pi, N)
    jbar = _image_subgroup(pi, J)
    hbar = _image_subgroup(pi, H)
    data = _sylow_containment_data(Q, jbar, hbar)
    if None in data.values():
        raise ProofStepFailed("hypotheses degenerate in quotient")
    return pi.images.index(_proof_guided(Q, nbar, jbar, hbar, data))


def _two_prime_step(G: Group, N: Subgroup, J: Subgroup, H: Subgroup, p: int) -> int:
    """Split N into its p-part and p'-part and combine quotient conjugators."""
    g0 = _recurse_in_quotient(G, N, J, H, sylow_subgroup(G, p, within=N))  # J^g0 <= H Np
    g1 = _recurse_in_quotient(G, N, J, H, hall_pprime(G, p, within=N))  # J^g1 <= H Npp
    # Normalize both conjugators into N, then project to the complementary part.
    n0 = _j_part_factor(G, J, N, g0)
    n1 = _j_part_factor(G, J, N, g1)
    n0_p, n1_p = p_parts(G, p, (n0, n1))
    n0_rest = G.mul[G.inv[n0_p]][n0]
    g = G.mul[n0_rest][n1_p]  # n0' in N_p', n1_p in N_p; parts commute
    if not conjugates_into(G, J, H, g):
        raise ProofStepFailed("two-prime combination")
    return g


def _single_prime_coefficients(
    G: Group, N: Subgroup, J: Subgroup, H: Subgroup, q: int | None
) -> int:
    """The q-group coefficient case: climb through the center of N."""
    if q is None:
        # N trivial: H supplements, so H = G was already handled.
        raise ProofStepFailed("trivial-N case")
    # Arrange J_q <= H by switching to a conjugate of H.
    Jq = sylow_subgroup(G, q, within=J)
    g0 = conjugator_into(G, Jq, H)
    if g0 is None:
        raise ProofStepFailed("q-Sylow placement")
    if g0 != 0:
        H1 = H.conjugate_by(G.inv[g0])
        inner = _single_prime_coefficients(G, N, J, H1, q)
        g = G.mul[inner][g0]
        if not conjugates_into(G, J, H, g):
            raise ProofStepFailed("conjugate-of-H unwinding")
        return g
    Z = Subgroup(G, (z for z in centralizer(G, N).elements if z in N))
    ZH = Subgroup(G, (z for z in Z.elements if z in H))
    if not ZH.is_trivial():
        g = _recurse_in_quotient(G, N, J, H, ZH)
        if not conjugates_into(G, J, H, g):
            raise ProofStepFailed("central-intersection lift")
        return g
    if Z.is_trivial():
        raise ProofStepFailed("centerless coefficient group")
    g = _recurse_in_quotient(G, N, J, H, Z)  # J^g <= HZ
    return _correspondence_finish(G, N, J, H, Z, q, g)


def _correspondence_finish(
    G: Group, N: Subgroup, J: Subgroup, H: Subgroup, Z: Subgroup, q: int, g: int
) -> int:
    """From J^g <= HZ with H meeting Z trivially, build a complement L of N
    inside H through the cocycle correspondence, then conjugate J onto L."""
    _, pizq = quotient(G, Z)
    jg_images = {pizq(G.conj(x, g)) for x in J.elements}
    K_elements = [h for h in H.elements if pizq(h) in jg_images]
    if len(K_elements) != J.order:
        raise ProofStepFailed("pulling the quotient complement into H")
    K = Subgroup(G, K_elements)
    # The cocycle of J against base complement K, valued in N.
    HN = Subgroup(G, (x for x in H.elements if x in N))
    act, kmap, mmap = conjugation_action_with_maps(G, HN, K)
    mpos = {x: i for i, x in enumerate(mmap)}
    values = []
    for k in kmap:
        j = next((j for j in J.elements if G.mul[j][G.inv[k]] in N), None)
        if j is None:
            raise ProofStepFailed("matching J across cosets of N")
        values.append(G.mul[j][G.inv[k]])
    Kg = act.actor
    Kq = sylow_subgroup(Kg, q)
    # phi restricted to K_q must take values in H-meet-N.
    if any(values[i] not in HN for i in Kq.elements):
        raise ProofStepFailed("restricted cocycle values outside H")
    phi_q = tuple(mpos[values[i]] for i in Kq.elements)
    Hq = h1(act, Kq)
    cls = Hq.class_of(phi_q)
    if cls not in fixed_classes(Hq, hall_pprime(Kg, q)):
        raise ProofStepFailed("restricted class not Hall-fixed")
    ext_cls = extend_from_sylow(act, q, cls)
    # H1(Kg, N)'s tables are indexed by element, so psi restricts to K_q at
    # K_q's elements.
    psi = next((t for t in h1(act)._member_tables(ext_cls)
                if compose(t, Kq.elements) == phi_q), None)
    if psi is None:
        raise ProofStepFailed("aligning the extension with the q-part")
    L = Subgroup(G, (G.mul[mmap[psi[i]]][kmap[i]] for i in range(Kg.order)))
    conj = are_conjugate_subgroups(G, J, L)
    if conj is None or not conjugates_into(G, J, H, conj):
        raise ProofStepFailed("final conjugation onto the complement in H")
    return conj


# -- verifiers --------------------------------------------------------------------


def verify_prop2(G: Group, N: Subgroup, instance: str = "",
                 relaxed: bool = False) -> VerificationReport:
    """Nilpotent complements of a nilpotent normal subgroup are conjugate
    exactly when they are locally conjugate.  Both relations are computed as
    partitions of the complements, conjugacy classes and local keys, and
    compared; the witness of a mismatch is the first pair (a, b), a < b in
    lexicographic order, that one partition joins and the other separates.
    complements() lifts the generators of G/N and is complete, so only its
    work budget can fail the complements_enumerable hypothesis.  The
    conjugacy classes are the N-classes kept with the complements
    (`complement_classes`), which are their G-classes."""
    report = VerificationReport("prop2", instance, relaxed=relaxed)
    normal = _set_hypothesis(report, "n_normal", N.is_normal())
    _set_hypothesis(report, "n_nilpotent", is_nilpotent_subgroup(N))
    if not normal:
        return report  # complements of N are defined only for N normal
    comps: list[Subgroup] = []
    try:
        comps = complements(G, N)
        _set_hypothesis(report, "complements_enumerable", True)
    except BudgetExceeded as exc:
        _set_hypothesis(report, "complements_enumerable", False, str(exc))
    if report.hypotheses_met or (relaxed and report.hypotheses["complements_enumerable"]):
        # Every complement K is isomorphic to G/N (K = KN/N), so either all
        # of them are nilpotent or none is, and one test decides.
        nilp = comps if comps and is_nilpotent_subgroup(comps[0]) else []
        skipped = len(comps) - len(nilp)
        if skipped:
            report.note(
                f"NonNilpotentComplementSkipped: {skipped} complements excluded"
            )
        local = _local_keys(G, nilp)
        conj = _labels(complement_classes(G, N)) if nilp else []
        mismatch = None
        pair = _first_disagreement(local, conj)
        if pair is not None:
            a, b = pair
            mismatch = {
                "pair": [list(nilp[a].elements), list(nilp[b].elements)],
                "locally_conjugate": local[a] == local[b],
                "conjugate": conj[a] == conj[b],
            }
        report.conclusion_verified = mismatch is None
        report.witness = mismatch if mismatch else {"complements": len(comps),
                                                    "nilpotent": len(nilp)}
    return report


def verify_prop3(G: Group, N: Subgroup, instance: str = "",
                 relaxed: bool = False) -> VerificationReport:
    """If some Sylow p-subgroup S of G has all complements of S-meet-N inside
    S conjugate in G (for every p), then all complements of N in G are
    conjugate.  complements() lifts the generators of each quotient and is
    complete, so only its work budget can leave complements out.  The
    conclusion reads the classes kept with the complements
    (`complement_classes`).

    Each prime is decided on one Sylow p-subgroup S, the least of its
    conjugates by sorted elements.  Every Sylow p-subgroup is S^g (Sylow's
    theorem), and conjugation by g carries the complements of N-meet-S in S
    onto those of N-meet-S^g in S^g and keeps G-conjugacy, so the condition
    holds at one Sylow p-subgroup exactly when it holds at all of them.  The
    enumeration's budget counts closures along S's own generating sequence,
    so near the budget's edge a prime can read undecided that another
    conjugate would have decided: an unmet hypothesis, never a
    falsification."""
    report = VerificationReport("prop3", instance, relaxed=relaxed)
    _set_hypothesis(report, "n_nilpotent", is_nilpotent_subgroup(N))
    if not N.is_normal():
        _set_hypothesis(report, "n_normal", False, "N is not normal in G")
        return report  # complements of N are defined only for N normal
    comps = None
    try:
        comps = complements(G, N)
    except BudgetExceeded as exc:
        # Whether G splits over N is left undecided.
        _set_hypothesis(report, "complements_enumerable", False, str(exc))
    if comps is not None:
        _set_hypothesis(report, "splits_over_n", bool(comps))
    if comps:
        # Every complement is isomorphic to G/N, as in verify_prop2.
        _set_hypothesis(report, "quotient_nilpotent", is_nilpotent_subgroup(comps[0]))
    certified: dict[int, list[int]] = {}
    for p in prime_factors(G.order):
        S = Subgroup(G, min(conjugacy_orbit(G, sylow_subgroup(G, p).elements, G.gens)))
        name = f"local_conjugacy_p{p}"
        try:
            local = complements(G, N, within=S)
        except BudgetExceeded as exc:
            _set_hypothesis(report, name, False,
                            f"undecided: the local complement enumeration stopped: {exc}")
            continue
        if len(subgroup_conjugacy_classes(G, local)) <= 1:
            certified[p] = list(S.elements)
            _set_hypothesis(report, name, True, f"certified Sylow subgroup {certified[p]}")
        else:
            _set_hypothesis(report, name, False,
                            f"no Sylow {p}-subgroup has all local complements conjugate in G")
    if comps is not None and (report.hypotheses_met or relaxed):
        # All conjugate means one class; a pairwise scan would first fail at
        # (0, b) for the least b outside the class of comps[0], which opens
        # the second class, as classes come in first-seen order.
        classes = complement_classes(G, N)
        b = min(classes[1]) if len(classes) > 1 else None
        bad = None if b is None else [list(comps[0].elements), list(comps[b].elements)]
        report.conclusion_verified = bad is None
        report.witness = bad if bad else {"complement_count": len(comps),
                                          "certified": certified}
    return report


def _labels(classes: Sequence[Sequence[int]]) -> list[int]:
    """For each of the subgroups that the classes partition, by index, the
    index of its class."""
    labels = [0] * sum(map(len, classes))
    for c, members in enumerate(classes):
        for i in members:
            labels[i] = c
    return labels


def _local_keys(G: Group, subs: list[Subgroup]) -> list[tuple[int, ...]]:
    """For each of the given subgroups, all of one order, the G-conjugacy
    class labels of its Sylow subgroups prime by prime.  Two of them are
    locally conjugate exactly when their keys are equal, since the Sylow
    p-subgroups of one subgroup are conjugate within it."""
    primes = prime_factors(subs[0].order) if subs else []
    sylows = [sylow_subgroup(G, p, within=K) for K in subs for p in primes]
    labels = iter(_labels(subgroup_conjugacy_classes(G, sylows)))
    return [tuple(next(labels) for _ in primes) for _ in subs]


def _first_disagreement(x: list, y: list) -> tuple[int, int] | None:
    """The first pair (a, b), a < b in lexicographic order, that the
    partitions labelled by x and y treat differently: equal labels in one,
    different labels in the other.  None when the partitions are equal."""
    if len(set(zip(x, y))) == len(set(x)) == len(set(y)):
        return None
    return next(
        (a, b)
        for a in range(len(x))
        for b in range(a + 1, len(x))
        if (x[a] == x[b]) != (y[a] == y[b])
    )


def verify_prop5(G: Group, N: Subgroup, J: Subgroup, H: Subgroup,
                 instance: str = "", relaxed: bool = False) -> VerificationReport:
    """Constructive search for a conjugate of J inside H.  The hypotheses are
    evaluated once; the exhaustive scan, the contract, gives the witness, and
    under met hypotheses the proof-guided route must succeed as well: a step
    of it that fails is a falsification whose witness names the step."""
    report = VerificationReport("prop5", instance, relaxed=relaxed)
    for name, met, detail in _prop5_setting_checks(G, N, J, H):
        _set_hypothesis(report, name, met, "" if met else detail)
    if not report.hypotheses_met and not relaxed:
        return report
    data = _sylow_containment_data(G, J, H)
    for p, g in sorted(data.items()):
        _set_hypothesis(
            report, f"sylow_in_h_p{p}", g is not None,
            f"conjugator {g}" if g is not None else "no conjugate of the Sylow part lies in H",
        )
    if not report.hypotheses_met and not relaxed:
        return report
    report.witness = conjugator_into(G, J, H)
    report.conclusion_verified = report.witness is not None
    if report.conclusion_verified and report.hypotheses_met:
        try:
            report.note(f"proof_guided conjugator {_guided_conjugator(G, N, J, H, data)}")
        except (ProofStepFailed, NoPreimageFound) as exc:
            step = getattr(exc, "step", "extension through the correspondence")
            report.conclusion_verified = False
            report.witness = {"conjugator": report.witness, "proof_step_failed": step}
            report.note("proof_guided failed although exhaustive succeeded")
        except BudgetExceeded as exc:
            report.note(f"proof_guided not evaluated: {exc}")
    return report


def verify_thm4(action: ActionOnGroup, gset: GSet, instance: str = "",
                relaxed: bool = False) -> VerificationReport:
    """If N acts transitively and each Sylow subgroup of J fixes a point, J
    fixes a point; the witness is built through the stabilizer argument and
    cross-checked against a direct fixed-point scan."""
    report = VerificationReport("thm4", instance, relaxed=relaxed)
    J, N = action.actor, action.target
    G = gset.group
    embeddings = semidirect_embeddings(action, G)
    _set_hypothesis(report, "gset_over_semidirect", embeddings is not None)
    _set_hypothesis(report, "j_nilpotent", is_nilpotent(J))
    _set_hypothesis(report, "n_nilpotent", is_nilpotent(N))
    if embeddings is None:
        return report
    n_sub, j_sub = (embed.image() for embed in embeddings)
    _set_hypothesis(report, "omega_nonempty", gset.size > 0)
    _set_hypothesis(report, "n_transitive",
                    gset.size > 0 and is_transitive(gset, n_sub))
    for p in prime_factors(J.order):
        jp = sylow_subgroup(J, p)
        jp_sub = Subgroup(G, jp.elements)  # embedded J is index-aligned with J
        fps = fixed_points(gset, jp_sub)
        _set_hypothesis(
            report, f"sylow_fixed_point_p{p}", bool(fps),
            f"least fixed point {fps[0]}" if fps else "no fixed point",
        )
    if report.hypotheses_met or relaxed:
        direct = fixed_points(gset, j_sub)
        # thm4's checks imply prop5's hypotheses (J nilpotent complements
        # normal N, each J_p conjugates into G_alpha), so no re-check here.
        g = conjugator_into(G, j_sub, stabilizer(gset, 0))
        witness = None if g is None else gset.act[g][0]
        if g is None:
            report.note("stabilizer route failed: no conjugate of J lies in G_alpha")
        if witness is not None and witness in direct:
            report.conclusion_verified = True
            report.witness = witness
        elif direct and not report.hypotheses_met:
            # Observation mode: the direct scan may still find a fixed point.
            report.conclusion_verified = True
            report.witness = direct[0]
            report.note("witness from direct scan only")
        else:
            report.conclusion_verified = False
            report.witness = witness
    return report


def verify_lemma1(action: ActionOnGroup, instance: str = "",
                  relaxed: bool = False) -> VerificationReport:
    """The restriction map onto the product of Hall-fixed local classes is a
    pointed bijection."""
    report = VerificationReport("lemma1", instance, relaxed=relaxed)
    _set_hypothesis(report, "j_nilpotent", is_nilpotent(action.actor))
    _set_hypothesis(report, "n_nilpotent", is_nilpotent(action.target))
    if report.hypotheses_met:
        try:
            dec = _decompose(action, GENERATOR_ENUM_BUDGET)
            _set_hypothesis(report, "enumerable", True)
        except BudgetExceeded as exc:
            _set_hypothesis(report, "enumerable", False, str(exc))
            return report
        report.conclusion_verified = dec.bijective
        report.witness = {
            "shared_primes": list(dec.shared_primes),
            "h1_size": dec.h1_full.size,
            "local_fixed_sizes": [len(b.fixed) for b in dec.blocks],
        }
        if dec.failure:
            report.witness = {"failure": dec.failure}
    return report

