"""Suite orchestration: the default check battery over the catalog, scenario
check execution, and deterministic report emission.

Exit codes: 0 all checks pass, 1 check failure, 2 falsification, 3 input
error (the CLI maps load-time errors to 3).
"""

from __future__ import annotations

import json
import sys
from functools import partial
from typing import Callable, Iterable

from ..actions import ActionOnGroup, coset_gset, semidirect
from ..cohomology import cocycle_to_complement, cocycles_bruteforce, eq3_check, h1
from ..errors import NilcohError, NotAbelian, UnknownCheck
from ..groups import subgroup_generated
from ..structure import complement_classes, complements
from ..theorems import (
    VerificationReport,
    _labels,
    verify_lemma1,
    verify_prop2,
    verify_prop3,
    verify_prop5,
    verify_thm4,
)
from .catalog import CATALOG, EQ3_EXTRA, ActionInstance, cyclic, dihedral, direct_product
from .scenario import KNOWN_VERIFIERS, Scenario, ScenarioCheck, subgroup_of_semidirect


class SuiteCheck:
    __slots__ = ("instance", "run", "expect_hypothesis_fail")

    def __init__(self, instance: str, run: Callable[[], VerificationReport],
                 expect_hypothesis_fail: bool = False):
        self.instance, self.run = instance, run
        self.expect_hypothesis_fail = expect_hypothesis_fail


class CheckOutcome:
    __slots__ = ("report", "expect_hypothesis_fail")

    def __init__(self, report: VerificationReport, expect_hypothesis_fail: bool = False):
        self.report, self.expect_hypothesis_fail = report, expect_hypothesis_fail

    @property
    def ok(self) -> bool:
        if self.report.falsification:
            return False
        if self.expect_hypothesis_fail:
            return not self.report.hypotheses_met
        return self.report.passed


def correspondence_report(action, instance: str) -> VerificationReport:
    """Check the complement correspondence on the induced semidirect product:
    classes of H1 biject with N-conjugacy classes of independently enumerated
    complements."""
    report = VerificationReport("correspondence", instance)
    P = semidirect(action)
    G = P.group
    n_sub = P.n_part()
    report.hypotheses["within_order_cap"] = True
    comps = complements(G, n_sub)
    classes = complement_classes(G, n_sub)
    H = h1(action)
    ok = H.size == len(classes)
    # The correspondence itself: class representatives map to pairwise
    # non-N-conjugate complements covering every N-class.
    mapped = [cocycle_to_complement(P, rep) for rep in H.reps()]
    mapped_keys = {K.elements for K in mapped}
    if len(mapped_keys) != len(mapped):
        ok = False
    enumerated = {K.elements for K in comps}
    if not mapped_keys <= enumerated:
        ok = False
    else:
        comp_index = {K.elements: i for i, K in enumerate(comps)}
        labels = _labels(classes)
        hit_classes = {labels[comp_index[K.elements]] for K in mapped}
        if len(hit_classes) != len(classes):
            ok = False
    report.conclusion_verified = ok
    report.witness = {
        "h1_classes": H.size,
        "complements": len(comps),
        "n_conjugacy_classes": len(classes),
    }
    return report


def eq3_report(action, instance: str) -> VerificationReport:
    """Wrap the abelian primary-decomposition cross-check as a report."""
    report = VerificationReport("eq3", instance)
    try:
        result = eq3_check(action)
        report.hypotheses["n_abelian"] = True
    except NotAbelian as exc:
        report.hypotheses["n_abelian"] = False
        report.details["n_abelian"] = str(exc)
        return report
    report.conclusion_verified = result.ok
    report.witness = result.to_json()
    return report


def verify_on_action(theorem: str, action: ActionOnGroup, instance: str,
                     relaxed: bool = False, h="embedded_j") -> VerificationReport:
    """Run one of the paper's verifiers on an action: lemma1 on the action
    itself, prop2, prop3, prop5 and thm4 on its semidirect product N x| J.
    `h` is a subgroup spec of `subgroup_of_semidirect`; it names prop5's H
    and the subgroup whose coset space thm4 acts on, and only they read it."""
    if theorem == "lemma1":
        return verify_lemma1(action, instance, relaxed=relaxed)
    P = semidirect(action)
    if theorem == "prop2":
        return verify_prop2(P.group, P.n_part(), instance, relaxed=relaxed)
    if theorem == "prop3":
        return verify_prop3(P.group, P.n_part(), instance, relaxed=relaxed)
    H = subgroup_of_semidirect(P, h)
    if theorem == "prop5":
        return verify_prop5(P.group, P.n_part(), P.j_part(), H, instance,
                            relaxed=relaxed)
    if theorem == "thm4":
        return verify_thm4(action, coset_gset(P.group, H), instance, relaxed=relaxed)
    raise UnknownCheck(theorem)


_SUPPLEMENT = {"generated_by": [[0, 1], [3, 0]]}
_Q8_CENTER_SUPPLEMENT = {"generated_by": [[0, 2], [0, 4], [1, 0]]}

# The checks after the catalog battery and eq3, in report order: (source,
# theorem, tag, spec, expect_hypothesis_fail).  A catalog id as source runs
# verify_on_action on its action, with spec naming the subgroup whose coset
# space is thm4's Omega or prop5's H.  A group builder as source runs prop2,
# prop3 or prop5 on the group it builds, with spec the generator seeds of N
# (then J and H for prop5).
CURATED_CHECKS = (
    ("c2_inv_c4", "thm4", "omega_j", "embedded_j", False),
    ("c2_inv_c4", "thm4", "omega_other_class", {"generated_by": [[1, 1]]}, True),
    ("c2_inv_c4", "thm4", "omega_point", "whole", False),
    ("c2_inv_c4", "thm4", "omega_regular", "trivial", True),
    ("c2_swap_c2c2", "thm4", "omega_j", "embedded_j", False),
    ("c6_inv_c6", "thm4", "omega_j", "embedded_j", False),
    ("c6_inv_c6", "thm4", "omega_supplement", _SUPPLEMENT, False),
    ("c3_cycle_q8", "thm4", "omega_j", "embedded_j", False),
    ("q8_conj_q8", "thm4", "omega_center_supplement", _Q8_CENTER_SUPPLEMENT, False),
    ("c3_inner_heis3", "thm4", "omega_j", "embedded_j", False),
    ("c6_twist_q8c3", "thm4", "omega_supplement", _SUPPLEMENT, False),
    ("c2_inv_c4", "prop5", "twisted_complement", {"elements": [0, 5]}, False),
    ("c6_inv_c6", "prop5", "supplement", _SUPPLEMENT, False),
    ("c6_inv_c12", "prop5", "supplement", {"generated_by": [[0, 1], [6, 0]]}, False),
    ("q8_conj_q8", "prop5", "center_supplement", _Q8_CENTER_SUPPLEMENT, False),
    ("c6_twist_q8c3", "prop5", "supplement", _SUPPLEMENT, False),
    (lambda: dihedral(4), "prop5", "d4_contains_j", ([1], [4], [4, 2]), False),
    (lambda: dihedral(4), "prop5", "d4_wrong_class", ([1], [4], [5, 2]), True),
    # Local-to-global conjugacy of complements in ambient groups.
    (lambda: dihedral(4), "prop3", "d4_c4", ([1],), True),
    (lambda: dihedral(3), "prop3", "s3_c3", ([1],), False),
    (lambda: direct_product(cyclic(2), cyclic(3)), "prop3", "c6_c3", ([1],), False),
    ("c2_swap_c2c2", "prop3", "", None, False),
    (lambda: dihedral(4), "prop2", "d4_c4", ([1],), False),
    (lambda: dihedral(3), "prop2", "s3_c3", ([1],), False),
)


def _run_row(source, theorem: str, instance: str, spec, relaxed: bool) -> VerificationReport:
    """One suite check: a catalog action through the correspondence, eq3 or
    verify_on_action, or a built group through an ambient verifier."""
    if not isinstance(source, ActionInstance):
        G = source()
        subgroups = [subgroup_generated(G, seed) for seed in spec]
        verify = {"prop2": verify_prop2, "prop3": verify_prop3, "prop5": verify_prop5}[theorem]
        return verify(G, *subgroups, instance, relaxed=relaxed)
    action = source.action()
    if theorem == "correspondence":
        return correspondence_report(action, instance)
    if theorem == "eq3":
        return eq3_report(action, instance)
    return verify_on_action(theorem, action, instance, relaxed, spec)


def default_suite(relaxed: bool = False) -> list[SuiteCheck]:
    """The shipped suite: every catalog action through the decomposition,
    correspondence, and complement-conjugacy verifiers, eq3 on every abelian
    N, then the curated fixed-point, conjugator, and hypothesis-failure
    checks."""
    rows = [(inst.id, theorem, "", None, False) for inst in CATALOG
            for theorem in ("lemma1", "correspondence", "prop2")]
    rows += [(inst.id, "eq3", "", None, False) for inst in CATALOG + EQ3_EXTRA
             if "abelian_n" in inst.tags]
    by_id = {inst.id: inst for inst in CATALOG + EQ3_EXTRA}
    checks = []
    for source, theorem, tag, spec, expect_fail in rows + list(CURATED_CHECKS):
        prefix = source if isinstance(source, str) else "ambient"
        instance = f"{prefix}/{theorem}:{tag}" if tag else f"{prefix}/{theorem}"
        inst = by_id[source] if isinstance(source, str) else source
        checks.append(SuiteCheck(instance, partial(_run_row, inst, theorem, instance, spec,
                                                   relaxed), expect_fail))
    return checks


# -- scenario execution ------------------------------------------------------------


def scenario_checks(scenario: Scenario, relaxed: bool = False) -> list[SuiteCheck]:
    out = []
    for check in scenario.checks:
        out.append(
            SuiteCheck(
                check.instance,
                lambda check=check: run_scenario_check(scenario, check, relaxed),
                expect_hypothesis_fail=check.expect_hypothesis_fail,
            )
        )
    return out


def run_scenario_check(scenario: Scenario, check: ScenarioCheck,
                       relaxed: bool = False) -> VerificationReport:
    spec = check.spec
    kind = check.kind
    if kind == "thm4":
        action_name, gset = scenario.gsets[spec["gset"]]
        return verify_thm4(scenario.actions[action_name], gset, check.instance,
                           relaxed=relaxed)
    if check.normal is not None:
        fn = verify_prop2 if kind == "prop2" else verify_prop3
        return fn(scenario.groups[spec["group"]], check.normal, check.instance,
                  relaxed=relaxed)
    if kind in KNOWN_VERIFIERS or kind == "decompose":
        return verify_on_action("lemma1" if kind == "decompose" else kind,
                                scenario.actions[spec["action"]], check.instance,
                                relaxed, spec.get("h", "embedded_j"))
    if kind == "h1":
        return _h1_report(scenario, check)
    if kind == "complements":
        action = scenario.actions[spec["action"]]
        return correspondence_report(action, check.instance)
    raise NilcohError(f"unhandled check kind {kind}")  # pragma: no cover


def _h1_report(scenario: Scenario, check: ScenarioCheck) -> VerificationReport:
    action = scenario.actions[check.spec["action"]]
    report = VerificationReport("h1", check.instance)
    H = h1(action)
    z1 = H.cocycle_count()
    ok = True
    oracle_limit = check.spec.get("oracle_limit", 8)
    if action.actor.order <= oracle_limit and action.target.order <= oracle_limit:
        fast = sorted(H._tree.tables(H._codes))
        ok &= fast == [c.values for c in cocycles_bruteforce(action)]
        report.hypotheses["oracle_in_budget"] = True
    report.conclusion_verified = ok
    expected = True
    if "expect_classes" in check.spec:
        expected &= H.size == check.spec["expect_classes"]
    if "expect_cocycles" in check.spec:
        expected &= z1 == check.spec["expect_cocycles"]
    if "expect_classes" in check.spec or "expect_cocycles" in check.spec:
        report.expectation_met = expected
    report.witness = {"classes": H.size, "cocycles": z1}
    return report


# -- running and reporting ---------------------------------------------------------


def run_checks(checks: Iterable[SuiteCheck]) -> list[CheckOutcome]:
    """Run each check; one that raises becomes an error record (exit 1) and
    the checks after it still run.  An error that is not a NilcohError is a
    bug, so its message and traceback go to stderr as well."""
    outcomes = []
    for check in checks:
        try:
            report = check.run()
        except Exception as exc:  # noqa: BLE001 - a crash must not end the suite
            if not isinstance(exc, NilcohError):
                import traceback
                print(f"check {check.instance} raised an unexpected error", file=sys.stderr)
                traceback.print_exc()
            report = VerificationReport("error", check.instance)
            report.hypotheses["ran"] = False
            report.details["ran"] = f"{type(exc).__name__}: {exc}"
            report.conclusion_verified = False
        outcomes.append(CheckOutcome(report, check.expect_hypothesis_fail))
    return outcomes


def exit_code(outcomes: list[CheckOutcome]) -> int:
    if any(o.report.falsification for o in outcomes):
        return 2
    if any(not o.ok for o in outcomes):
        return 1
    return 0


def report_emit(outcomes: list[CheckOutcome], fmt: str = "json") -> str:
    """Render outcomes: json-lines with stable key order, or a human table."""
    if fmt == "json":
        lines = [
            json.dumps(o.report.to_json(), sort_keys=True, separators=(",", ":"))
            for o in outcomes
        ]
        return "\n".join(lines) + ("\n" if lines else "")
    rows = []
    n_pass = n_fail = n_fals = 0
    for o in outcomes:
        rep = o.report
        if rep.falsification:
            status, n_fals = "FALSIFICATION", n_fals + 1
        elif o.ok:
            status, n_pass = "pass", n_pass + 1
            if o.expect_hypothesis_fail:
                status = "pass (hypotheses unmet, as expected)"
        else:
            status, n_fail = "FAIL", n_fail + 1
        rows.append((rep.instance, rep.theorem, status))
    width = max((len(r[0]) for r in rows), default=8)
    out = [f"{r[0]:<{width}}  {r[1]:<14}  {r[2]}" for r in rows]
    out.append("")
    out.append(f"{len(rows)} checks: {n_pass} passed, {n_fail} failed, "
               f"{n_fals} falsifications")
    if n_fals:
        out.append("FALSIFICATION present: see records above")
    return "\n".join(out) + "\n"

