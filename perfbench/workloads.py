"""The benchmark's workloads: the cases of one cold pass and their checks.

`structure_mix` runs three parts in one pass (the shipped suite, the
dihedral ladder, a seeded scenario); `cocycle_heavy` is cohomology alone.

A case's `run` is what the pass times; its `check` runs after the whole pass,
outside the timed region, and returns a problem description or None.  A
check that concerns the pass as a whole (the suite's byte-identical output,
the brute-force oracle) is a case with no run of its own.

Import this module only after any tracer is installed: it binds nilcoh names
at import time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from nilcoh import (
    cocycles_bruteforce,
    coset_gset,
    h1,
    semidirect,
    trivial_action,
    verify_lemma1,
    verify_prop2,
    verify_thm4,
)
from nilcoh.errors import ValidationError
from nilcoh.harness import (
    CheckOutcome,
    correspondence_report,
    default_suite,
    exit_code,
    load_scenario,
    report_emit,
    run_checks,
)
from nilcoh.harness.catalog import abelian, conjugation_self_action, cyclic, heisenberg, inversion_action
from nilcoh.harness.scenario import subgroup_of_semidirect
from nilcoh.harness.suite import run_scenario_check

HERE = Path(__file__).resolve().parent
GOLDEN_SUITE = HERE / "golden" / "suite.jsonl"

_NOT_RUN = object()


@dataclass
class Case:
    name: str
    run: Callable[[], object] | None
    check: Callable[[object], str | None]
    result: object = _NOT_RUN


def _report_problem(report, **witness) -> str | None:
    """A problem with a verifier report: falsification, failure, or a witness
    entry that differs from its closed form."""
    if report.falsification:
        return "FALSIFICATION record"
    if not report.passed:
        return f"did not pass: {report.to_json()}"
    for key, want in witness.items():
        got = report.witness.get(key) if isinstance(report.witness, dict) else None
        if got != want:
            return f"witness {key} = {got!r}, expected {want!r}"
    return None


# -- structure_mix part: suite ---------------------------------------------------


def suite_cases(seed: int, out_dir: Path) -> list[Case]:
    """The shipped default suite, one case per check; every record must match
    the golden output line for line, and the whole output byte for byte."""
    golden = GOLDEN_SUITE.read_text(encoding="utf-8")
    golden_lines = golden.splitlines()
    cases: list[Case] = []
    checks = default_suite()
    if len(checks) != len(golden_lines):
        raise RuntimeError(
            f"default suite has {len(checks)} checks, golden output {len(golden_lines)}")

    def line_check(i: int):
        def check(outcome) -> str | None:
            line = report_emit([outcome], "json").rstrip("\n")
            if line != golden_lines[i]:
                return f"record differs from golden line {i + 1}: {line}"
            if not outcome.ok:
                return "check failed"
            return None
        return check

    for i, chk in enumerate(checks):
        cases.append(Case(chk.instance, lambda chk=chk: run_checks([chk])[0], line_check(i)))

    def whole_output(_) -> str | None:
        outcomes = [c.result for c in cases[:len(checks)]]
        if not all(isinstance(o, CheckOutcome) for o in outcomes):
            return "some checks did not run"
        if report_emit(outcomes, "json") != golden:
            return "suite output is not byte-identical to the golden output"
        code = exit_code(outcomes)
        return None if code == 0 else f"suite exit code {code}"

    cases.append(Case("suite/output", None, whole_output))
    return cases


# -- structure_mix part: ladder --------------------------------------------------

LADDER_FULL = (32, 64, 128)
LADDER_TOP = 256


def dihedral_ladder_cases(seed: int, out_dir: Path) -> list[Case]:
    """C2 inverting C_n: |Z1| = n, |H1| = 2, n complements in 2 N-classes."""
    cases: list[Case] = []
    actions: dict[int, object] = {}

    def correspondence(n: int):
        actions[n] = inversion_action(cyclic(n))
        return correspondence_report(actions[n], f"c2_inv_c{n}/correspondence")

    def prop2(n: int):
        P = semidirect(actions[n])
        return verify_prop2(P.group, P.n_part(), f"c2_inv_c{n}/prop2")

    def thm4(n: int):
        P = semidirect(actions[n])
        gset = coset_gset(P.group, subgroup_of_semidirect(P, "embedded_j"))
        return verify_thm4(actions[n], gset, f"c2_inv_c{n}/thm4:omega_j")

    for n in LADDER_FULL + (LADDER_TOP,):
        cases.append(Case(
            f"n{n}/correspondence", lambda n=n: correspondence(n),
            lambda r, n=n: _report_problem(
                r, h1_classes=2, complements=n, n_conjugacy_classes=2)))
        cases.append(Case(
            f"n{n}/lemma1",
            lambda n=n: verify_lemma1(actions[n], f"c2_inv_c{n}/lemma1"),
            lambda r: _report_problem(r, h1_size=2)))
        if n == LADDER_TOP:
            break
        cases.append(Case(f"n{n}/prop2", lambda n=n: prop2(n),
                          lambda r, n=n: _report_problem(r, complements=n, nilpotent=n)))
        cases.append(Case(f"n{n}/thm4", lambda n=n: thm4(n), _report_problem))
    return cases


# -- cocycle_heavy ----------------------------------------------------------------

# id, builder, |Z1|, |H1|
COCYCLE_ACTIONS = (
    ("c2e4_triv_c5c5", lambda: trivial_action(abelian([2, 2, 2, 2]), abelian([5, 5])), 1, 1),
    ("c2e3_triv_c2e4", lambda: trivial_action(abelian([2, 2, 2]), abelian([2, 2, 2, 2])),
     4096, 4096),
    ("heis3_conj_heis3", lambda: conjugation_self_action(heisenberg(3)), 729, 153),
)


def cocycle_heavy_cases(seed: int, out_dir: Path) -> list[Case]:
    """h1 and lemma1 on three actions whose cost is cocycle enumeration and the
    class partition; results are compared with the brute-force oracle."""
    cases: list[Case] = []
    actions: dict[str, object] = {}

    def run_h1(ident: str, build):
        actions[ident] = build()
        return h1(actions[ident])

    def h1_check(z1: int, classes: int):
        def check(H) -> str | None:
            if H.cocycle_count() != z1 or H.size != classes:
                return (f"|Z1| = {H.cocycle_count()}, |H1| = {H.size}; "
                        f"expected {z1}, {classes}")
            return None
        return check

    def oracle(ident: str, h1_case: Case):
        def check(_) -> str | None:
            H = h1_case.result
            if H is _NOT_RUN or isinstance(H, Exception):
                return "h1 did not run"
            fast = sorted(c.values for cls in H.classes for c in cls)
            brute = [c.values for c in cocycles_bruteforce(actions[ident])]
            return None if fast == brute else "cocycles differ from cocycles_bruteforce"
        return check

    for ident, build, z1, classes in COCYCLE_ACTIONS:
        h1_case = Case(f"{ident}/h1", lambda i=ident, b=build: run_h1(i, b),
                       h1_check(z1, classes))
        cases.append(h1_case)
        cases.append(Case(
            f"{ident}/lemma1", lambda i=ident: verify_lemma1(actions[i], f"{i}/lemma1"),
            lambda r, classes=classes: _report_problem(r, h1_size=classes)))
        cases.append(Case(f"{ident}/oracle", None, oracle(ident, h1_case)))
    return cases


# -- structure_mix part: scenario ------------------------------------------------

SCENARIO_N = 128          # C_128, D_64 of order 128, semidirect of order 256


def dihedral_table(n: int) -> list[list[int]]:
    """D_n of order 2n; index s*n + i is x -> (-1)^s x + i on Z_n."""
    def mul(a: int, b: int) -> int:
        s1, i1 = divmod(a, n)
        s2, i2 = divmod(b, n)
        return ((s1 + s2) % 2) * n + (i1 + (i2 if s1 == 0 else -i2)) % n
    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def scenario_documents(seed: int) -> tuple[dict, dict]:
    """The scenario for a seed, and a copy with one table entry corrupted.

    The table group is D_64 with its non-identity elements relabelled by a
    seeded permutation, so the rotation generating the normal C_64 sits at a
    seed-dependent index.  C_128 is given by a 128-cycle: the permutation
    closure sorts its elements, so index k is the k-th power and inversion
    is k -> -k.  The G-set is the coset space of the embedded C2 in
    C_128 x| C2, written out as an explicit table: (n, j) sends coset m to
    n + (-1)^j m.
    """
    rng = random.Random(seed)
    half = SCENARIO_N // 2
    base = dihedral_table(half)
    order = len(base)
    perm = list(range(1, order))
    rng.shuffle(perm)
    perm = [0] + perm
    table = [[0] * order for _ in range(order)]
    for a in range(order):
        for b in range(order):
            table[perm[a]][perm[b]] = perm[base[a][b]]
    n = SCENARIO_N
    act = [[(g // 2 + (m if g % 2 == 0 else -m)) % n for m in range(n)]
           for g in range(2 * n)]
    doc = {
        "id": f"bench_seed{seed}",
        "groups": {
            "d64": {"kind": "table", "mul": table},
            "c128": {"kind": "perm", "degree": n,
                     "generators": [[(i + 1) % n for i in range(n)]]},
        },
        "actions": {
            "inv": {"actor": {"builtin": "cyclic", "n": 2}, "target": "c128",
                    "gens": [1], "images": [[(-k) % n for k in range(n)]]},
        },
        "gsets": {"omega": {"action": "inv", "act": act}},
        "checks": [
            {"check": "h1", "action": "inv", "expect_classes": 2, "expect_cocycles": n},
            {"verify": "lemma1", "action": "inv"},
            {"check": "complements", "action": "inv"},
            {"verify": "thm4", "action": "inv", "gset": "omega"},
            {"verify": "prop2", "group": "d64",
             "normal": {"generated_by": [perm[1]]}},
        ],
    }
    bad = json.loads(json.dumps(doc))
    a, b = rng.randrange(1, order), rng.randrange(1, order)
    bad_table = bad["groups"]["d64"]["mul"]
    bad_table[a][b] = (bad_table[a][b] + rng.randrange(1, order)) % order
    return doc, bad


# Expected witness of each scenario check, in check order.
SCENARIO_EXPECT = (
    {"classes": 2, "cocycles": SCENARIO_N},
    {"h1_size": 2},
    {"h1_classes": 2, "complements": SCENARIO_N, "n_conjugacy_classes": 2},
    {},
    {"complements": SCENARIO_N // 2, "nilpotent": SCENARIO_N // 2},
)


def scenario_load_cases(seed: int, out_dir: Path) -> list[Case]:
    """Load a generated scenario, run its checks, and reject a corrupted copy."""
    doc, bad = scenario_documents(seed)
    good_path = out_dir / "scenario.scn"
    bad_path = out_dir / "scenario_corrupt.scn"
    good_path.write_text(json.dumps(doc), encoding="utf-8")
    bad_path.write_text(json.dumps(bad), encoding="utf-8")
    state: dict[str, object] = {}

    def load():
        state["scenario"] = load_scenario(good_path)
        return state["scenario"]

    def load_check(sc) -> str | None:
        if len(sc.checks) != len(SCENARIO_EXPECT):
            return f"{len(sc.checks)} checks loaded, expected {len(SCENARIO_EXPECT)}"
        return None

    def run_check(i: int):
        sc = state["scenario"]
        return CheckOutcome(run_scenario_check(sc, sc.checks[i]),
                            sc.checks[i].expect_hypothesis_fail)

    def outcome_check(i: int):
        def check(outcome) -> str | None:
            if not outcome.ok:
                return f"check failed: {outcome.report.to_json()}"
            return _report_problem(outcome.report, **SCENARIO_EXPECT[i])
        return check

    def load_corrupt() -> bool:
        try:
            load_scenario(bad_path)
        except ValidationError:
            return True
        return False

    def corrupt_check(rejected: bool) -> str | None:
        return None if rejected else "corrupted table was accepted"

    cases = [Case("load", load, load_check)]
    for i, spec in enumerate(doc["checks"]):
        kind = spec.get("verify") or spec.get("check")
        cases.append(Case(f"check{i}:{kind}", lambda i=i: run_check(i), outcome_check(i)))
    cases.append(Case("load_corrupt", load_corrupt, corrupt_check))
    return cases


# -- structure_mix ----------------------------------------------------------------

STRUCTURE_PARTS = (
    ("suite", suite_cases),
    ("ladder", dihedral_ladder_cases),
    ("scenario", scenario_load_cases),
)


def structure_mix_cases(seed: int, out_dir: Path) -> list[Case]:
    """The suite, the dihedral ladder and the scenario in one pass; each case
    is named after its part, and each part keeps its own checks."""
    cases: list[Case] = []
    for part, build in STRUCTURE_PARTS:
        for case in build(seed, out_dir):
            case.name = f"{part}/{case.name}"
            cases.append(case)
    return cases


WORKLOADS: dict[str, Callable[[int, Path], list[Case]]] = {
    "structure_mix": structure_mix_cases,
    "cocycle_heavy": cocycle_heavy_cases,
}
