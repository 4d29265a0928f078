"""Scenario ingestion, suite orchestration, report emission, and the CLI."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from functools import reduce
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import nilcoh
from nilcoh.errors import NotAbelian, ParseError, UnknownCheck, ValidationError
from nilcoh.harness.catalog import CATALOG, EQ3_EXTRA, abelian, catalog_by_id
from nilcoh.harness.cli import main
from nilcoh.harness.scenario import load_scenario
from nilcoh.harness.suite import (
    CURATED_CHECKS,
    CheckOutcome,
    SuiteCheck,
    default_suite,
    exit_code,
    report_emit,
    run_checks,
    scenario_checks,
)
from nilcoh.theorems import VerificationReport
from conftest import abelian_table_by_decoding, h1_classes_by_twist, same_as_validated, same_table


def shipped_scenario_path():
    return resources.files("nilcoh.harness") / "scenarios" / "d4_inversion.scn"


def test_every_traced_name_resolves_in_the_package(monkeypatch):
    # perfbench/tracer.py wraps package functions and classes by name, and
    # its own tests are not part of this suite: a traced name deleted from
    # the package must fail here.  The tracer is read, not changed.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, attr, _, _ in tracer.TARGETS:
        try:
            reduce(getattr, attr.split("."), importlib.import_module(f"nilcoh.{layer}"))
        except (ImportError, AttributeError):
            missing.append(f"{layer}.{attr}")
    assert len(tracer.TARGETS) >= 30 and missing == []


def test_catalog_requirements():
    ids = catalog_by_id()
    assert len(CATALOG) >= 20
    noncoprime = [i for i in CATALOG if "noncoprime" in i.tags]
    assert len(noncoprime) >= 5
    assert any("two_shared_primes" in i.tags for i in CATALOG)
    assert any("non_nilpotent_j" in i.tags for i in EQ3_EXTRA)
    assert len(ids) == len(CATALOG) + len(EQ3_EXTRA)


def test_catalog_instances_all_validate():
    from nilcoh.structure import is_nilpotent

    for inst in CATALOG:
        action = inst.action()  # constructors validate groups and actions
        assert is_nilpotent(action.actor) and is_nilpotent(action.target)


@pytest.mark.parametrize("factors", [[2, 2, 2, 2], [5, 5], [2, 2, 2], [2, 2, 2, 2, 2],
                                     [3, 9], [4, 2, 3], [], [1], [1, 3], [3, 1, 2],
                                     [2] * 8, [4, 4, 8]])
def test_abelian_matches_the_decoding_oracle(factors):
    # abelian hands only the unit vectors' rows to the row walk.
    G = abelian(factors)
    assert G.mul == tuple(map(tuple, abelian_table_by_decoding(factors)))
    assert same_as_validated(G)
    assert G.name == "x".join(f"C{f}" for f in factors)


def test_load_shipped_scenario():
    scenario = load_scenario(shipped_scenario_path())
    assert scenario.id == "d4_inversion"
    assert len(scenario.groups) == 1
    assert len(scenario.actions) == 1
    assert len(scenario.checks) == 3


def test_shipped_scenario_checks_pass():
    scenario = load_scenario(shipped_scenario_path())
    outcomes = run_checks(scenario_checks(scenario))
    assert exit_code(outcomes) == 0
    assert all(o.ok for o in outcomes)


def test_parse_error_carries_position(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text('{"id": "x", "groups": {\n  "g": }\n}')
    with pytest.raises(ParseError) as info:
        load_scenario(bad)
    assert info.value.line == 2


def test_validation_error_names_constructor(tmp_path):
    doc = {
        "id": "x",
        "groups": {"g": {"kind": "table", "mul": [[0, 1, 2], [1, 2, 2], [2, 2, 1]]}},
    }
    bad = tmp_path / "bad_group.scn"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as info:
        load_scenario(bad)
    assert "group 'g'" in str(info.value)
    assert "NotAssociative" in str(info.value)


def test_unknown_check_rejected(tmp_path):
    doc = {
        "id": "x",
        "groups": {"c4": {"builtin": "cyclic", "n": 4}},
        "actions": {"inv": {"builtin": "inversion", "target": "c4"}},
        "checks": [{"verify": "prop9", "action": "inv"}],
    }
    bad = tmp_path / "bad_check.scn"
    bad.write_text(json.dumps(doc))
    with pytest.raises(UnknownCheck):
        load_scenario(bad)


def test_unknown_action_reference_rejected(tmp_path):
    doc = {
        "id": "x",
        "checks": [{"verify": "lemma1", "action": "nope"}],
    }
    bad = tmp_path / "bad_ref.scn"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_scenario(bad)


def test_expected_hypothesis_fail_bookkeeping(tmp_path):
    doc = {
        "id": "x",
        "groups": {"c4": {"builtin": "cyclic", "n": 4}},
        "actions": {"inv": {"builtin": "inversion", "target": "c4"}},
        "gsets": {"om": {"action": "inv", "coset_of": {"generated_by": [[1, 1]]}}},
        "checks": [
            {"verify": "thm4", "action": "inv", "gset": "om",
             "expect_hypothesis_fail": True},
        ],
    }
    path = tmp_path / "expected_fail.scn"
    path.write_text(json.dumps(doc))
    outcomes = run_checks(scenario_checks(load_scenario(path)))
    assert exit_code(outcomes) == 0
    # The same check without the marker counts as a failure.
    doc["checks"][0].pop("expect_hypothesis_fail")
    path.write_text(json.dumps(doc))
    outcomes = run_checks(scenario_checks(load_scenario(path)))
    assert exit_code(outcomes) == 1


def test_failing_expectation_fails_suite(tmp_path):
    doc = {
        "id": "x",
        "groups": {"c4": {"builtin": "cyclic", "n": 4}},
        "actions": {"inv": {"builtin": "inversion", "target": "c4"}},
        "checks": [{"check": "h1", "action": "inv", "expect_classes": 3}],
    }
    path = tmp_path / "wrong_expect.scn"
    path.write_text(json.dumps(doc))
    outcomes = run_checks(scenario_checks(load_scenario(path)))
    assert exit_code(outcomes) == 1


@pytest.mark.parametrize("field,value", [
    *((field, value) for field in ("oracle_limit", "expect_classes", "expect_cocycles")
      for value in ("8", 2.0, True)),
    ("expect_hypothesis_fail", "no"),
])
def test_cli_refuses_check_fields_of_another_type(tmp_path, capsys, field, value):
    # Refused at load as input errors: a string limit used to raise a
    # TypeError inside the h1 check, 2.0 to pass for the count 2, true for
    # the limit 1, and "no" to count as true.
    doc = {
        "id": "x",
        "groups": {"c4": {"builtin": "cyclic", "n": 4}},
        "actions": {"a": {"builtin": "inversion", "target": "c4"}},
        "checks": [{"check": "h1", "action": "a", field: value}],
    }
    path = tmp_path / "typed.scn"
    path.write_text(json.dumps(doc))
    assert main(["suite", "--scenario", str(path)]) == 3
    err = capsys.readouterr().err
    assert "input error" in err and f"check 0: {field}" in err
    assert "Traceback" not in err


_TYPED_BASE = {
    "id": "x",
    "groups": {"c4": {"builtin": "cyclic", "n": 4}, "d4": {"builtin": "dihedral", "n": 4}},
    "actions": {"a": {"builtin": "inversion", "target": "c4"}},
    "gsets": {"omega": {"action": "a", "coset_of": "embedded_j"}},
}


@pytest.mark.parametrize("change,message", [
    ({"checks": [{"check": "h1", "action": ["a"]}]}, "check 0: action is not a name"),
    ({"checks": [{"verify": "thm4", "gset": {"omega": 1}}]}, "check 0: gset is not a name"),
    ({"checks": [{"verify": "prop2", "group": 4}]}, "check 0: group is not a name"),
    ({"groups": [1]}, "scenario: 'groups' must be an object"),
    ({"actions": "a"}, "scenario: 'actions' must be an object"),
    ({"gsets": True}, "scenario: 'gsets' must be an object"),
    ({"checks": 3}, "scenario: 'checks' must be a list"),
], ids=["action_list", "gset_object", "group_int", "groups_list", "actions_string",
        "gsets_bool", "checks_int"])
def test_cli_refuses_references_and_sections_of_another_type(tmp_path, capsys, change, message):
    # Refused at load as input errors: a list as a reference used to raise
    # "unhashable type", and a section that is not an object or list an
    # AttributeError or TypeError, each with a traceback and exit 1.
    path = tmp_path / "typed.scn"
    path.write_text(json.dumps({**_TYPED_BASE, **change}))
    assert main(["suite", "--scenario", str(path)]) == 3
    err = capsys.readouterr().err
    assert "input error" in err and message in err
    assert "Traceback" not in err


_FUZZ_BASE = {
    "id": "x",
    "groups": {**_TYPED_BASE["groups"],
               "p1": {"kind": "perm", "degree": 1, "generators": [[0]]},
               "t2": {"kind": "table", "mul": [[0, 1], [1, 0]]}},
    "actions": {**_TYPED_BASE["actions"],
                "e": {"actor": "t2", "target": "c4", "gens": [1], "images": [[0, 3, 2, 1]]}},
    "gsets": {**_TYPED_BASE["gsets"], "point": {"action": "e", "act": [[0]] * 8}},
    "checks": [
        {"verify": "lemma1", "action": "a"},
        {"check": "h1", "action": "a", "oracle_limit": 4, "expect_classes": 2,
         "expect_cocycles": 4},
        {"verify": "thm4", "gset": "omega", "expect_hypothesis_fail": False},
        {"verify": "prop2", "group": "d4", "normal": {"generated_by": [1]}},
        {"verify": "prop5", "action": "a", "h": "embedded_j"},
        {"check": "complements", "action": "a"},
    ],
}
# Each section, each check field and each field of a group, action or G-set spec.
_FUZZ_PLACES = [(section,) for section in ("id", "groups", "actions", "gsets", "checks")] + [
    (section, key, field) for section in ("groups", "actions", "gsets", "checks")
    for key, spec in (enumerate(_FUZZ_BASE[section]) if section == "checks"
                      else _FUZZ_BASE[section].items())
    for field in spec]


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(place=st.sampled_from(_FUZZ_PLACES),
       value=st.one_of(st.lists(st.integers(0, 4), max_size=2),
                       st.dictionaries(st.sampled_from(["a", "n", "elements"]),
                                       st.integers(0, 4), max_size=1),
                       st.sampled_from(["", "a", "c4", "omega", "embedded_j"]),
                       st.integers(-1, 9), st.floats(-1, 9), st.booleans(), st.none()))
def test_suite_survives_a_field_of_another_type(tmp_path, capsys, place, value):
    # A valid scenario with one section, check field or field of a group,
    # action or G-set spec replaced by a JSON value of another type runs or
    # is refused: exit 0 to 3, no traceback.
    doc = json.loads(json.dumps(_FUZZ_BASE))
    *outer, last = place
    holder = reduce(lambda node, key: node[key], outer, doc)
    assume(type(value) is not type(holder[last]))
    holder[last] = value
    path = tmp_path / "fuzz.scn"
    path.write_text(json.dumps(doc))
    assert main(["suite", "--scenario", str(path)]) in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_report_emit_json_lines():
    scenario = load_scenario(shipped_scenario_path())
    outcomes = run_checks(scenario_checks(scenario))
    text = report_emit(outcomes, "json")
    lines = [l for l in text.splitlines() if l]
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"theorem", "instance", "hypotheses", "pass",
                               "witness", "falsification"}


def test_report_emit_empty_run():
    text = report_emit([], "human")
    assert "0 checks" in text


def test_report_emit_flags_falsification():
    report = VerificationReport("thm4", "fake")
    report.hypotheses["all"] = True
    report.conclusion_verified = False
    text = report_emit([CheckOutcome(report)], "human")
    assert "FALSIFICATION" in text
    assert exit_code([CheckOutcome(report)]) == 2


def test_suite_json_determinism():
    scenario = load_scenario(shipped_scenario_path())
    first = report_emit(run_checks(scenario_checks(scenario)), "json")
    second = report_emit(run_checks(scenario_checks(load_scenario(shipped_scenario_path()))), "json")
    assert first == second


def test_cli_catalog_and_h1(capsys):
    assert main(["catalog", "--format", "json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(CATALOG) + len(EQ3_EXTRA)
    assert main(["h1", "--instance", "c2_inv_c4", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["cocycles"] == 4 and record["classes"] == 2


def test_cli_h1_json_matches_the_twist_oracle_on_every_catalog_instance(capsys):
    for iid, inst in catalog_by_id().items():
        assert main(["h1", "--instance", iid, "--format", "json"]) == 0, iid
        classes = h1_classes_by_twist(inst.action())
        zero = (0,) * inst.action().actor.order
        assert json.loads(capsys.readouterr().out) == {
            "instance": iid,
            "cocycles": sum(map(len, classes)),
            "classes": len(classes),
            "distinguished": next(i for i, cls in enumerate(classes) if zero in cls),
            "representatives": [list(cls[0]) for cls in classes],
        }, iid


def test_cli_complements_and_decompose(capsys):
    assert main(["complements", "--instance", "c2_inv_c4", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["n_conjugacy_classes"] == 2 == record["h1_classes"]
    assert len(record["complements"]) == 4
    assert main(["decompose", "--instance", "c6_inv_c6", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["bijective"] is True


def test_cli_verify(capsys):
    assert main(["verify", "lemma1", "--instance", "c2_inv_c4",
                 "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["pass"] is True and record["falsification"] is False
    assert main(["verify", "thm4", "--instance", "c3_cycle_q8",
                 "--format", "json"]) == 0
    capsys.readouterr()


GOLDEN_RELAXED_SUITE = Path(__file__).resolve().parent / "golden" / "suite_relaxed.jsonl"


def test_cli_relaxed_suite_matches_golden(capsys):
    # The relaxed run reaches conclusions that a strict run skips; its output
    # is pinned byte for byte like the strict suite's.
    assert main(["suite", "--format", "json", "--relaxed-hypotheses"]) == 0
    assert capsys.readouterr().out == GOLDEN_RELAXED_SUITE.read_text(encoding="utf-8")


GOLDEN_H1_CATALOG = Path(__file__).resolve().parent / "golden" / "h1_catalog.jsonl"


def h1_catalog_records(capsys) -> str:
    """One JSON line per run of `nilcoh h1 --format json` and of `nilcoh
    decompose` on each catalog and EQ3_EXTRA instance: its arguments, exit
    code, stdout and stderr.  `tests/golden/h1_catalog.jsonl` holds these
    lines as the code wrote them before H1 kept its cocycles as codes."""
    lines = []
    for inst in CATALOG + EQ3_EXTRA:
        for argv in (["h1", "--instance", inst.id, "--format", "json"],
                     ["decompose", "--instance", inst.id]):
            code = main(argv)
            out, err = capsys.readouterr()
            lines.append(json.dumps({"argv": argv, "exit": code, "stdout": out, "stderr": err},
                                    sort_keys=True, separators=(",", ":")) + "\n")
    return "".join(lines)


def test_cli_h1_and_decompose_match_golden(capsys):
    assert h1_catalog_records(capsys) == GOLDEN_H1_CATALOG.read_text(encoding="utf-8")


def test_cli_unknown_instance_is_input_error(capsys):
    assert main(["h1", "--instance", "nope"]) == 3
    capsys.readouterr()


def test_cli_scenario_suite(tmp_path, capsys):
    assert main(["suite", "--scenario", str(shipped_scenario_path()),
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 3
    bad = tmp_path / "corrupt.scn"
    for doc in (
        {"id": "x", "groups": {"g": {"kind": "table", "mul": [[0, 1], [1, 1]]}}},
        {"id": "x", "groups": {"g": {"builtin": "heisenberg", "p": 1e200}}},
        {"id": "x", "actions": {"a": {"actor": {"builtin": "cyclic", "n": 2},
                                      "target": {"builtin": "cyclic", "n": 4},
                                      "gens": [7], "images": [[0, 3, 2, 1]]}}},
        # A negative generator used to index from the end of J's table.
        {"id": "x", "actions": {"a": {"actor": {"builtin": "cyclic", "n": 2},
                                      "target": {"builtin": "cyclic", "n": 4},
                                      "gens": [-1], "images": [[0, 3, 2, 1]]}}},
        # |J| = 2, so the pair [0, 3] is out of range (it used to alias (1, 1)).
        {"id": "x", "groups": {"c4": {"builtin": "cyclic", "n": 4}},
         "actions": {"inv": {"builtin": "inversion", "target": "c4"}},
         "gsets": {"om": {"action": "inv", "coset_of": {"generated_by": [[0, 3]]}}}},
    ):
        bad.write_text(json.dumps(doc))
        assert main(["suite", "--scenario", str(bad)]) == 3, doc
        assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    {"builtin": "cyclic", "n": 100000},
    {"builtin": "heisenberg", "p": 13},
    {"builtin": "direct_product",
     "factors": [{"builtin": "cyclic", "n": 64}, {"builtin": "dihedral", "n": 32}]},
    {"kind": "table", "mul": [[0]] * 2049},  # rejected before the shape check
])
def test_cli_rejects_group_over_order_cap(tmp_path, capsys, spec):
    path = tmp_path / "big.scn"
    path.write_text(json.dumps({"id": "big", "groups": {"g": spec}}))
    assert main(["suite", "--scenario", str(path)]) == 3
    err = capsys.readouterr().err
    assert "group 'g'" in err and "OrderCapExceeded" in err and "2048" in err


def test_run_checks_contains_unexpected_errors(capsys):
    def crash():
        raise RuntimeError("boom")

    def refused():
        raise NotAbelian("N is not abelian")

    checks = [SuiteCheck("crash", crash), SuiteCheck("refused", refused)] + default_suite()[:2]
    outcomes = run_checks(checks)
    record = outcomes[0].report.to_json()
    assert record["theorem"] == "error" and record["pass"] is False
    assert record["hypotheses"] == {"ran": {"met": False, "detail": "RuntimeError: boom"}}
    assert not record["falsification"]
    assert outcomes[1].report.details["ran"] == "NotAbelian: N is not abelian"
    assert [o.ok for o in outcomes] == [False, False, True, True]
    assert exit_code(outcomes) == 1
    # The crash is a bug, so its message and traceback go to stderr; a
    # NilcohError is a refusal the record states, and writes nothing.
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[:2] == ["check crash raised an unexpected error",
                         "Traceback (most recent call last):"]
    assert "in crash" in captured.err and lines[-1] == "RuntimeError: boom"


def test_default_suite_instance_filter(capsys):
    assert main(["suite", "--instance", "c2_inv_c4/lemma1",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1


def test_default_suite_ids_unique():
    checks = default_suite()
    ids = [c.instance for c in checks]
    assert len(ids) == len(set(ids))


def test_scenario_gset_from_explicit_table(tmp_path):
    # The regular action of the order-4 semidirect product C2 x C2 (trivial
    # action), written out as an explicit permutation table.
    from nilcoh.harness.catalog import cyclic
    from nilcoh.actions import trivial_action, semidirect

    P = semidirect(trivial_action(cyclic(2), cyclic(2)))
    act = [[P.group.mul[g][w] for w in range(4)] for g in range(4)]
    doc = {
        "id": "explicit",
        "groups": {"c2": {"builtin": "cyclic", "n": 2}},
        "actions": {"t": {"builtin": "trivial", "actor": "c2", "target": "c2"}},
        "gsets": {"om": {"action": "t", "act": act}},
        "checks": [{"verify": "thm4", "action": "t", "gset": "om",
                    "expect_hypothesis_fail": True}],
    }
    path = tmp_path / "explicit.scn"
    path.write_text(json.dumps(doc))
    scenario = load_scenario(path)
    assert scenario.gsets["om"][1].size == 4
    # N is not transitive on the regular action of the direct product.
    outcomes = run_checks(scenario_checks(scenario))
    assert exit_code(outcomes) == 0


def test_scenario_duplicate_names_rejected(tmp_path):
    bad = tmp_path / "dupe.scn"
    bad.write_text('{"id": "x", "groups": {"g": {"builtin": "cyclic", "n": 2}, '
                   '"g": {"builtin": "cyclic", "n": 3}}}')
    with pytest.raises(ValidationError):
        load_scenario(bad)


def test_cli_budget_exceeded_is_reported(capsys):
    assert main(["h1", "--instance", "c3_shear_c3c3", "--budget", "2"]) == 1
    err = capsys.readouterr().err
    assert "BudgetExceeded" in err
    # The flag caps complement closures too: this enumeration needs 12.
    assert main(["complements", "--instance", "c3c3_triv_c3", "--budget", "9"]) == 1
    assert "BudgetExceeded: subgroup enumeration" in capsys.readouterr().err


_SHARED_DISPATCH = [(inst_id, theorem, f"{inst_id}/{theorem}" + (f":{tag}" if tag else ""), spec)
                    for inst_id, theorem, tag, spec, _ in CURATED_CHECKS
                    if isinstance(inst_id, str)] + [
    ("c6_inv_c6", "lemma1", "c6_inv_c6/lemma1", None),
    ("c6_inv_c6", "prop2", "c6_inv_c6/prop2", None),
]


def test_cli_verify_prints_the_suite_record(capsys):
    # `nilcoh verify` and the default suite dispatch through one function.
    records = map(json.loads, report_emit(run_checks(default_suite())).splitlines())
    suite = {record.pop("instance"): record for record in records}
    for inst_id, theorem, name, spec in _SHARED_DISPATCH:
        argv = ["verify", theorem, "--instance", inst_id, "--format", "json"]
        if spec is not None:
            argv += ["--h", json.dumps(spec)]
        main(argv)
        record = json.loads(capsys.readouterr().out)
        assert record.pop("instance") == inst_id
        assert record == suite[name], name


def test_cli_verify_with_subgroup_spec(capsys):
    assert main(["verify", "prop5", "--instance", "c2_inv_c4",
                 "--h", '{"elements": [0, 5]}', "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["pass"] is True
    assert main(["verify", "prop5", "--instance", "c2_inv_c4",
                 "--h", "{not json"]) == 3
    for pair in ([0, 3], [4, 0], [-1, 0]):
        assert main(["verify", "prop5", "--instance", "c2_inv_c4",
                     "--h", json.dumps({"generated_by": [pair]})]) == 3, pair
        assert "generated_by pair" in capsys.readouterr().err
    assert main(["verify", "prop5", "--instance", "c2_inv_c4",
                 "--h", '{"elements": [-1, 0]}']) == 3
    assert "element -1 outside parent of order 8" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "prop2", "--instanse", "x"], id="misspelt_flag"),
    pytest.param(["verify", "lemma1", "--instance", "c3_shear_c3c3", "--budget", "2"],
                 id="verify_budget"),
    pytest.param(["suite", "--budget", "2"], id="suite_budget"),
    pytest.param(["h1", "--instance", "c2_inv_c4", "--relaxed-hypotheses"],
                 id="h1_relaxed"),
    pytest.param(["h1", "--instance", "c2_inv_c4", "--budget", "many"], id="bad_budget"),
    pytest.param(["verify", "prop6", "--instance", "c2_inv_c4"], id="unknown_theorem"),
    pytest.param([], id="no_command"),
])
def test_cli_usage_errors_are_input_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 3
    assert "usage:" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    # Each subcommand lists exactly the flags it honours.
    budgeted, relaxable = {"h1", "complements", "decompose"}, {"verify", "suite"}
    for command in (None, "h1", "complements", "decompose", "verify", "suite"):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"] if command else ["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "usage:" in out
        assert ("--budget" in out) == (command in budgeted), command
        assert ("--relaxed-hypotheses" in out) == (command in relaxable), command


def test_import_does_not_load_numpy():
    src = Path(nilcoh.__file__).resolve().parent.parent
    probe = "import sys, nilcoh, nilcoh.harness; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


_C2 = {"builtin": "cyclic", "n": 2}
_C4 = {"builtin": "cyclic", "n": 4}
_INV_C4 = {"actions": {"inv": {"builtin": "inversion", "target": _C4}}}


def _gset_doc(spec):
    return {**_INV_C4, "gsets": {"om": {"action": "inv", **spec}}}


_REGULAR_C2C2 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


@pytest.mark.parametrize("doc, where, field, bad", [
    ({"groups": {"g": {"kind": "table", "mul": [[0, 1.9], [1, 0]]}}},
     "group 'g'", "mul", "1.9"),
    ({"groups": {"g": {"kind": "perm", "generators": [[2, True, 0]]}}},
     "group 'g'", "generators", "true"),
    ({"actions": {"a": {"actor": _C2, "target": _C4, "gens": [1.0],
                        "images": [[0, 3, 2, 1]]}}},
     "action 'a'", "gens", "1.0"),
    ({"actions": {"a": {"actor": _C2, "target": _C4, "gens": [1],
                        "images": [[0, 3, 2, "1"]]}}},
     "action 'a'", "images", '"1"'),
    ({"actions": {"t": {"builtin": "trivial", "actor": _C2, "target": _C2}},
      "gsets": {"om": {"action": "t", "act": _REGULAR_C2C2[:3] + [[3, 2, 1, 0.0]]}}},
     "gset 'om'", "act", "0.0"),
    (_gset_doc({"coset_of": {"elements": [0, 1.0]}}), "gset 'om'", "elements", "1.0"),
    (_gset_doc({"coset_of": {"generated_by": [[0, True]]}}),
     "gset 'om'", "generated_by", "true"),
    ({"groups": {"g": _C4},
      "checks": [{"verify": "prop2", "group": "g", "normal": {"generated_by": [2.5]}}]},
     "check 0", "normal.generated_by", "2.5"),
    ({**_INV_C4, "checks": [{"verify": "prop5", "action": "inv",
                             "h": {"elements": [0, 1.5]}}]},
     "check 0", "elements", "1.5"),
    # {"builtin": "cyclic", "n": true} used to load as a group "CTrue" of order 1.
    ({"groups": {"g": {"builtin": "cyclic", "n": True}}}, "group 'g'", "n", "true"),
    ({"groups": {"g": {"builtin": "dihedral", "n": 4.0}}}, "group 'g'", "n", "4.0"),
    ({"groups": {"g": {"builtin": "heisenberg", "p": "3"}}}, "group 'g'", "p", '"3"'),
    ({"groups": {"g": {"builtin": "abelian", "factors": [2, False]}}},
     "group 'g'", "factors", "false"),
    # "degree": true used to load as degree 1.
    ({"groups": {"g": {"kind": "perm", "degree": True, "generators": [[0]]}}},
     "group 'g'", "degree", "true"),
    ({"groups": {"g": {"kind": "perm", "degree": "1", "generators": [[0]]}}},
     "group 'g'", "degree", '"1"'),
    ({"groups": {"g": {"kind": "perm", "degree": 1.0, "generators": [[0]]}}},
     "group 'g'", "degree", "1.0"),
])
def test_cli_rejects_entries_that_are_not_integers(tmp_path, capsys, doc, where, field, bad):
    # int() used to truncate such entries silently: [[0, 1.9], [1, 0]] loaded as C2.
    path = tmp_path / "bad.scn"
    path.write_text(json.dumps({"id": "x", **doc}))
    assert main(["suite", "--scenario", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"{where}: {field} entry {bad} is not an integer" in err


def test_perm_group_without_generators_builds_nothing_on_its_degree(tmp_path, capsys):
    # With no generators the group is trivial whatever the degree; the
    # identity permutation of degree 2,000,000 used to be built first, a
    # 16 MB tuple (76 MB with its ints).  A negative degree is refused.
    import tracemalloc

    path = tmp_path / "big.scn"
    path.write_text(json.dumps({"id": "x", "groups": {
        "g": {"kind": "perm", "degree": 2_000_000, "generators": []}}}))
    tracemalloc.start()
    try:
        scenario = load_scenario(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scenario.groups["g"].order == 1
    assert peak < 1_000_000
    path.write_text(json.dumps({"id": "x", "groups": {
        "g": {"kind": "perm", "degree": -3, "generators": []}}}))
    assert main(["suite", "--scenario", str(path)]) == 3
    assert "group 'g': degree -3 is negative" in capsys.readouterr().err


@pytest.mark.parametrize("doc, where, field", [
    ({"groups": {"g": {"kind": "table", "mul": [[0, 1], "10"]}}}, "group 'g'", "mul"),
    ({"groups": {"g": {"kind": "perm", "generators": ["120"]}}}, "group 'g'", "generators"),
    ({"actions": {"a": {"actor": _C2, "target": _C4, "gens": "1",
                        "images": [[0, 3, 2, 1]]}}}, "action 'a'", "gens"),
    ({"actions": {"a": {"actor": _C2, "target": _C2, "gens": [1], "images": ["01"]}}},
     "action 'a'", "images"),
    ({"actions": {"t": {"builtin": "trivial", "actor": _C2, "target": _C2}},
      "gsets": {"om": {"action": "t", "act": _REGULAR_C2C2[:3] + ["3210"]}}},
     "gset 'om'", "act"),
    (_gset_doc({"coset_of": {"elements": "01"}}), "gset 'om'", "elements"),
    (_gset_doc({"coset_of": {"generated_by": ["01"]}}), "gset 'om'", "generated_by"),
    ({"groups": {"g": _C4},
      "checks": [{"verify": "prop2", "group": "g", "normal": {"generated_by": "1"}}]},
     "check 0", "normal.generated_by"),
])
def test_cli_rejects_fields_that_are_not_integer_lists(tmp_path, capsys, doc, where, field):
    # Digit strings used to be iterated and converted by the constructors:
    # "mul": [[0, 1], "10"] loaded as C2.
    path = tmp_path / "bad.scn"
    path.write_text(json.dumps({"id": "x", **doc}))
    assert main(["suite", "--scenario", str(path)]) == 3
    assert f"{where}: {field} is not a list of" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    # |J| = 2, so the pair [0, 3] is out of range.
    ({**_INV_C4, "checks": [{"verify": "prop5", "action": "inv",
                             "h": {"generated_by": [[0, 3]]}}]},
     "generated_by pair [0, 3] outside |N| = 4, |J| = 2"),
    ({"groups": {"d4": {"builtin": "dihedral", "n": 4}},
      "checks": [{"verify": "prop3", "group": "d4", "normal": {"generated_by": [99]}}]},
     "seed 99 outside group of order 8"),
])
def test_cli_rejects_bad_check_subgroups_at_load(tmp_path, capsys, doc, message):
    # These specs used to be resolved only when the check ran, as an error
    # record (exit 1); the seed outside D4 also wrote a traceback.
    path = tmp_path / "bad.scn"
    path.write_text(json.dumps({"id": "x", **doc}))
    with pytest.raises(ValidationError, match="check 0"):
        load_scenario(path)
    assert main(["suite", "--scenario", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"check 0: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("relaxed", [False, True])
def test_prop3_on_a_non_normal_n_reports_the_hypothesis(tmp_path, capsys, relaxed):
    # <3> is generated by a reflection of S3.  complements() used to raise on
    # it, which wrote a traceback and printed an error record.
    path = tmp_path / "s3.scn"
    path.write_text(json.dumps({
        "id": "x", "groups": {"s3": {"builtin": "dihedral", "n": 3}},
        "checks": [{"verify": "prop3", "group": "s3", "normal": {"generated_by": [3]}}]}))
    flags = ["--relaxed-hypotheses"] if relaxed else []
    assert main(["suite", "--scenario", str(path), "--format", "json", *flags]) == 1
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert captured.err == ""
    assert record["theorem"] == "prop3"
    assert record["hypotheses"] == {
        "n_nilpotent": {"met": True, "detail": ""},
        "n_normal": {"met": False, "detail": "N is not normal in G"}}
    assert (record["pass"], record["falsification"], record["witness"]) == (False, False, None)


_OVER_CAP = {"groups": {"c64": {"builtin": "cyclic", "n": 64}},
             "actions": {"t": {"builtin": "trivial", "actor": "c64", "target": "c64"}}}


@pytest.mark.parametrize("check, refused", [
    ({"verify": "prop2"}, True),
    ({"verify": "prop3"}, True),
    ({"verify": "prop5"}, True),
    ({"check": "complements"}, True),
    ({"verify": "lemma1"}, False),
    ({"check": "decompose"}, False),
    ({"check": "h1"}, False),
])
def test_checks_on_a_product_over_the_order_cap(tmp_path, capsys, check, refused):
    # |N||J| = 4096: the checks that build the product are refused at load,
    # where they used to end as an error record (exit 1) when run.
    path = tmp_path / "over_cap.scn"
    path.write_text(json.dumps({"id": "x", **_OVER_CAP,
                                "checks": [{**check, "action": "t"}]}))
    if not refused:
        assert len(load_scenario(path).checks) == 1
        return
    with pytest.raises(ValidationError, match="check 0"):
        load_scenario(path)
    assert main(["suite", "--scenario", str(path)]) == 3
    assert ("check 0: OrderCapExceeded: |N x| J| = 4096 exceeds cap 2048"
            in capsys.readouterr().err)


def test_scenario_perm_group_and_direct_product(tmp_path, capsys):
    doc = {
        "id": "perm",
        "groups": {
            "v4": {"kind": "perm", "degree": 4,
                   "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]},
            "prod": {"builtin": "direct_product",
                     "factors": [{"builtin": "cyclic", "n": 2}, "v4"]},
        },
        "actions": {"inv": {"builtin": "inversion", "target": "prod"}},
        "checks": [{"check": "h1", "action": "inv"}],
    }
    path = tmp_path / "perm.scn"
    path.write_text(json.dumps(doc))
    scenario = load_scenario(path)
    assert scenario.groups["v4"].order == 4
    assert scenario.groups["prod"].order == 8
    outcomes = run_checks(scenario_checks(scenario))
    assert exit_code(outcomes) == 0
    # CLI action resolution inside a scenario.
    assert main(["h1", "--scenario", str(path), "--instance", "inv",
                 "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["instance"] == "perm/inv"


def test_serialization_round_trips():
    from nilcoh.groups import group_from_table
    from nilcoh.cohomology import h1

    inst = catalog_by_id()["c2_inv_c4"]
    action = inst.action()
    G = action.target
    assert same_table(group_from_table([list(row) for row in G.mul]), G)
    H = h1(action)
    assert H.distinguished == 0
    assert H._rep_tables() == ((0, 0), (0, 1))


def test_default_suite_builds_one_semidirect_product_per_action(monkeypatch):
    # Fresh catalog actions, so that no product is cached by an earlier test.
    from nilcoh import actions

    for inst in CATALOG + EQ3_EXTRA:
        monkeypatch.setattr(inst, "_cached", None)
    built = []
    init = actions.SemidirectProduct.__init__

    def counting_init(self, action, *args, **kwargs):
        built.append(action)
        init(self, action, *args, **kwargs)

    monkeypatch.setattr(actions.SemidirectProduct, "__init__", counting_init)
    outcomes = run_checks(default_suite())
    assert all(o.ok for o in outcomes)
    assert len(built) >= 20
    assert len({id(a) for a in built}) == len(built)
