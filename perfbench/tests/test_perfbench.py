"""Tests of the benchmark's own code: tracer completeness, self-time
arithmetic, metric names, and that untraced passes stay untraced.

    python3 -m pytest perfbench/tests
"""

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import tracer
from tracer import TARGETS, Tracer, metric_names, self_times, target_name, wrapped_sites

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _exercise():
    """A spread of library calls that reaches most traced targets through the
    package's own call sites."""
    from nilcoh.harness import default_suite, load_scenario, run_checks, scenario_checks
    from nilcoh.harness.suite import run_checks as run_scenario

    picked = ("c2_inv_c4/", "c6_inv_c6/", "c2_swap_c2c2/prop3", "ambient/prop5:d4",
              "q8_conj_q8/thm4", "c3_cycle_q8/eq3")
    checks = [c for c in default_suite() if c.instance.startswith(picked)]
    outcomes = run_checks(checks)
    scn = ROOT / "src" / "nilcoh" / "harness" / "scenarios" / "d4_inversion.scn"
    outcomes += run_scenario(scenario_checks(load_scenario(scn)))
    assert all(o.ok for o in outcomes)


def test_traced_call_counts_equal_direct_counts():
    originals = {}
    for layer, attr, _, _ in TARGETS:
        _, _, fn = tracer._resolve(layer, attr)
        originals[fn.__code__] = target_name(layer, attr)
    direct = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in originals:
            direct[originals[frame.f_code]] += 1

    tr = Tracer()
    tr.install()
    sys.setprofile(profile)
    try:
        tr.run_case(_exercise)
    finally:
        sys.setprofile(None)
        tr.uninstall()
    traced = Counter(name for _, _, _, name, _, _ in tr.spans if name != "case")
    assert traced["groups.Subgroup"] > 0 and traced["cohomology.cocycles"] > 0
    for name in originals.values():
        assert traced[name] == direct[name], name
    assert wrapped_sites() == []


def test_self_times_subtract_the_union_of_children():
    spans = [
        (0, None, 0.0, 10.0),
        (1, 0, 1.0, 4.0),
        (2, 0, 3.0, 6.0),     # overlaps span 1: the union [1, 6] counts once
        (3, 1, 2.0, 3.0),
        (4, 0, 9.0, 12.0),    # reaches past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_nested_self_times_sum_to_the_root_duration():
    tr = Tracer()
    tr.install()
    try:
        tr.run_case(_exercise)
    finally:
        tr.uninstall()
    root = [s for s in tr.spans if s[3] == "case"]
    assert len(root) == 1
    layers = tr.aggregate()
    total = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    total += layers["unwrapped.self_s"]
    assert total == pytest.approx(root[0][5] - root[0][4], rel=1e-9)


def test_case_times_in_refs_are_divided_by_their_own_reference():
    passes = [{"cases": [["a", 1.0, 0.5], ["b", 2.0, 0.5]]},
              {"cases": [["a", 1.0, 0.25], ["b", 0.5, 0.25]]},
              {"cases": [["a", 3.0, 1.0], ["b", 1.0, 0.5]]}]
    assert run.case_medians(passes, in_refs=True) == {"a": 3.0, "b": 2.0}
    assert run.case_medians(passes) == {"a": 1.0, "b": 1.0}


def test_metric_names_follow_the_grammar_and_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [m["name"] for m in spec["per_layer"]] == metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_untraced_pass_installs_no_wrappers(tmp_path):
    code = (
        "import sys, worker\n"
        f"worker.main(['--mode', 'plain', '--workload', 'cocycle_heavy', '--seed', '3', "
        f"'--out', {str(tmp_path)!r}])\n"
        "loaded = 'tracer' in sys.modules\n"
        "import tracer\n"
        "print([loaded, tracer.wrapped_sites()])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result, flags = proc.stdout.strip().splitlines()[-2:]
    assert json.loads(result)["failures"] == []
    assert flags == "[False, []]"


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_case_names_are_unique_within_a_workload(workload, tmp_path):
    from workloads import WORKLOADS

    names = [case.name for case in WORKLOADS[workload](3, tmp_path)]
    assert len(names) == len(set(names))


def test_scenario_inputs_depend_only_on_the_seed():
    from workloads import scenario_documents

    assert scenario_documents(5) == scenario_documents(5)
    good, bad = scenario_documents(5)
    assert good != scenario_documents(6)[0]
    assert good["checks"] == bad["checks"] and good != bad
