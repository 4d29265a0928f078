"""Scenario files: JSON documents naming groups, actions, G-sets, and checks.

A scenario is fully validated at load time; every constructor failure is
reported as a ValidationError naming the constructor, and malformed JSON as a
ParseError with line and column.  A group of order above DEFAULT_ORDER_CAP is
rejected before its table is built, and so is a check that would run on a
semidirect product above it.  Every builtin group's parameter and every
table, permutation, image and element entry must be a JSON integer in a
JSON list: `1.9`, `1.0`, `"1"` and `true` are refused here, and so is a
field of another shape, such as the string `"10"` for a row, so the
constructors behind this boundary take every entry as it is.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

from ..actions import (
    ActionOnGroup,
    GSet,
    SemidirectProduct,
    _product_order,
    action_from_generator_images,
    coset_gset,
    semidirect,
    trivial_action,
)
from ..errors import NilcohError, OrderCapExceeded, ParseError, UnknownCheck, ValidationError
from ..groups import (
    DEFAULT_ORDER_CAP,
    Group,
    Subgroup,
    group_from_permutations,
    group_from_table,
    subgroup_generated,
)
from .catalog import (
    BUILTIN_GROUPS,
    direct_product,
    inversion_action,
    swap_action,
)

KNOWN_VERIFIERS = ("lemma1", "prop2", "prop3", "prop5", "thm4")
KNOWN_CHECKS = ("h1", "complements", "decompose")


class ScenarioCheck:
    __slots__ = ("kind", "instance", "spec", "expect_hypothesis_fail", "normal")

    def __init__(self, kind: str, instance: str, spec: dict,
                 expect_hypothesis_fail: bool = False, normal: Subgroup | None = None):
        self.kind = kind          # verifier or computational check name
        self.instance, self.spec = instance, spec
        self.expect_hypothesis_fail = expect_hypothesis_fail
        self.normal = normal      # N of a prop2/prop3 check on a group


class Scenario:
    __slots__ = ("id", "groups", "actions", "gsets", "checks")

    def __init__(self, id: str):
        self.id = id
        self.groups: dict[str, Group] = {}
        self.actions: dict[str, ActionOnGroup] = {}
        self.gsets: dict[str, tuple[str, GSet]] = {}  # action name, gset
        self.checks: list[ScenarioCheck] = []


@contextmanager
def _as_validation_error(where: str):
    """Report a constructor failure inside the block as a ValidationError."""
    try:
        yield
    except ValidationError:
        raise
    except NilcohError as exc:
        raise ValidationError(where, f"{type(exc).__name__}: {exc}") from exc
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(where, str(exc)) from exc


def _require_integers(value, where: str, field: str, depth: int = 1) -> None:
    """Refuse a field that is not a list of JSON integers (depth 1) or a
    list of such lists (depth 2), naming the field: a string or any other
    shape is refused here too, so no constructor iterates over one."""
    rows = [value] if depth == 1 else value
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        shape = "a list of integers" if depth == 1 else "a list of lists of integers"
        raise ValidationError(where, f"{field} is not {shape}")
    if not {int}.issuperset(map(type, chain.from_iterable(rows))):
        bad = next(x for x in chain.from_iterable(rows) if type(x) is not int)
        raise ValidationError(where, f"{field} entry {json.dumps(bad)} is not an integer")


def _check_order(order: int) -> None:
    if order > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(f"group order {order} exceeds cap {DEFAULT_ORDER_CAP}")


def _build_group(spec, groups: dict[str, Group], where: str) -> Group:
    if isinstance(spec, str):
        if spec not in groups:
            raise ValidationError(where, f"unknown group name {spec!r}")
        return groups[spec]
    if not isinstance(spec, dict):
        raise ValidationError(where, "group spec must be a name or an object")
    with _as_validation_error(where):
        if "builtin" in spec:
            name = spec["builtin"]
            if name == "direct_product":
                parts = [_build_group(s, groups, where) for s in spec["factors"]]
                if not parts:
                    raise ValidationError(where, "direct_product needs factors")
                _check_order(math.prod(part.order for part in parts))
                out = parts[0]
                for rhs in parts[1:]:
                    out = direct_product(out, rhs)
                return out
            if name not in BUILTIN_GROUPS:
                raise ValidationError(where, f"unknown builtin group {name!r}")
            build, order_of = BUILTIN_GROUPS[name]
            kwargs = {k: v for k, v in spec.items() if k != "builtin"}
            for key, value in kwargs.items():   # n, p, or the list of factors
                _require_integers(value if isinstance(value, list) else [value], where, key)
            _check_order(order_of(**kwargs))
            return build(**kwargs)
        kind = spec.get("kind")
        if kind == "table":
            _check_order(len(spec["mul"]))
            _require_integers(spec["mul"], where, "mul", depth=2)
            return group_from_table(spec["mul"])
        if kind == "perm":
            _require_integers(spec["generators"], where, "generators", depth=2)
            degree = spec.get("degree")
            if degree is not None:
                _require_integers([degree], where, "degree")
            return group_from_permutations(spec["generators"], degree=degree)
    raise ValidationError(where, f"unrecognized group spec {spec!r}")


def _build_action(spec: dict, groups: dict[str, Group], where: str) -> ActionOnGroup:
    with _as_validation_error(where):
        if "builtin" in spec:
            name = spec["builtin"]
            if name == "trivial":
                return trivial_action(
                    _build_group(spec["actor"], groups, where),
                    _build_group(spec["target"], groups, where),
                )
            if name == "inversion":
                return inversion_action(_build_group(spec["target"], groups, where))
            if name == "swap":
                return swap_action(_build_group(spec["factor"], groups, where))
            raise ValidationError(where, f"unknown builtin action {name!r}")
        actor = _build_group(spec["actor"], groups, where)
        target = _build_group(spec["target"], groups, where)
        _require_integers(spec["gens"], where, "gens")
        _require_integers(spec["images"], where, "images", depth=2)
        return action_from_generator_images(actor, target, spec["gens"], spec["images"])


def subgroup_of_semidirect(P: SemidirectProduct, spec, where: str = "subgroup") -> Subgroup:
    """Resolve a subgroup spec against a semidirect product.

    Accepts "embedded_j", "embedded_n", "whole", "trivial", {"elements": [...]},
    or {"generated_by": [[n, j], ...]} with pairs in N x J coordinates,
    each checked to lie in range.
    """
    G = P.group
    nn, nj = P.action.target.order, P.action.actor.order
    with _as_validation_error(where):
        if spec == "embedded_j":
            return Subgroup(G, range(nj))
        if spec == "embedded_n":
            return Subgroup(G, (n * nj for n in range(nn)))
        if spec == "whole":
            return Subgroup(G, range(G.order))
        if spec == "trivial":
            return Subgroup(G, (0,))
        if isinstance(spec, dict) and "elements" in spec:
            _require_integers(spec["elements"], where, "elements")
            return Subgroup(G, spec["elements"])
        if isinstance(spec, dict) and "generated_by" in spec:
            _require_integers(spec["generated_by"], where, "generated_by", depth=2)
            seeds = []
            for n, j in spec["generated_by"]:
                if not (0 <= n < nn and 0 <= j < nj):
                    raise ValidationError(
                        where, f"generated_by pair [{n}, {j}] outside |N| = {nn}, |J| = {nj}")
                seeds.append(n * nj + j)
            return subgroup_generated(G, seeds)
    raise ValidationError(where, f"unrecognized subgroup spec {spec!r}")


def _build_gset(spec: dict, scenario: Scenario, where: str) -> tuple[str, GSet]:
    with _as_validation_error(where):
        action_name = spec["action"]
        if action_name not in scenario.actions:
            raise ValidationError(where, f"unknown action name {action_name!r}")
        P = semidirect(scenario.actions[action_name])
        if "coset_of" in spec:
            H = subgroup_of_semidirect(P, spec["coset_of"], where)
            return action_name, coset_gset(P.group, H)
        if "act" in spec:
            _require_integers(spec["act"], where, "act", depth=2)
            return action_name, GSet(P.group, spec["act"])
    raise ValidationError(where, f"unrecognized gset spec {spec!r}")


def _reject_duplicate_names(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValidationError("scenario", f"duplicate name {key!r}")
        out[key] = value
    return out


def load_scenario(path: str | Path) -> Scenario:
    """Parse and fully validate a scenario file.  The "groups", "actions"
    and "gsets" sections, where present and not null, must be JSON objects,
    and "checks" a JSON list."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_names)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict) or "id" not in doc:
        raise ValidationError("scenario", "document must be an object with an 'id'")
    scenario = Scenario(id=str(doc["id"]))
    for section, shape in (("groups", dict), ("actions", dict), ("gsets", dict), ("checks", list)):
        if doc.get(section) is not None and type(doc[section]) is not shape:
            kind = "an object" if shape is dict else "a list"
            raise ValidationError("scenario", f"{section!r} must be {kind}")
    for name, spec in (doc.get("groups") or {}).items():
        scenario.groups[name] = _build_group(spec, scenario.groups, f"group {name!r}")
    for name, spec in (doc.get("actions") or {}).items():
        scenario.actions[name] = _build_action(spec, scenario.groups, f"action {name!r}")
    for name, spec in (doc.get("gsets") or {}).items():
        scenario.gsets[name] = _build_gset(spec, scenario, f"gset {name!r}")
    for i, spec in enumerate(doc.get("checks") or []):
        if not isinstance(spec, dict):
            raise ValidationError(f"check {i}", "check must be an object")
        if "verify" in spec:
            kind = spec["verify"]
            if kind not in KNOWN_VERIFIERS:
                raise UnknownCheck(kind)
        elif "check" in spec:
            kind = spec["check"]
            if kind not in KNOWN_CHECKS:
                raise UnknownCheck(kind)
        else:
            raise ValidationError(f"check {i}", "needs a 'verify' or 'check' key")
        scenario.checks.append(
            ScenarioCheck(
                kind=kind,
                instance=f"{scenario.id}/{i}:{kind}",
                spec=spec,
                expect_hypothesis_fail=spec.get("expect_hypothesis_fail", False),
                normal=_resolve_check_subgroups(spec, scenario, i),
            )
        )
    return scenario


def _resolve_check_subgroups(spec: dict, scenario: Scenario, i: int) -> Subgroup | None:
    """Check the references of check i and resolve its subgroup specs: a
    check that runs on an action's semidirect product must keep it within
    the order cap, a prop5 check's "h" is built once to validate it, and the
    normal subgroup of a prop2/prop3 check on a group is returned.  An h1
    check's limit and expected counts must be JSON integers,
    "expect_hypothesis_fail" a JSON boolean, and an "action", "gset" or
    "group" reference a JSON string.  Every failure is a ValidationError
    naming the check."""
    where = f"check {i}"
    if type(spec.get("expect_hypothesis_fail", False)) is not bool:
        raise ValidationError(where, "expect_hypothesis_fail is not true or false")
    if spec.get("check") == "h1":
        for field in ("oracle_limit", "expect_classes", "expect_cocycles"):
            if field in spec:
                _require_integers([spec[field]], where, field)
    for field, names in (("action", scenario.actions), ("gset", scenario.gsets),
                         ("group", scenario.groups)):
        if field in spec and type(spec[field]) is not str:
            raise ValidationError(where, f"{field} is not a name")
        if field in spec and spec[field] not in names:
            raise ValidationError(where, f"unknown {field} name {spec[field]!r}")
    if isinstance(spec.get("normal"), dict):
        _require_integers(spec["normal"].get("generated_by", []), where, "normal.generated_by")
    needs_action = spec.get("verify") in ("lemma1", "prop5") or spec.get("check") in KNOWN_CHECKS
    if needs_action and "action" not in spec:
        raise ValidationError(where, "this check needs an 'action' reference")
    if spec.get("verify") in ("prop2", "prop3") and not ({"action", "group"} & set(spec)):
        raise ValidationError(where, "this check needs an 'action' or 'group' reference")
    if spec.get("verify") == "thm4" and "gset" not in spec:
        raise ValidationError(where, "thm4 needs a 'gset' reference")
    on_product = (spec.get("verify") in ("prop2", "prop3", "prop5")
                  or spec.get("check") == "complements")
    if on_product and "action" in spec:
        with _as_validation_error(where):
            _product_order(scenario.actions[spec["action"]])
    if spec.get("verify") == "prop5" and "h" in spec:
        with _as_validation_error(where):
            subgroup_of_semidirect(semidirect(scenario.actions[spec["action"]]),
                                   spec["h"], where)
    if spec.get("verify") in ("prop2", "prop3") and "action" not in spec:
        normal = spec.get("normal", {})
        if not isinstance(normal, dict):
            raise ValidationError(where, "'normal' must be an object")
        with _as_validation_error(where):
            return subgroup_generated(scenario.groups[spec["group"]],
                                      normal.get("generated_by", []))
    return None
