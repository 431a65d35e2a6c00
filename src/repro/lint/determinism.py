"""Determinism rules (RPR1xx): the byte-identical-per-seed contract.

The simulator's strongest invariant is that a run is a pure function of
its seed: golden trace hashes, incident logs and bench artifacts all
depend on it.  These rules reject the constructs that break it --
module-level RNG state, wall-clock reads, allocation-address ordering,
and non-canonical JSON -- before a test ever has to catch them
dynamically.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.lint.base import (
    LintContext,
    Violation,
    dotted_name,
    file_rule,
)

#: Calls through the module-level ``random`` API share hidden global
#: state; two subsystems drawing from it perturb each other's streams.
_ALLOWED_RANDOM_ATTRS = frozenset({"Random"})

#: Wall-clock / entropy calls, by dotted name.
_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "uuid.uuid1", "uuid.uuid3", "uuid.uuid4", "uuid.uuid5",
    "os.urandom", "os.getrandom",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.choice", "secrets.randbits",
})

#: ``from <module> import <name>`` imports that smuggle the same calls
#: in under bare names.
_WALLCLOCK_IMPORTS = {
    "time": frozenset({"time", "time_ns", "monotonic", "monotonic_ns",
                       "perf_counter", "perf_counter_ns",
                       "process_time", "process_time_ns"}),
    "uuid": frozenset({"uuid1", "uuid3", "uuid4", "uuid5"}),
    "os": frozenset({"urandom", "getrandom"}),
    "secrets": None,  # every name in secrets is entropy
}

#: JSON serializers whose output must be canonical: ``json``'s own and
#: the project's sanitizing ``repro.obs.export.dumps``, which forwards
#: ``**kwargs`` to ``json.dumps`` and so hides its callers from the
#: kwargs-forwarding exemption below.
_JSON_SERIALIZERS = frozenset({"json.dump", "json.dumps", "export.dumps",
                               "repro.obs.export.dumps"})

#: Callables whose ``key=`` argument defines an ordering.
_ORDERING_CALLS = frozenset({"sorted", "min", "max"})
_ORDERING_METHODS = frozenset({"sort"})


def _contains_id_call(node: ast.AST) -> bool:
    for n in ast.walk(node):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "id"):
            return True
    return False


@file_rule
def check_determinism(tree: ast.AST, source: str, path: str,
                      ctx: LintContext) -> Iterable[Violation]:
    out: List[Violation] = []

    for node in ast.walk(tree):
        # -- RPR101 / RPR102: forbidden imports --------------------------------
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random":
                for alias in node.names:
                    if alias.name not in _ALLOWED_RANDOM_ATTRS:
                        out.append(Violation(
                            path, node.lineno, node.col_offset, "RPR101",
                            f"'from random import {alias.name}' exposes the "
                            "module-level RNG; import random.Random and seed it",
                        ))
            banned = _WALLCLOCK_IMPORTS.get(node.module or "")
            if node.module in _WALLCLOCK_IMPORTS:
                for alias in node.names:
                    if banned is None or alias.name in banned:
                        out.append(Violation(
                            path, node.lineno, node.col_offset, "RPR102",
                            f"'from {node.module} import {alias.name}' pulls a "
                            "wall-clock/entropy source into the simulator; "
                            "derive values from the simulation clock or the "
                            "seeded RNG",
                        ))
            continue

        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)

        # -- RPR101: module-level random.* calls -------------------------------
        if (name is not None and name.startswith("random.")
                and name.count(".") == 1
                and name.split(".", 1)[1] not in _ALLOWED_RANDOM_ATTRS):
            out.append(Violation(
                path, node.lineno, node.col_offset, "RPR101",
                f"{name}() draws from the shared module-level RNG; use a "
                "seeded random.Random instance so streams are isolated "
                "and reproducible",
            ))

        # -- RPR102: wall-clock / entropy calls --------------------------------
        if name in _WALLCLOCK_CALLS:
            out.append(Violation(
                path, node.lineno, node.col_offset, "RPR102",
                f"{name}() reads the wall clock / OS entropy; simulation "
                "state must derive from sim.now and seeded RNGs",
            ))

        # -- RPR103: id() in ordering/key positions ----------------------------
        if isinstance(node.func, ast.Name) and node.func.id in _ORDERING_CALLS:
            for kw in node.keywords:
                if kw.arg == "key" and (
                        (isinstance(kw.value, ast.Name) and kw.value.id == "id")
                        or _contains_id_call(kw.value)):
                    out.append(Violation(
                        path, kw.value.lineno, kw.value.col_offset, "RPR103",
                        "id() as a sort key orders by allocation address, "
                        "which varies run to run; key on a stable field",
                    ))
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _ORDERING_METHODS):
            for kw in node.keywords:
                if kw.arg == "key" and (
                        (isinstance(kw.value, ast.Name) and kw.value.id == "id")
                        or _contains_id_call(kw.value)):
                    out.append(Violation(
                        path, kw.value.lineno, kw.value.col_offset, "RPR103",
                        "id() as a sort key orders by allocation address, "
                        "which varies run to run; key on a stable field",
                    ))

        # -- RPR104: non-canonical JSON ----------------------------------------
        if name in _JSON_SERIALIZERS:
            forwards_kwargs = any(kw.arg is None for kw in node.keywords)
            sorted_keys = any(
                kw.arg == "sort_keys"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            )
            if not forwards_kwargs and not sorted_keys:
                out.append(Violation(
                    path, node.lineno, node.col_offset, "RPR104",
                    f"{name}(...) without sort_keys=True: exported payloads "
                    "must serialize canonically so same-seed runs are "
                    "byte-identical",
                ))

    # -- RPR103 (continued): id() as dict keys / subscript indexes -------------
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None and _contains_id_call(key):
                    out.append(Violation(
                        path, key.lineno, key.col_offset, "RPR103",
                        "id() as a dict key makes iteration order depend on "
                        "allocation addresses; key on the object or a stable "
                        "field",
                    ))
        elif isinstance(node, ast.Subscript):
            if _contains_id_call(node.slice):
                out.append(Violation(
                    path, node.slice.lineno, node.slice.col_offset, "RPR103",
                    "id() as a subscript index makes the container's "
                    "iteration order depend on allocation addresses; key on "
                    "the object or a stable field",
                ))
        elif isinstance(node, (ast.DictComp, ast.SetComp)):
            key = node.key if isinstance(node, ast.DictComp) else node.elt
            if _contains_id_call(key):
                out.append(Violation(
                    path, key.lineno, key.col_offset, "RPR103",
                    "id() as a comprehension key makes iteration order "
                    "depend on allocation addresses; key on a stable field",
                ))
    return out
