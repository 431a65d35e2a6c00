"""Trace/schema registry rules (RPR3xx): one vocabulary, no drift.

``repro.obs.events`` is the canonical registry of trace event names,
component names and monitor rule names.  These rules pin every string
literal a hook site passes to ``record(...)`` -- and every stage list
an analysis hardcodes -- to that registry, so renaming an event without
updating the registry (or vice versa) fails the lint gate instead of
silently producing journeys that never complete.
"""

from __future__ import annotations

import ast
import inspect
from typing import Iterable, List, Optional

from repro.lint.base import (
    LintContext,
    Violation,
    file_rule,
    path_matches,
    project_rule,
    receiver_kind,
)


def _literal_values(node: ast.AST) -> List[ast.Constant]:
    """String constants an argument expression can evaluate to: the
    constant itself, or both arms of a conditional expression.  Other
    shapes (variables, f-strings) are dynamic and not checked."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node]
    if isinstance(node, ast.IfExp):
        return _literal_values(node.body) + _literal_values(node.orelse)
    return []


def _fstring_template(node: ast.AST) -> Optional[str]:
    """A checkable template for an f-string series name: formatted
    values collapse to a one-character placeholder (``x``), so
    ``f"link.{link.name}.occupancy"`` becomes ``link.x.occupancy`` --
    which either matches a registered family pattern or does not.
    Returns None for non-f-string shapes (left to :func:`_literal_values`)
    or templates whose placeholder could span a ``.`` boundary."""
    if not isinstance(node, ast.JoinedStr):
        return None
    parts: List[str] = []
    for piece in node.values:
        if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
            parts.append(piece.value)
        elif isinstance(piece, ast.FormattedValue):
            parts.append("x")
        else:
            return None
    return "".join(parts)


def _record_arg(call: ast.Call, index: int, name: str) -> Optional[ast.AST]:
    """The ``record`` argument at positional ``index`` / keyword
    ``name`` (signature: record(cycle, component, event, packet_id,
    detail))."""
    if len(call.args) > index:
        return call.args[index]
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


@file_rule
def check_trace_names(tree: ast.AST, source: str, path: str,
                      ctx: LintContext) -> Iterable[Violation]:
    from repro.obs import events as registry

    out: List[Violation] = []
    registry_file = path_matches(path, ctx.config.registry_exempt)

    for node in ast.walk(tree):
        # -- RPR301 / RPR302: record(...) literals -----------------------------
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "record" \
                and receiver_kind(node.func.value, ctx.config) == "recorder":
            event_arg = _record_arg(node, 2, "event")
            if event_arg is not None:
                for const in _literal_values(event_arg):
                    if not registry.is_trace_event(const.value):
                        out.append(Violation(
                            path, const.lineno, const.col_offset, "RPR301",
                            f"trace event {const.value!r} is not registered "
                            "in repro.obs.events; register it (and document "
                            "it) or fix the name",
                        ))
            component_arg = _record_arg(node, 1, "component")
            if component_arg is not None:
                for const in _literal_values(component_arg):
                    if not registry.is_component(const.value):
                        out.append(Violation(
                            path, const.lineno, const.col_offset, "RPR302",
                            f"component {const.value!r} is not registered in "
                            "repro.obs.events (names or patterns); register "
                            "it or fix the name",
                        ))

        # -- RPR305: sample(...) series names ----------------------------------
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ctx.config.sampler_hooks \
                and receiver_kind(node.func.value, ctx.config) == "sampler":
            name_arg = _record_arg(node, 0, "name")
            if name_arg is not None:
                for const in _literal_values(name_arg):
                    if not registry.is_metric_series(const.value):
                        out.append(Violation(
                            path, const.lineno, const.col_offset, "RPR305",
                            f"series {const.value!r} is not registered "
                            "in repro.obs.events (METRIC_SERIES / "
                            "METRIC_PATTERNS); register the family or fix "
                            "the name",
                        ))
                template = _fstring_template(name_arg)
                if template is not None \
                        and not registry.is_metric_series(template):
                    out.append(Violation(
                        path, name_arg.lineno, name_arg.col_offset, "RPR305",
                        f"series template {template!r} resolves "
                        "against no registered family in repro.obs.events "
                        "(METRIC_PATTERNS); register the family or fix the "
                        "name",
                    ))

        # -- RPR303: hardcoded stage lists -------------------------------------
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)) \
                and not registry_file and len(node.elts) >= 3:
            values = [e.value for e in node.elts
                      if isinstance(e, ast.Constant) and isinstance(e.value, str)]
            if len(values) == len(node.elts) \
                    and all(registry.is_trace_event(v) for v in values):
                out.append(Violation(
                    path, node.lineno, node.col_offset, "RPR303",
                    "hardcoded stage list duplicates the repro.obs.events "
                    "registry; import LIFECYCLE_EVENTS/DROP_EVENTS instead "
                    "so the pipeline order cannot drift",
                ))
    return out


@project_rule
def check_monitor_rules(ctx: LintContext) -> Iterable[Violation]:
    """RPR304: every health-watchdog rule name resolves against the
    registry (incident logs key on these names, so an unregistered one
    is a silent schema fork)."""
    from repro.obs import events as registry
    from repro.obs import monitor

    out: List[Violation] = []

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for rule_cls in subclasses(monitor.Rule):
        if rule_cls.__module__ != monitor.__name__:
            continue  # fixture rules defined by tests police themselves
        name = getattr(rule_cls, "name", None)
        if not name or name == "rule":
            continue
        if name not in registry.MONITOR_RULES:
            try:
                line = inspect.getsourcelines(rule_cls)[1]
            except (OSError, TypeError):
                line = 1
            anchor = inspect.getsourcefile(rule_cls) or "<unknown>"
            out.append(Violation(
                anchor, line, 0, "RPR304",
                f"monitor rule {name!r} ({rule_cls.__name__}) is not "
                "registered in repro.obs.events.MONITOR_RULES; register it "
                "so incident-log consumers can enumerate the schema",
            ))
    return out
