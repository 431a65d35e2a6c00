"""Null-object parity rules (RPR2xx): zero-cost hooks stay zero-cost.

The observability and fault subsystems rely on the null-object pattern:
every hook site holds a ``NullRecorder`` / ``NullInjector`` by default
and pays one ``.enabled`` attribute check when disabled.  That contract
breaks two ways:

* a method grows on the live class (or a call site) without a matching
  no-op on the null class -- the next disabled run crashes with an
  ``AttributeError`` in the hot path (RPR201/RPR204);
* a hook site does work *before* the ``.enabled`` check -- builds a
  dict, formats an f-string, calls the hook unguarded -- and the
  "zero-cost when disabled" bench regresses (RPR202/RPR203).

The file pass walks every function tracking whether execution is inside
an ``.enabled`` guard (including ``flag = rec.enabled`` aliases and
``inj.enabled and inj.on_rx(...)`` short-circuits); the project pass
introspects the real/null class pairs against every method name the
scanned tree actually invokes.
"""

from __future__ import annotations

import ast
import inspect
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.lint.base import (
    LintContext,
    Violation,
    file_rule,
    project_rule,
    receiver_kind,
)

def _contains_guard(node: ast.AST, aliases: Set[str]) -> bool:
    """Does this expression read an ``.enabled`` flag (directly or via
    a local alias)?"""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and n.attr == "enabled":
            return True
        if isinstance(n, ast.Name) and n.id in aliases:
            return True
    return False


def _is_eager(node: ast.AST) -> Optional[str]:
    """A human word for the eager allocation in ``node``, or None."""
    for n in ast.walk(node):
        if isinstance(n, ast.JoinedStr):
            return "f-string"
        if isinstance(n, ast.Dict):
            return "dict"
        if isinstance(n, (ast.DictComp, ast.ListComp, ast.SetComp,
                          ast.GeneratorExp)):
            return "comprehension"
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "dict"):
            return "dict"
    return None


def _guard_aliases(fn: ast.AST) -> Set[str]:
    """Names assigned from expressions reading ``.enabled`` anywhere in
    this function (``observing = rec.enabled``)."""
    aliases: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and _contains_guard(node.value, set()):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
    return aliases


class _HookWalker:
    """Tracks enabled-guard state through a module and flags unguarded
    hot-path hook calls (RPR202) and eager payloads built ahead of the
    guard (RPR203), while inventorying every method invoked on a
    recorder/injector-typed receiver for the parity pass."""

    def __init__(self, path: str, ctx: LintContext):
        self.path = path
        self.ctx = ctx
        self.config = ctx.config
        self.violations: List[Violation] = []

    # -- statements -------------------------------------------------------

    def walk_module(self, tree: ast.Module) -> None:
        self.walk_stmts(tree.body, guarded=False, aliases=set())

    def walk_stmts(self, stmts, guarded: bool, aliases: Set[str]) -> None:
        # (name -> (line, eager-kind)) for the run of assignments
        # directly preceding a guard: the RPR203 window.
        pending: Dict[str, Tuple[int, str]] = {}
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.walk_stmts(stmt.body, False,
                                aliases | _guard_aliases(stmt))
                pending = {}
            elif isinstance(stmt, ast.ClassDef):
                self.walk_stmts(stmt.body, guarded, aliases)
                pending = {}
            elif isinstance(stmt, (ast.If, ast.While)):
                test_guards = _contains_guard(stmt.test, aliases)
                if isinstance(stmt, ast.If) and test_guards:
                    self._check_eager(stmt, pending, aliases)
                self.walk_expr(stmt.test, guarded, aliases)
                self.walk_stmts(stmt.body, guarded or test_guards, aliases)
                self.walk_stmts(stmt.orelse, guarded, aliases)
                pending = {}
            elif isinstance(stmt, ast.Assign):
                self.walk_expr(stmt.value, guarded, aliases)
                eager = _is_eager(stmt.value)
                if (eager is not None and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)):
                    pending[stmt.targets[0].id] = (stmt.lineno, eager)
            else:
                for field in ("body", "orelse", "finalbody"):
                    children = getattr(stmt, field, None)
                    if children:
                        self.walk_stmts(children, guarded, aliases)
                for handler in getattr(stmt, "handlers", ()):
                    self.walk_stmts(handler.body, guarded, aliases)
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self.walk_expr(child, guarded, aliases)
                pending = {}

    # -- expressions ------------------------------------------------------

    def walk_expr(self, expr: ast.AST, guarded: bool,
                  aliases: Set[str]) -> None:
        if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And):
            seen_guard = False
            for value in expr.values:
                self.walk_expr(value, guarded or seen_guard, aliases)
                if _contains_guard(value, aliases):
                    seen_guard = True
            return
        if isinstance(expr, ast.IfExp):
            test_guards = _contains_guard(expr.test, aliases)
            self.walk_expr(expr.test, guarded, aliases)
            self.walk_expr(expr.body, guarded or test_guards, aliases)
            self.walk_expr(expr.orelse, guarded, aliases)
            return
        if isinstance(expr, ast.Call):
            self._check_call(expr, guarded)
            for child in ast.iter_child_nodes(expr):
                self.walk_expr(child, guarded, aliases)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.expr, ast.keyword)):
                self.walk_expr(child, guarded, aliases)

    def _check_call(self, call: ast.Call, guarded: bool) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        kind = receiver_kind(func.value, self.config)
        if kind is None:
            return
        self.ctx.note_invocation(kind, func.attr, self.path, call.lineno)
        if func.attr in self.config.hooks_for(kind) and not guarded:
            self.violations.append(Violation(
                self.path, call.lineno, call.col_offset, "RPR202",
                f"{kind} hook .{func.attr}(...) called without an "
                ".enabled guard; the disabled path must cost one "
                "attribute check and allocate nothing",
            ))

    # -- RPR203 -----------------------------------------------------------

    def _check_eager(self, if_stmt: ast.If,
                     pending: Mapping[str, Tuple[int, str]],
                     aliases: Set[str]) -> None:
        if not pending:
            return
        used: Set[str] = set()
        for node in ast.walk(if_stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            kind = receiver_kind(func.value, self.config)
            if kind is None or func.attr not in self.config.hooks_for(kind):
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for name_node in ast.walk(arg):
                    if isinstance(name_node, ast.Name):
                        used.add(name_node.id)
        for name, (line, eager) in sorted(pending.items()):
            if name in used:
                self.violations.append(Violation(
                    self.path, line, 0, "RPR203",
                    f"{eager} {name!r} is built before the .enabled check "
                    "but only consumed by the guarded hook call; move the "
                    "construction inside the guard",
                ))


@file_rule
def check_hook_sites(tree: ast.AST, source: str, path: str,
                     ctx: LintContext) -> Iterable[Violation]:
    walker = _HookWalker(path, ctx)
    walker.walk_module(tree)
    return walker.violations


# ---------------------------------------------------------------------------
# Project pass: real/null class parity (RPR201, RPR204)
# ---------------------------------------------------------------------------


def _method(cls, name: str):
    fn = inspect.getattr_static(cls, name, None)
    if isinstance(fn, staticmethod):
        fn = fn.__func__
    return fn if inspect.isfunction(fn) else None


def _signature_problem(real_fn, null_fn) -> Optional[str]:
    """Why ``null_fn`` cannot take every call ``real_fn`` accepts, or
    None when the signatures are compatible."""
    real_params = list(inspect.signature(real_fn).parameters.values())[1:]
    null_params = list(inspect.signature(null_fn).parameters.values())[1:]
    if any(p.kind is inspect.Parameter.VAR_POSITIONAL for p in null_params) \
            and any(p.kind is inspect.Parameter.VAR_KEYWORD for p in null_params):
        return None  # *args/**kwargs catch-all
    real_named = [p for p in real_params
                  if p.kind in (inspect.Parameter.POSITIONAL_ONLY,
                                inspect.Parameter.POSITIONAL_OR_KEYWORD)]
    null_named = [p for p in null_params
                  if p.kind in (inspect.Parameter.POSITIONAL_ONLY,
                                inspect.Parameter.POSITIONAL_OR_KEYWORD)]
    real_names = [p.name for p in real_named]
    null_names = [p.name for p in null_named]
    if null_names[:len(real_names)] != real_names:
        return (f"parameters {null_names} do not match the live "
                f"signature {real_names}")
    for extra in null_named[len(real_named):]:
        if extra.default is inspect.Parameter.empty:
            return (f"extra required parameter {extra.name!r} not present "
                    "on the live signature")
    for real_p, null_p in zip(real_named, null_named):
        if (real_p.default is not inspect.Parameter.empty
                and null_p.default is inspect.Parameter.empty):
            return (f"parameter {null_p.name!r} lost its default; calls "
                    "relying on it would crash on the null object")
    return None


def check_null_parity(real_cls, null_cls,
                      invoked: Mapping[str, Tuple[str, int]],
                      anchor_path: str = "") -> List[Violation]:
    """Violations for every parity gap between a live class and its
    null stand-in.  ``invoked`` maps method names to the call site that
    demands them (from the AST inventory); methods defined on *both*
    classes are checked for signature drift even when never invoked."""
    out: List[Violation] = []
    if not anchor_path:
        anchor_path = inspect.getsourcefile(null_cls) or "<unknown>"
    try:
        anchor_line = inspect.getsourcelines(null_cls)[1]
    except (OSError, TypeError):
        anchor_line = 1

    names: Set[str] = set(invoked)
    for name in vars(real_cls):
        if not name.startswith("_") and _method(real_cls, name) is not None \
                and _method(null_cls, name) is not None:
            names.add(name)

    for name in sorted(names):
        if name.startswith("_"):
            continue
        real_fn = _method(real_cls, name)
        if real_fn is None:
            continue  # property/attribute or not defined on the live class
        null_fn = _method(null_cls, name)
        if null_fn is None:
            site = invoked.get(name)
            where = f" (invoked at {site[0]}:{site[1]})" if site else ""
            out.append(Violation(
                anchor_path, anchor_line, 0, "RPR201",
                f"{null_cls.__name__} lacks a no-op for "
                f"{real_cls.__name__}.{name}(){where}; a disabled run "
                "would crash with AttributeError",
            ))
            continue
        problem = _signature_problem(real_fn, null_fn)
        if problem is not None:
            out.append(Violation(
                anchor_path, anchor_line, 0, "RPR204",
                f"{null_cls.__name__}.{name} signature drifted from "
                f"{real_cls.__name__}.{name}: {problem}",
            ))
    return out


@project_rule
def check_project_parity(ctx: LintContext) -> Iterable[Violation]:
    from repro.faults.injector import FaultInjector, NullInjector
    from repro.obs.metrics import MetricsSampler, NullSampler
    from repro.obs.recorder import NullRecorder, Recorder

    out: List[Violation] = []
    out.extend(check_null_parity(Recorder, NullRecorder,
                                 ctx.invoked["recorder"]))
    out.extend(check_null_parity(FaultInjector, NullInjector,
                                 ctx.invoked["injector"]))
    out.extend(check_null_parity(MetricsSampler, NullSampler,
                                 ctx.invoked["sampler"]))
    return out
