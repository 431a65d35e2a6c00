"""Core lint machinery: violations, config, suppressions, rule registry.

A *file rule* is a function ``(tree, source, path, ctx) -> iterable of
Violation`` run once per parsed source file; a *project rule* is a
function ``(ctx) -> iterable of Violation`` run once per lint
invocation after every file has been scanned (introspective checks that
need the whole tree's call-site inventory, like null-object parity).

Suppressions:

* ``# repro-lint: disable=RPR101`` at the end of a line suppresses the
  listed codes (comma-separated) on that physical line;
* ``# repro-lint: file-disable=RPR202`` anywhere in a file suppresses
  the listed codes for the whole file (for modules whose discipline is
  structural -- e.g. sampler processes that only exist when
  observability is enabled).

Both forms should carry a trailing ``--`` justification; the baseline
(:mod:`repro.lint.baseline`) is the right tool for grandfathering debt,
suppressions are for deliberate, reviewed exceptions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

#: Rule-code -> one-line summary (the authoritative table is
#: ``docs/static-analysis.md``; ``python -m repro lint --rules`` prints
#: this one).
RULES: Dict[str, str] = {
    "RPR001": "source file failed to parse (syntax error)",
    "RPR101": "module-level random.* call; use a seeded random.Random instance",
    "RPR102": "wall-clock/entropy call (time, datetime.now, uuid, os.urandom)",
    "RPR103": "id() used as a sort key, dict key, or subscript index "
              "(iteration order would depend on allocation addresses)",
    "RPR104": "json.dump(s) or export.dumps without sort_keys=True (reports "
              "must serialize canonically)",
    "RPR201": "null-object parity gap: method invoked on a hook but missing "
              "from the Null implementation",
    "RPR202": "hot-path hook call not guarded by an .enabled check",
    "RPR203": "eager dict/f-string payload built before the .enabled check",
    "RPR204": "signature drift between a hook method and its Null no-op",
    "RPR301": "unregistered trace event literal passed to record(...)",
    "RPR302": "unregistered component literal passed to record(...)",
    "RPR303": "hardcoded stage list duplicating the repro.obs.events registry",
    "RPR304": "monitor rule name not registered in repro.obs.events",
    "RPR305": "series name passed to sample(...) not registered in "
              "repro.obs.events (METRIC_SERIES / METRIC_PATTERNS)",
}


@dataclass(frozen=True, order=True)
class Violation:
    """One lint finding, anchored to a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message}


class LintConfig:
    """Project conventions the rules key on.  A single shared default
    instance drives ``python -m repro lint``; tests construct their own
    to point the rules at fixture classes."""

    #: Bare names that hold a recorder / injector / metrics sampler at
    #: hook sites.
    recorder_names = frozenset({"rec", "recorder"})
    injector_names = frozenset({"inj", "injector"})
    sampler_names = frozenset({"sampler", "metrics"})
    #: Attribute names whose access yields a recorder / injector /
    #: sampler (``self.recorder``, ``router.injector``, ``topo.metrics``).
    recorder_attrs = frozenset({"recorder"})
    injector_attrs = frozenset({"injector"})
    sampler_attrs = frozenset({"metrics"})

    #: Hot-path hook methods that MUST sit behind an ``.enabled`` guard.
    #: Query methods (``utilization``, ``to_dict``, ...) are exempt: the
    #: analysis layer calls them on recorders it knows are live.
    recorder_hooks = frozenset({"record", "account", "packet_id"})
    injector_hooks = frozenset({"on_rx", "on_i2o_send", "on_control"})
    sampler_hooks = frozenset({"sample"})

    #: Path suffixes exempt from the hardcoded-stage-list rule (RPR303):
    #: the registry itself.
    registry_exempt = ("repro/obs/events.py",)

    def hooks_for(self, kind: str) -> frozenset:
        if kind == "recorder":
            return self.recorder_hooks
        if kind == "sampler":
            return self.sampler_hooks
        return self.injector_hooks


DEFAULT_CONFIG = LintConfig()


class LintContext:
    """Per-invocation state shared by file rules and project rules."""

    def __init__(self, config: Optional[LintConfig] = None):
        self.config = config or DEFAULT_CONFIG
        #: kind -> method name -> first (path, line) call site.  Filled
        #: by the parity file-pass, consumed by the project-level
        #: null-object parity check.
        self.invoked: Dict[str, Dict[str, Tuple[str, int]]] = {
            "recorder": {}, "injector": {}, "sampler": {},
        }

    def note_invocation(self, kind: str, method: str, path: str, line: int) -> None:
        self.invoked[kind].setdefault(method, (path, line))


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------

FileRule = Callable[[ast.AST, str, str, LintContext], Iterable[Violation]]
ProjectRule = Callable[[LintContext], Iterable[Violation]]

FILE_RULES: List[FileRule] = []
PROJECT_RULES: List[ProjectRule] = []


def file_rule(fn: FileRule) -> FileRule:
    FILE_RULES.append(fn)
    return fn


def project_rule(fn: ProjectRule) -> ProjectRule:
    PROJECT_RULES.append(fn)
    return fn


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

_LINE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+)")
_FILE_RE = re.compile(r"#\s*repro-lint:\s*file-disable=([A-Z0-9,\s]+)")


def _codes(blob: str) -> Set[str]:
    return {c.strip() for c in blob.split(",") if c.strip()}


def parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """``(per-line codes, file-wide codes)`` for a source text.  Line
    numbers are 1-based, matching ``ast`` locations."""
    per_line: Dict[int, Set[str]] = {}
    file_wide: Set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _FILE_RE.search(text)
        if m:
            file_wide |= _codes(m.group(1))
            continue
        m = _LINE_RE.search(text)
        if m:
            per_line.setdefault(lineno, set()).update(_codes(m.group(1)))
    return per_line, file_wide


def apply_suppressions(violations: Iterable[Violation],
                       source: str) -> List[Violation]:
    per_line, file_wide = parse_suppressions(source)
    out = []
    for v in violations:
        if v.code in file_wide:
            continue
        if v.code in per_line.get(v.line, ()):
            continue
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def receiver_kind(node: ast.AST, config: LintConfig) -> Optional[str]:
    """Classify the object a method is being called on: ``"recorder"``,
    ``"injector"``, ``"sampler"``, or None.  ``self.<hook>()`` calls
    (the classes' own internals) are deliberately not classified."""
    if isinstance(node, ast.Name):
        if node.id in config.recorder_names:
            return "recorder"
        if node.id in config.injector_names:
            return "injector"
        if node.id in config.sampler_names:
            return "sampler"
    elif isinstance(node, ast.Attribute):
        if node.attr in config.recorder_attrs:
            return "recorder"
        if node.attr in config.injector_attrs:
            return "injector"
        if node.attr in config.sampler_attrs:
            return "sampler"
    return None


def path_matches(path: str, suffixes: Tuple[str, ...]) -> bool:
    norm = path.replace("\\", "/")
    return any(norm.endswith(suffix) for suffix in suffixes)
