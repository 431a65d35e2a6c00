"""``repro lint``: determinism & invariant static analysis.

The simulator's robustness claims rest on invariants that used to be
enforced only dynamically -- byte-identical runs per seed (golden
hashes), zero-cost-when-disabled hooks (overhead benches), canonical
incident logs.  This package enforces them *statically*, as an
AST-based lint pass with three rule families:

* **RPR1xx determinism** -- no module-level ``random.*``, no wall-clock
  or entropy reads, no ``id()`` ordering, no non-canonical JSON;
* **RPR2xx null-object parity** -- every hook method has a
  signature-compatible no-op on ``NullRecorder``/``NullInjector``, and
  hot-path hook calls sit behind ``.enabled`` guards with no eager
  payload construction;
* **RPR3xx trace registry** -- every event/component literal at a
  ``record(...)`` call site and every monitor rule name resolves
  against :mod:`repro.obs.events`.

Run it with ``python -m repro lint [--json] [--baseline
lint-baseline.json] [paths...]``; rules and suppression syntax are
documented in ``docs/static-analysis.md``.
"""

from repro.lint.base import (
    RULES,
    LintConfig,
    LintContext,
    Violation,
    apply_suppressions,
    parse_suppressions,
)
from repro.lint.baseline import (
    apply_baseline,
    load_baseline,
    render_baseline,
    write_baseline,
)
from repro.lint.cli import run_lint
from repro.lint.parity import check_null_parity
from repro.lint.runner import iter_python_files, lint_paths, lint_source

__all__ = [
    "RULES",
    "LintConfig",
    "LintContext",
    "Violation",
    "apply_baseline",
    "apply_suppressions",
    "check_null_parity",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "parse_suppressions",
    "render_baseline",
    "run_lint",
    "write_baseline",
]
