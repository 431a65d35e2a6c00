"""One verdict shape for the invariant-gated runners.

``repro monitor``, ``faults``, ``topo``, ``netview``, ``chaos`` and
``workloads`` each judge a run by named invariants, built with
:func:`inv`.  A run passes iff every invariant holds; :class:`Verdict`
derives ``ok``, ``violations`` and the exit code from that list once
for all six result types, and :func:`invariant_table` renders it.  The
CLI prints, writes and exits from these alone (README, "Runner
contract").
"""

from __future__ import annotations

from typing import Any, Dict, List


def inv(name: str, ok: bool, detail: str) -> Dict[str, Any]:
    """One named invariant, as every artifact serializes it."""
    return {"name": name, "ok": bool(ok), "detail": detail}


def invariant_table(invariants: List[Dict[str, Any]]) -> List[str]:
    """The markdown ``| invariant | ok | detail |`` table."""
    return ["| invariant | ok | detail |", "|---|---|---|"] + [
        f"| {i['name']} | {'PASS' if i['ok'] else 'FAIL'} | {i['detail']} |"
        for i in invariants]


class Verdict:
    """Base of every runner result: ``invariants`` decides the rest."""

    invariants: List[Dict[str, Any]]

    @property
    def label(self) -> str:
        """What the CLI summary line calls this run."""
        return self.scenario

    @property
    def ok(self) -> bool:
        return all(i["ok"] for i in self.invariants)

    @property
    def violations(self) -> List[str]:
        return [i["name"] for i in self.invariants if not i["ok"]]

    def exit_code(self) -> int:
        return 0 if self.ok else 1
