"""``repro lint``: the static-analysis pass that guards the simulator's
determinism and null-object invariants.

Contract under test (docs/static-analysis.md):

* each rule code fires on a minimal bad snippet, at the right line,
  and stays quiet on the idiomatic clean spelling;
* suppressions (line ``disable=`` and file ``file-disable=``) and the
  baseline ratchet behave as documented;
* the repository's own ``src/`` tree lints clean -- the self-check that
  keeps the committed ``lint-baseline.json`` empty.
"""

import gc
import json
import os
from pathlib import Path
from textwrap import dedent

from repro.lint import (
    RULES,
    LintContext,
    apply_baseline,
    check_null_parity,
    lint_paths,
    lint_source,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.lint.cli import rule_table
from repro.obs import events

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: A path that hits none of the config exemptions.
PLAIN = "src/repro/sample.py"


def one(source, path=PLAIN):
    """Lint a snippet and return its single violation."""
    violations = lint_source(dedent(source), path)
    assert len(violations) == 1, violations
    return violations[0]


def clean(source, path=PLAIN):
    violations = lint_source(dedent(source), path)
    assert violations == [], violations


# ---------------------------------------------------------------------------
# RPR001: syntax errors surface as violations, not crashes
# ---------------------------------------------------------------------------


def test_syntax_error_is_a_violation():
    v = one("def broken(:\n    pass\n")
    assert v.code == "RPR001"
    assert v.line == 1


# ---------------------------------------------------------------------------
# RPR1xx determinism
# ---------------------------------------------------------------------------


def test_rpr101_module_level_random_call():
    v = one("""\
        import random

        def jitter():
            return random.choice([1, 2, 3])
        """)
    assert v.code == "RPR101"
    assert v.line == 4


def test_rpr101_from_random_import():
    v = one("from random import randint\n")
    assert (v.code, v.line) == ("RPR101", 1)


def test_rpr101_clean_seeded_instance():
    clean("""\
        import random
        from random import Random

        rng = random.Random(7)
        other = Random(11)
        value = rng.randint(0, 3)
        """)


def test_rpr102_wall_clock_call():
    v = one("""\
        import time

        def stamp():
            return time.perf_counter()
        """)
    assert (v.code, v.line) == ("RPR102", 4)


def test_rpr102_entropy_import():
    v = one("from uuid import uuid4\n")
    assert (v.code, v.line) == ("RPR102", 1)


def test_rpr102_covers_the_cli_layer():
    v = one("""\
        import time

        def elapsed():
            return time.perf_counter()
        """, path="src/repro/cli.py")
    assert (v.code, v.line) == ("RPR102", 4)


def test_rpr103_id_as_sort_key():
    v = one("def order(xs):\n    return sorted(xs, key=id)\n")
    assert (v.code, v.line) == ("RPR103", 2)


def test_rpr103_id_in_sort_method_lambda():
    v = one("def order(xs):\n    xs.sort(key=lambda o: id(o))\n")
    assert (v.code, v.line) == ("RPR103", 2)


def test_rpr103_id_as_dict_key():
    v = one("def index(x):\n    return {id(x): x}\n")
    assert (v.code, v.line) == ("RPR103", 2)


def test_rpr103_clean_stable_key():
    clean("""\
        def order(xs):
            xs.sort(key=lambda o: o.packet_id)
            return {x.packet_id: x for x in xs}
        """)


def test_rpr104_json_dumps_without_sort_keys():
    v = one("import json\n\npayload = json.dumps([1, 2])\n")
    assert (v.code, v.line) == ("RPR104", 3)


def test_rpr104_clean_and_kwargs_forwarding():
    clean("""\
        import json

        def render(doc, **kw):
            canonical = json.dumps(doc, sort_keys=True)
            forwarded = json.dumps(doc, **kw)
            return canonical, forwarded
        """)


def test_rpr104_export_dumps_without_sort_keys():
    """``export.dumps`` forwards ``**kwargs`` to ``json.dumps``, so its
    callers are the ones that must ask for canonical output."""
    v = one("from repro.obs import export\n\n"
            "payload = export.dumps({'b': 1, 'a': 2}, indent=2)\n")
    assert (v.code, v.line) == ("RPR104", 3)


def test_rpr104_clean_export_dumps():
    clean("""\
        from repro.obs import export

        def render(doc):
            return export.dumps(doc, indent=2, sort_keys=True)
        """)


# ---------------------------------------------------------------------------
# RPR2xx null-object parity
# ---------------------------------------------------------------------------


def test_rpr202_unguarded_hook_call():
    v = one("""\
        def rx(rec, pkt):
            rec.record(0, "sim", "mac_in", 1, None)
        """)
    assert (v.code, v.line) == ("RPR202", 2)


def test_rpr202_guarded_forms_are_clean():
    clean("""\
        def direct(rec, sim, pkt):
            if rec.enabled:
                rec.record(sim.now, "sim", "mac_in", 1, None)

        def aliased(rec, sim, pkt):
            observing = rec.enabled
            if observing:
                rec.account("pentium", "busy", 4.0)

        def short_circuit(inj, pair):
            return inj.enabled and inj.on_i2o_send(pair)
        """)


def test_rpr203_eager_payload_before_guard():
    v = one("""\
        def rx(rec, pkt):
            detail = {"len": pkt.length}
            if rec.enabled:
                rec.record(0, "sim", "mac_in", 1, detail)
        """)
    assert (v.code, v.line) == ("RPR203", 2)
    assert "detail" in v.message


def test_rpr203_construction_inside_guard_is_clean():
    clean("""\
        def rx(rec, pkt):
            if rec.enabled:
                detail = {"len": pkt.length}
                rec.record(0, "sim", "mac_in", 1, detail)
        """)


class _Live:
    enabled = True

    def record(self, kind, detail, severity="yellow"):
        return {"kind": kind}

    def count(self, kind, n=1):
        pass

    def snapshot(self):
        return {}


class _NullMissing:
    enabled = False

    def record(self, kind, detail, severity="yellow"):
        return {}


class _NullDrifted:
    enabled = False

    def record(self, kind, detail):  # lost ``severity``
        return {}

    def count(self, kind, n):  # lost the default on ``n``
        pass

    def snapshot(self):
        return {}


class _NullCatchAll:
    enabled = False

    def record(self, *args, **kwargs):
        return {}

    def count(self, *args, **kwargs):
        pass

    def snapshot(self):
        return {}


def test_rpr201_missing_null_method_cites_call_site():
    out = check_null_parity(_Live, _NullMissing,
                            {"count": ("src/repro/x.py", 42)})
    assert [v.code for v in out] == ["RPR201"]
    assert "count" in out[0].message
    assert "src/repro/x.py:42" in out[0].message


def test_rpr204_signature_drift():
    out = check_null_parity(_Live, _NullDrifted, {})
    assert [v.code for v in out] == ["RPR204", "RPR204"]
    messages = " / ".join(v.message for v in out)
    assert "severity" in messages and "default" in messages


def test_parity_accepts_catch_all_and_real_classes():
    assert check_null_parity(_Live, _NullCatchAll, {"count": ("x.py", 1)}) == []

    from repro.faults.injector import FaultInjector, NullInjector
    from repro.obs.metrics import MetricsSampler, NullSampler
    from repro.obs.recorder import NullRecorder, Recorder
    assert check_null_parity(Recorder, NullRecorder, {}) == []
    assert check_null_parity(FaultInjector, NullInjector, {}) == []
    assert check_null_parity(MetricsSampler, NullSampler, {}) == []


# ---------------------------------------------------------------------------
# RPR3xx trace/schema registry
# ---------------------------------------------------------------------------


def test_rpr301_unregistered_event():
    v = one("""\
        def rx(rec, pkt):
            if rec.enabled:
                rec.record(0, "sim", "warp_drive", 1, None)
        """)
    assert (v.code, v.line) == ("RPR301", 3)
    assert "warp_drive" in v.message


def test_rpr302_unregistered_component():
    v = one("""\
        def rx(rec, pkt):
            if rec.enabled:
                rec.record(0, "flux_capacitor", "mac_in", 1, None)
        """)
    assert (v.code, v.line) == ("RPR302", 3)


def test_rpr301_302_clean_registered_literals():
    clean("""\
        def rx(rec, sim, pkt, ok):
            if rec.enabled:
                rec.record(sim.now, "me0.ctx1", "mac_in" if ok else "drop",
                           1, None)
        """)


def test_rpr303_hardcoded_stage_list():
    v = one('STAGES = ("mac_in", "classify", "enqueue", "mac_out")\n')
    assert (v.code, v.line) == ("RPR303", 1)


def test_rpr303_registry_import_is_clean():
    clean("""\
        from repro.obs.events import LIFECYCLE_EVENTS

        STAGES = LIFECYCLE_EVENTS
        MIXED = ("mac_in", "not_an_event", "drop")
        SHORT = ("mac_in", "drop")
        """)


def test_rpr304_unregistered_monitor_rule():
    from repro.lint.tracenames import check_monitor_rules
    from repro.obs import monitor

    rogue = type("RogueRule", (monitor.Rule,), {"name": "warp-budget"})
    rogue.__module__ = monitor.__name__
    try:
        out = [v for v in check_monitor_rules(LintContext())
               if v.code == "RPR304"]
        assert len(out) == 1
        assert "warp-budget" in out[0].message
    finally:
        del rogue
        gc.collect()  # drop the fixture subclass from Rule.__subclasses__


def test_rpr305_unregistered_literal():
    v = one("""\
        def probe(sampler, cycle):
            if sampler.enabled:
                sampler.sample("net.warp_factor", cycle, 1.0)
        """)
    assert (v.code, v.line) == ("RPR305", 3)
    assert "net.warp_factor" in v.message


def test_rpr305_unregistered_fstring_template():
    v = one("""\
        def probe(sampler, link, cycle):
            if sampler.enabled:
                sampler.sample(f"link.{link.name}.wobble", cycle, 1.0)
        """)
    assert (v.code, v.line) == ("RPR305", 3)
    assert "link.x.wobble" in v.message


def test_rpr305_split_prefix_template_fails():
    """A template whose placeholder could straddle a ``.`` boundary
    (``f"{prefix}.occupancy"``) cannot be resolved: the collapsed form
    ``x.occupancy`` matches no family, so the lint forces probe authors
    to spell the family prefix inline."""
    v = one("""\
        def probe(sampler, prefix, cycle):
            if sampler.enabled:
                sampler.sample(f"{prefix}.occupancy", cycle, 1.0)
        """)
    assert (v.code, v.line) == ("RPR305", 3)


def test_rpr305_clean_registered_names():
    clean("""\
        def probe(sampler, recorder, link, node, me, cycle):
            if sampler.enabled:
                sampler.sample("net.links_down", cycle, 1.0)
                sampler.sample(f"link.{link.name}.occupancy", cycle, 0.5)
                sampler.sample(f"router.{node.name}.queue_depth", cycle, 0.25)
            if recorder.enabled:
                recorder.metrics.sample(f"me{me.me_id}.utilization", cycle, 0.5)
                recorder.metrics.sample("dram.utilization", cycle, 0.5)
                recorder.metrics.sample("pentium.utilization", cycle, 0.5)
                recorder.metrics.sample(f"queue{me.me_id}.depth", cycle, 3)
        """)


def test_rpr305_fires_via_metrics_attr_receiver():
    v = one("""\
        def poke(topo, cycle):
            if topo.metrics.enabled:
                topo.metrics.sample("bogus.series", cycle, 1.0)
        """)
    assert v.code == "RPR305"


def test_rpr305_checks_recorder_sample_series_sites():
    """The recorder's series go through its store's ``sample`` hook."""
    v = one("""\
        def step(recorder, now):
            if recorder.enabled:
                recorder.metrics.sample("drum.utilization", now, 0.5)
        """)
    assert (v.code, v.line) == ("RPR305", 3)
    assert "drum.utilization" in v.message


def test_rpr305_flags_an_unregistered_queue_depth_series():
    """Queue depths go through the one ``sample`` hook as the registered
    ``queue<id>.depth`` family, so a misspelt gauge is caught like any
    other series."""
    v = one("""\
        def dequeue(rec, queue, now):
            if rec.enabled:
                rec.metrics.sample(f"queue{queue.queue_id}.dpth", now, 3)
        """)
    assert (v.code, v.line) == ("RPR305", 3)
    assert "queuex.dpth" in v.message


def test_rpr305_sample_series_split_prefix_template_fails():
    v = one("""\
        def step(rec, name, now):
            if rec.enabled:
                rec.metrics.sample(f"{name}.utilization", now, 0.5)
        """)
    assert (v.code, v.line) == ("RPR305", 3)
    assert "x.utilization" in v.message


def test_registry_helpers():
    assert events.is_trace_event("mac_in")
    assert not events.is_trace_event("warp_drive")
    assert events.is_component("strongarm")
    assert events.is_component("me3.ctx1") and events.is_component("queue12")
    assert events.is_metric_series("net.incidents")
    assert events.is_metric_series("link.r1-r2.occupancy")
    assert events.is_metric_series("router.r3.spf_runs")
    assert not events.is_metric_series("link.r1-r2.wobble")
    assert events.is_metric_series("me4.utilization")
    assert events.is_metric_series("sram.utilization")
    assert not events.is_metric_series("x.utilization")
    assert not events.is_metric_series("net.warp_factor")
    assert events.unregistered_metric_series(
        ["net.incidents", "bogus", "bogus", "link.a.up"]) == ["bogus"]
    assert not events.is_component("me3.ctx")  # pattern must match fully
    assert events.unregistered_events(["mac_in", "bogus"]) == ["bogus"]


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


def test_line_suppression():
    clean("""\
        import random

        def jitter():
            return random.choice([1, 2])  # repro-lint: disable=RPR101
        """)


def test_line_suppression_is_line_scoped():
    source = dedent("""\
        import random

        a = random.choice([1])  # repro-lint: disable=RPR101
        b = random.choice([2])
        """)
    violations = lint_source(source, PLAIN)
    assert [(v.code, v.line) for v in violations] == [("RPR101", 4)]


def test_file_suppression():
    clean("""\
        # repro-lint: file-disable=RPR202
        def rx(rec, pkt):
            rec.record(0, "sim", "mac_in", 1, None)
        """)


def test_suppression_does_not_hide_other_codes():
    source = dedent("""\
        import json

        def jitter(xs):
            return sorted(xs, key=id)  # repro-lint: disable=RPR104
        """)
    violations = lint_source(source, PLAIN)
    assert [v.code for v in violations] == ["RPR103"]


# ---------------------------------------------------------------------------
# Baseline ratchet
# ---------------------------------------------------------------------------

BAD_MODULE = dedent("""\
    import random

    def jitter():
        return random.choice([1, 2])
    """)


def test_baseline_round_trip(tmp_path):
    violations = lint_source(BAD_MODULE, "pkg/mod.py")
    assert [v.code for v in violations] == ["RPR101"]

    bl = tmp_path / "bl.json"
    write_baseline(violations, str(bl))
    fresh, baselined, stale = apply_baseline(violations, load_baseline(str(bl)))
    assert fresh == [] and baselined == 1 and stale == []

    # A *new* violation in the same file is not covered by the ratchet,
    # even though an RPR101 entry exists (counts are per path+code).
    worse = lint_source(BAD_MODULE + "\nextra = random.random()\n",
                        "pkg/mod.py")
    fresh, baselined, stale = apply_baseline(worse, load_baseline(str(bl)))
    assert baselined == 1
    assert [v.code for v in fresh] == ["RPR101"]


def test_baseline_reports_stale_entries(tmp_path):
    bl = tmp_path / "bl.json"
    write_baseline(lint_source(BAD_MODULE, "pkg/mod.py"), str(bl))
    fresh, baselined, stale = apply_baseline([], load_baseline(str(bl)))
    assert fresh == [] and baselined == 0
    assert stale == ["pkg/mod.py: RPR101 x1"]


# ---------------------------------------------------------------------------
# CLI front-end
# ---------------------------------------------------------------------------


def test_cli_exit_codes_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_MODULE)
    good = tmp_path / "good.py"
    good.write_text("VALUE = 1\n")

    assert run_lint([str(good)]) == 0
    capsys.readouterr()

    assert run_lint([str(bad)], json_out=True) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["checked_files"] == 1
    assert doc["counts"] == {"RPR101": 1}
    assert doc["violations"][0]["line"] == 4

    assert run_lint([str(tmp_path / "missing.py")]) == 2


def test_cli_baseline_flow(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_MODULE)
    bl = tmp_path / "bl.json"

    assert run_lint([str(bad)], write_baseline_path=str(bl)) == 0
    assert run_lint([str(bad)], baseline_path=str(bl)) == 0
    capsys.readouterr()
    assert run_lint([str(bad)], json_out=True, baseline_path=str(bl)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["baselined"] == 1


def test_rule_table_covers_every_code():
    table = rule_table()
    for code in RULES:
        assert code in table


# ---------------------------------------------------------------------------
# Self-check: the repository's own tree lints clean
# ---------------------------------------------------------------------------


def test_repo_src_is_clean():
    assert os.path.isdir(REPO_SRC)
    assert lint_paths([REPO_SRC]) == []


def test_committed_baseline_is_empty():
    baseline = Path(REPO_SRC).parent / "lint-baseline.json"
    doc = json.loads(baseline.read_text())
    assert doc == {"version": 1, "violations": []}
