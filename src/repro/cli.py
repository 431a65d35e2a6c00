"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro list                 # what can be run
    python -m repro table1               # one experiment
    python -m repro fig9 --window 150000
    python -m repro envelope             # closed-form arithmetic
    python -m repro plan 100 100 1000    # resource model for port speeds (Mbps)
    python -m repro profile router --format chrome   # chrome://tracing export
    python -m repro monitor router       # health watchdog; exit 1 on red
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List


def _positive(text: str) -> int:
    """argparse type of a count or cycle window: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _print_table(title: str, rows: List[tuple]) -> None:
    print(f"\n== {title} ==")
    width = max((len(str(r[0])) for r in rows), default=10) + 2
    for name, value in rows:
        print(f"{name:<{width}} {value}")


def cmd_table1(args) -> None:
    from repro.analysis.report import TABLE1_PAPER
    from repro.ixp.workbench import table1_rows

    rows = table1_rows(window=args.window)
    _print_table(
        "Table 1: queueing disciplines (Mpps, paper in parens)",
        [(name, f"{mpps:5.2f}  ({TABLE1_PAPER[name.split()[0]]})") for name, mpps in rows.items()],
    )


def cmd_fig7(args) -> None:
    from repro.ixp.workbench import figure7_series

    inputs, outputs = figure7_series(window=args.window)
    _print_table("Figure 7: input stage (Mpps)", [(f"{n} contexts", f"{v:.2f}") for n, v in inputs.items()])
    _print_table("Figure 7: output stage (Mpps)", [(f"{n} contexts", f"{v:.2f}") for n, v in outputs.items()])


def cmd_fig9(args) -> None:
    from repro.ixp.workbench import figure9_series

    series = figure9_series(window=args.window)
    for flavour, points in series.items():
        _print_table(f"Figure 9: {flavour} (Mpps)", [(f"{b} blocks", f"{v:.2f}") for b, v in points.items()])


def cmd_fig10(args) -> None:
    from repro.ixp.workbench import figure10_series

    series = figure10_series(window=args.window)
    _print_table(
        "Figure 10: per-packet time (us): free / contended",
        [(f"{b} blocks", f"{free:.3f} / {jam:.3f}") for b, (free, jam) in series.items()],
    )


def cmd_table4(args) -> None:
    from repro.hosts.harness import measure_pentium_path

    for size in (64, 1500):
        m = measure_pentium_path(size, window=args.window * (3 if size == 1500 else 1))
        spare = m.pentium_spare_cycles
        _print_table(f"Table 4 ({size}-byte packets)", [
            ("rate (Kpps)", f"{m.rate_pps/1e3:.1f}"),
            ("Pentium spare cycles", "n/a" if spare is None else f"{spare:.0f}"),
            ("StrongARM spare cycles", f"{m.strongarm_spare_cycles:.0f}"),
        ])


def cmd_paths(args) -> None:
    from repro.hosts.harness import measure_pentium_path, measure_strongarm_path
    from repro.ixp.workbench import measure_system_rate

    _print_table("Switching paths", [
        ("A: MicroEngines (Mpps)", f"{measure_system_rate(window=args.window).output_pps/1e6:.2f}"),
        ("B: StrongARM (Kpps)", f"{measure_strongarm_path(window=args.window)/1e3:.0f}"),
        ("C: Pentium (Kpps)", f"{measure_pentium_path(64, window=args.window).rate_pps/1e3:.0f}"),
    ])


def cmd_robustness(args) -> None:
    from repro.analysis import run_vrp_pentium_share

    rows = []
    for every in (8, 4, 3, 2):
        r = run_vrp_pentium_share(every, window=args.window)
        rows.append((
            f"share 1/{every}",
            f"pentium={r.pentium_processed_pps/1e3:.0f}K lossless={r.lossless}",
        ))
    _print_table("Robustness: Pentium share of 1.128 Mpps (paper max: 310K)", rows)


def cmd_envelope(args) -> None:
    from repro.analysis import paper_envelope
    from repro.analysis.envelope import dram_bandwidth_check

    env = paper_envelope()
    _print_table("Closed-form envelope", [
        ("register cycles/packet", env.register_cycles_per_packet),
        ("memory delay cycles/packet", env.memory_delay_cycles_per_packet),
        ("optimistic bound (Mpps)", f"{env.optimistic_bound_pps/1e6:.2f}"),
        ("efficiency at 3.47 Mpps", f"{env.efficiency:.0%}"),
        ("packets in parallel", f"{env.packets_in_parallel:.1f}"),
        ("aggregate Gbps (64B)", f"{env.aggregate_gbps_min_packets:.2f}"),
    ])
    _print_table("Bandwidth sanity (section 2.2)", list(dram_bandwidth_check().items()))


def cmd_report(args) -> None:
    from repro.analysis.report import generate_report

    print(generate_report(quick=not args.full))


def cmd_profile(args) -> None:
    from repro.obs.profile import profile_scenario

    result = profile_scenario(args.scenario, window=args.window)
    print(result.table())
    fmt = getattr(args, "format", "json") or "json"
    suffix = {"json": "json", "csv": "csv", "chrome": "chrome.json"}[fmt]
    out = args.trace_out or f"repro-trace-{args.scenario}.{suffix}"
    if fmt == "csv":
        payload = result.to_csv()
    elif fmt == "chrome":
        payload = result.to_chrome(indent=None)
    else:
        payload = result.to_json(include_trace=True, indent=2)
    with open(out, "w") as fh:
        fh.write(payload)
    print(f"trace written to {out} ({fmt})")
    if args.json:
        print(result.to_json(include_trace=False, indent=2))


def _canonical(doc) -> str:
    from repro.obs import export

    return export.dumps(doc, indent=2, sort_keys=True)


def _gate(args, runs, document=None, lines=None, files=()) -> int:
    """The one output path of the invariant-gated runners (README,
    "Runner contract").  ``--json`` prints ``document`` -- by default
    the list of run artifacts -- as exactly one sorted-key JSON document
    and nothing else; otherwise ``lines`` (by default every run's
    table), a line per written file and one summary line.
    ``--artifact-out`` gets ``document``, ``--incidents-out`` the
    incident log, and ``files`` pairs other file flags with payloads.
    Returns the worst exit code."""
    if document is None:
        document = [r.artifact() for r in runs]
    if lines is None:
        lines = [line for r in runs for line in (*r.table(), "")]
    say = (lambda text: None) if args.json else print
    if args.json:
        print(_canonical(document))
    for line in lines:
        say(line)
    if getattr(args, "artifact_out", None):
        files = [(args.artifact_out, _canonical(document)), *files]
    if getattr(args, "incidents_out", None):
        files = [(args.incidents_out, runs[0].incident_log_json() if len(runs) == 1
                  else _canonical(document)), *files]
    for path, payload in files:
        if path:
            with open(path, "w") as fh:
                fh.write(payload + "\n")
            say(f"wrote {path}")
    failed = [f"{r.label} ({', '.join(r.violations)})" for r in runs if not r.ok]
    say(f"INVARIANT VIOLATIONS in: {', '.join(failed)}" if failed
        else f"all invariants held across {len(runs)} run(s)")
    return max((r.exit_code() for r in runs), default=0)


def cmd_monitor(args) -> int:
    from repro.obs.monitor import monitor_scenario

    def narrate(results) -> None:
        worst = max(results, key=lambda r: ("green", "yellow", "red").index(r.level))
        print(f"  [{worst.level.upper():<6}] "
              + "  ".join(f"{r.rule}={r.level}" for r in results))

    result = monitor_scenario(
        args.scenario,
        window=args.window,
        warmup=args.warmup,
        period=args.period,
        on_evaluate=None if args.quiet or args.json else narrate,
    )
    return _gate(args, [result], document=result.artifact(),
                 lines=[result.monitor.health_table()])


def cmd_faults(args) -> int:
    from repro.faults.campaign import run_campaign

    return _gate(args, run_campaign(args.scenario, seed=args.seed,
                                    window=args.window, warmup=args.warmup))


def cmd_topo(args) -> int:
    from repro.topo.scenarios import run_topo

    return _gate(args, run_topo(args.scenario, seed=args.seed,
                                window=args.window, warmup=args.warmup))


def cmd_netview(args) -> int:
    from repro.obs import export
    from repro.topo.netview import run_netview

    views = run_netview(args.scenario, seed=args.seed, window=args.window,
                        warmup=args.warmup, top=args.top)
    files = [(args.chrome_out or f"netview-{v.scenario}.chrome.json",
              export.dumps(v.chrome(), sort_keys=True))
             for v in views if args.chrome or args.chrome_out]
    return _gate(args, views, files=files)


def cmd_chaos(args) -> int:
    from repro.chaos import (run_campaign, schedule_from_json,
                             schedule_to_json)
    from repro.chaos.campaign import replay_schedule
    from repro.control.channel import DEFAULT_MAX_ATTEMPTS

    if args.max_attempts is None:
        args.max_attempts = DEFAULT_MAX_ATTEMPTS
    if args.replay:
        with open(args.replay) as fh:
            schedule = schedule_from_json(fh.read())
        result = replay_schedule(schedule, seed=args.seed,
                                 window=args.window, warmup=args.warmup,
                                 ctrl_max_attempts=args.max_attempts)
        verdict = "recovered" if result.ok else "violated"
        return _gate(args, [result], document=result.artifact(), lines=[
            *(f"replaying: {spec.describe()}" for spec in schedule),
            f"replay of {args.replay} (seed {args.seed}): {verdict}"])

    campaign = run_campaign(args.seed, args.trials, window=args.window,
                            warmup=args.warmup, shrink=args.shrink,
                            ctrl_max_attempts=args.max_attempts)
    first = sorted(campaign.minimal.items())[:1]  # the first minimal schedule, if any
    return _gate(args, campaign.results, document=campaign.artifact(),
                 lines=campaign.table(),
                 files=[(args.minimal_out, schedule_to_json(s)) for _, s in first])


def cmd_workloads(args) -> int:
    from repro.workloads import run_workloads

    result = run_workloads(
        prefixes=args.prefixes,
        probes=args.probes,
        seed=args.seed,
        backends=None if args.backend == "both" else (args.backend,),
        zipf_s=args.zipf_s,
        cache_bits=args.cache_bits,
        sample=args.sample,
    )
    return _gate(args, [result], document=result.artifact(), lines=result.table())


def cmd_lint(args) -> int:
    from repro.lint import run_lint

    return run_lint(
        args.paths,
        json_out=args.json,
        baseline_path=args.baseline,
        write_baseline_path=args.write_baseline,
        show_rules=args.rules,
    )


def cmd_plan(args) -> None:
    from repro.core.resource_model import plan
    from repro.net.mac import PortSpeed

    speeds = []
    for mbps in args.speeds:
        if mbps == 100:
            speeds.append(PortSpeed.MBPS_100)
        elif mbps == 1000:
            speeds.append(PortSpeed.GBPS_1)
        else:
            raise SystemExit(f"unsupported port speed {mbps} Mbps (100 or 1000)")
    partition = plan(speeds, headroom=args.headroom)
    print(partition.summary())
    for port in range(len(speeds)):
        contexts = partition.contexts_for_port(port)
        print(f"  port {port} ({args.speeds[port]} Mbps): contexts {contexts}")


def _runner(sub, name: str, help: str, scenarios=None, *, seed: bool = True,
            window=None, warmup=None, incidents: bool = False):
    """The subparser of one invariant-gated runner, declaring the flags
    they share (README, "Runner contract").  ``scenarios`` is the
    ``(choices, help)`` of a positional scenario argument."""
    p = sub.add_parser(name, help=help)
    if scenarios is not None:
        p.add_argument("scenario", choices=scenarios[0], help=scenarios[1])
    if seed:
        p.add_argument("--seed", type=int, default=0,
                       help="run seed (default 0); every output is "
                       "byte-identical per seed")
    if window is not None:
        p.add_argument("--window", type=_positive, default=window,
                       help="measurement window in cycles (default %(default)s)")
    if warmup is not None:
        p.add_argument("--warmup", type=int, default=warmup,
                       help="warmup cycles before the window (default %(default)s)")
    p.add_argument("--json", action="store_true",
                   help="print the artifact as one sorted-key JSON document "
                   "and nothing else")
    if incidents:
        p.add_argument("--incidents-out", default=None,
                       help="write the canonical incident log to this path")
    return p


COMMANDS: Dict[str, Callable] = {
    "table1": cmd_table1,
    "fig7": cmd_fig7,
    "fig9": cmd_fig9,
    "fig10": cmd_fig10,
    "table4": cmd_table4,
    "paths": cmd_paths,
    "robustness": cmd_robustness,
    "envelope": cmd_envelope,
    "plan": cmd_plan,
    "report": cmd_report,
    "profile": cmd_profile,
    "monitor": cmd_monitor,
    "faults": cmd_faults,
    "topo": cmd_topo,
    "netview": cmd_netview,
    "chaos": cmd_chaos,
    "workloads": cmd_workloads,
    "lint": cmd_lint,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Building a Robust Software-Based "
        "Router Using Network Processors' (SOSP 2001).",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    for name in ("table1", "fig7", "fig9", "fig10", "table4", "paths", "robustness", "envelope"):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--window", type=_positive, default=150_000,
                       help="measurement window in cycles (default 150000)")
    plan_parser = sub.add_parser("plan", help="resource model for a port configuration")
    plan_parser.add_argument("speeds", nargs="+", type=int, help="port speeds in Mbps (100 or 1000)")
    plan_parser.add_argument("--headroom", type=float, default=1.0)
    report_parser = sub.add_parser("report", help="full paper-vs-measured markdown report")
    report_parser.add_argument("--full", action="store_true", help="benchmark-fidelity windows")
    profile_parser = sub.add_parser(
        "profile", help="per-stage cycle accounting + packet trace for a scenario"
    )
    profile_parser.add_argument("scenario",
                                choices=("fastpath", "vrp", "router", "overload"),
                                help="which demo scenario to instrument")
    profile_parser.add_argument("--window", type=_positive, default=120_000,
                                help="measurement window in cycles (default 120000)")
    profile_parser.add_argument("--trace-out", default=None,
                                help="trace output path (default repro-trace-<scenario>.<ext>)")
    profile_parser.add_argument("--format", choices=("json", "csv", "chrome"),
                                default="json",
                                help="trace export format: full JSON, CSV spans, or "
                                "Chrome traceEvents for chrome://tracing (default json)")
    profile_parser.add_argument("--json", action="store_true",
                                help="also print the profile (without trace) as JSON")
    monitor_parser = _runner(
        sub, "monitor", "run the health watchdog over a scenario; exits "
        "non-zero when any rule is red",
        (("fastpath", "vrp", "router", "overload"),
         "which scenario to monitor (overload is deliberately unhealthy)"),
        seed=False, window=120_000, warmup=20_000, incidents=True)
    monitor_parser.add_argument("--period", type=_positive, default=10_000,
                                help="cycles between rule evaluations (default 10000)")
    monitor_parser.add_argument("--quiet", action="store_true",
                                help="suppress per-evaluation status lines")
    _runner(sub, "faults", "run a deterministic fault-injection campaign; "
            "exits non-zero when any robustness invariant breaks",
            (("pentium-crash", "strongarm-crash", "vrp-overrun", "link-flap",
              "memory-stress", "i2o-storm", "all"),
             "which fault scenario to replay (or all of them)"),
            window=150_000, warmup=20_000, incidents=True)
    network = ("link-failure", "route-churn", "congestion-collapse", "all")
    _runner(sub, "topo", "run a multi-router network scenario; exits non-zero "
            "when any network invariant breaks",
            (network, "which network scenario to run (or all of them)"),
            window=240_000, warmup=20_000, incidents=True)
    netview_parser = _runner(
        sub, "netview", "rerun a topo scenario with network-wide tracing "
        "+ time-series metrics and render the network health report; "
        "exits non-zero when the scenario or observability gate breaks",
        (network, "which network scenario to observe (or all of them)"),
        window=240_000, warmup=20_000)
    netview_parser.add_argument("--top", type=int, default=5,
                                help="top-N congested links / slowest flows "
                                "(default 5)")
    netview_parser.add_argument("--chrome", action="store_true",
                                help="write the merged multi-process Chrome "
                                "trace (netview-<scenario>.chrome.json)")
    netview_parser.add_argument("--chrome-out", default=None,
                                help="chrome trace output path (single scenario)")
    chaos_parser = _runner(
        sub, "chaos", "run seeded randomized fault schedules against the "
        "scenario ring; exits non-zero when any trial violates a recovery "
        "invariant",
        window=90_000, warmup=10_000)
    chaos_parser.add_argument("--trials", type=_positive, default=10,
                              help="generated fault schedules to run "
                              "(default 10)")
    chaos_parser.add_argument("--shrink", action="store_true",
                              help="delta-debug each violating schedule to "
                              "a minimal reproducing fault set")
    chaos_parser.add_argument("--max-attempts", type=_positive, default=None,
                              help="per-LSA retransmit budget (default: the "
                              "channel's; lower to 1 to plant a fragile "
                              "control plane for shrinker demos)")
    chaos_parser.add_argument("--artifact-out", default=None, metavar="FILE",
                              help="write the campaign (or replayed trial) "
                              "artifact JSON to FILE")
    chaos_parser.add_argument("--minimal-out", default=None, metavar="FILE",
                              help="write the first minimal schedule (when "
                              "--shrink found one) to FILE, replayable via "
                              "--replay")
    chaos_parser.add_argument("--replay", default=None, metavar="FILE",
                              help="replay a serialized schedule instead of "
                              "generating trials")
    workloads_parser = _runner(
        sub, "workloads", "build BGP-shaped tables, replay internet-shaped "
        "probe streams and verify lookup invariants; exits non-zero when "
        "any invariant breaks")
    workloads_parser.add_argument("--prefixes", type=_positive, default=100_000,
                                  help="routing-table size (default 100000)")
    workloads_parser.add_argument("--probes", type=_positive, default=100_000,
                                  help="Zipf probe count (default 100000)")
    workloads_parser.add_argument("--backend",
                                  choices=("cpe", "bidirectional", "both"),
                                  default="both",
                                  help="lookup backend(s) to exercise (default both)")
    workloads_parser.add_argument("--zipf-s", type=float, default=1.1,
                                  help="Zipf popularity exponent (default 1.1)")
    workloads_parser.add_argument("--cache-bits", type=int, default=10,
                                  help="route-cache size in bits (default 10)")
    workloads_parser.add_argument("--sample", type=int, default=2_000,
                                  help="trie-vs-reference agreement sample "
                                  "size (default 2000)")
    lint_parser = sub.add_parser(
        "lint", help="determinism & invariant static analysis; exits "
        "non-zero on any non-baselined violation"
    )
    lint_parser.add_argument("paths", nargs="*", default=[],
                             help="files/directories to lint (default: src/)")
    lint_parser.add_argument("--json", action="store_true",
                             help="emit the report as JSON (machine-readable)")
    lint_parser.add_argument("--baseline", default=None, metavar="FILE",
                             help="subtract grandfathered violations recorded "
                             "in FILE (see lint-baseline.json)")
    lint_parser.add_argument("--write-baseline", default=None, metavar="FILE",
                             help="record the current violations as the new "
                             "baseline and exit 0")
    lint_parser.add_argument("--rules", action="store_true",
                             help="print the rule-code table and exit")

    args = parser.parse_args(argv)
    if args.command == "netview" and args.chrome_out and args.scenario == "all":
        netview_parser.error("--chrome-out names one file; pick one scenario "
                             "or use --chrome")
    if args.command in (None, "list"):
        from repro.obs.profile import SCENARIO_DESCRIPTIONS

        print("experiments:", ", ".join(COMMANDS))
        print("profile/monitor scenarios:")
        for name, description in SCENARIO_DESCRIPTIONS.items():
            print(f"  {name:<10} {description}")
        from repro.faults.campaign import SCENARIOS

        print("fault scenarios (python -m repro faults <name> --seed N):")
        for name in [*SCENARIOS, "all"]:
            print(f"  {name}")
        from repro.topo.scenarios import SCENARIOS as TOPO_SCENARIOS

        print("topo scenarios (python -m repro topo <name> --seed N):")
        for name in [*TOPO_SCENARIOS, "all"]:
            print(f"  {name}")
        print("netview (python -m repro netview <name> --seed N): the same "
              "scenarios with network-wide tracing + time-series metrics")
        print("chaos (python -m repro chaos --seed N --trials K [--shrink]): "
              "seeded randomized fault schedules with delta-debugged "
              "minimal repros")
        from repro.net.routing import LOOKUP_BACKENDS

        print("lookup backends (python -m repro workloads --backend <name>):")
        for name in [*LOOKUP_BACKENDS, "both"]:
            print(f"  {name}")
        return 0
    rc = COMMANDS[args.command](args)
    return int(rc or 0)


if __name__ == "__main__":
    sys.exit(main())
