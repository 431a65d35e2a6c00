"""One-call reproduction report.

:func:`generate_report` runs the principal experiments and renders a
markdown paper-vs-measured ledger -- the programmatic version of
EXPERIMENTS.md.  ``quick=True`` uses short measurement windows (about a
minute of wall time); ``quick=False`` matches the benchmark suite's
fidelity.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.envelope import paper_envelope
from repro.analysis.robustness import run_vrp_pentium_share
from repro.hosts.harness import measure_pentium_path, measure_strongarm_path
from repro.ixp.workbench import figure9_series, measure_system_rate, table1_rows

TABLE1_PAPER = {
    "I.1": 3.75, "I.2": 3.47, "I.3": 1.67,
    "O.1": 3.78, "O.2": 3.41, "O.3": 3.29,
}


def _md_table(rows: List[Tuple[str, str, str]]) -> List[str]:
    out = ["| metric | paper | measured |", "|---|---|---|"]
    out.extend(f"| {name} | {paper} | {measured} |" for name, paper, measured in rows)
    return out


def generate_report(quick: bool = True, window: int = None) -> str:
    if window is None:
        window = 60_000 if quick else 200_000
    lines: List[str] = ["# Reproduction report", ""]

    env = paper_envelope()
    lines.append("## Closed-form envelope")
    lines.extend(_md_table([
        ("register cycles/packet", "280", str(env.register_cycles_per_packet)),
        ("optimistic bound (Mpps)", "4.29", f"{env.optimistic_bound_pps/1e6:.2f}"),
        ("aggregate Gbps at 3.47 Mpps", "1.77", f"{env.aggregate_gbps_min_packets:.2f}"),
    ]))
    lines.append("")

    lines.append("## Table 1 (Mpps)")
    rows = table1_rows(window=window)
    lines.extend(_md_table([
        (name, str(TABLE1_PAPER[name.split()[0]]), f"{mpps:.2f}")
        for name, mpps in rows.items()
    ]))
    lines.append("")

    lines.append("## Switching paths")
    path_a = measure_system_rate(window=window).output_pps
    path_b = measure_strongarm_path(window=max(window, 150_000))
    path_c = measure_pentium_path(64, window=max(window * 3, 250_000)).rate_pps
    lines.extend(_md_table([
        ("A: MicroEngines (Mpps)", "3.47", f"{path_a/1e6:.2f}"),
        ("B: StrongARM (Kpps)", "526", f"{path_b/1e3:.0f}"),
        ("C: Pentium (Kpps)", "534", f"{path_c/1e3:.0f}"),
    ]))
    lines.append("")

    lines.append("## Figure 9 anchor")
    series = figure9_series(block_counts=[0, 32], window=window)
    combo = series["10 reg + 4B SRAM"]
    lines.extend(_md_table([
        ("combo blocks @0 (Mpps)", "3.47", f"{combo[0]:.2f}"),
        ("combo blocks @32 (Mpps)", "1.0", f"{combo[32]:.2f}"),
    ]))
    lines.append("")

    lines.append("## Robustness (Pentium share of 1.128 Mpps)")
    result = run_vrp_pentium_share(3, window=max(window * 3, 250_000))
    lines.extend(_md_table([
        ("share 1/3 Pentium rate (Kpps)", "~310 max", f"{result.pentium_processed_pps/1e3:.0f}"),
        ("lossless", "yes", str(result.lossless)),
    ]))
    lines.append("")

    # One instrumented router run feeds both observability sections: the
    # watchdog verdicts and the per-stage latency decomposition.
    from repro.obs.analysis import latency_report
    from repro.obs.monitor import monitor_scenario

    monitored = monitor_scenario("router", window=max(window, 60_000),
                                 warmup=15_000)
    lines.append("## Health watchdog")
    lines.extend([
        "| rule | state | detail |",
        "|---|---|---|",
    ])
    for rule in monitored.results:
        lines.append(f"| {rule.rule} | {rule.level} | {rule.detail} |")
    lines.append(f"incidents: {len(monitored.incidents)}")
    lines.append("")

    lines.append("## Latency decomposition")
    latency = latency_report(monitored.monitor.recorder)
    lines.extend([
        "| path | packets | p50 (cycles) | p99 (cycles) | dominant stage |",
        "|---|---|---|---|---|",
    ])
    for path, block in latency["paths"].items():
        if "end_to_end" not in block:
            lines.append(f"| {path} | {block['packets']} | - | - | - |")
            continue
        e2e = block["end_to_end"]
        top = max(block["critical_path"].items(),
                  key=lambda kv: kv[1]["packets"], default=(None, None))
        lines.append(
            f"| {path} | {block['packets']} | {e2e['p50']:.0f} | "
            f"{e2e['p99']:.0f} | {top[0] or '-'} |"
        )
    lines.append("")

    lines.append("## Fault matrix (seeded campaigns)")
    from repro.faults.campaign import run_campaign

    fault_window = max(window, 100_000)
    lines.extend([
        "| scenario | faults injected | incidents | invariants |",
        "|---|---|---|---|",
    ])
    for result in run_campaign("all", seed=0, window=fault_window,
                               warmup=15_000):
        injected = sum(result.fault_counts.values())
        failed, total = len(result.violations), len(result.invariants)
        verdict = f"{failed} FAILED" if failed else "all hold"
        lines.append(
            f"| {result.scenario} | {injected} | {len(result.incidents)} | "
            f"{total - failed}/{total} ({verdict}) |"
        )
    lines.append("")
    return "\n".join(lines)
