"""Token-bucket rate limiter data forwarder ("application-dependent
packet dropping" / firewalling, section 4.4's service list).

The bucket state (tokens, last-refill timestamp) lives in the flow's
SRAM region; the control forwarder sets rate and burst via setdata.
Refill arithmetic uses the packet's arrival timestamp, which the RI
already has in hand.

Cost: 12 bytes of SRAM state, 24 register operations.
"""

from __future__ import annotations

from repro.core.forwarder import ForwarderSpec, Where
from repro.core.vrp import RegOps, SramRead, SramWrite, VRPProgram
from repro.ixp.params import CLOCK_HZ


def limit_action(packet, state) -> bool:
    rate_pps = state.get("rate_pps")
    if not rate_pps:
        return True
    burst = state.get("burst", 4)
    now = packet.meta.get("t_arrived", 0)
    last = state.get("last_refill", now)
    tokens = state.get("tokens", burst)
    tokens = min(burst, tokens + (now - last) * rate_pps / CLOCK_HZ)
    state["last_refill"] = now
    if tokens < 1.0:
        state["tokens"] = tokens
        state["limited"] = state.get("limited", 0) + 1
        return False
    state["tokens"] = tokens - 1.0
    state["passed"] = state.get("passed", 0) + 1
    return True


def make_program() -> VRPProgram:
    return VRPProgram(
        name="rate-limiter",
        ops=[
            SramRead(2),     # tokens + last-refill (8 B)
            RegOps(16),      # refill arithmetic + compare
            SramWrite(1),    # write back tokens (4 B)
            RegOps(8),       # drop/pass decision + counter
        ],
        action=limit_action,
        registers_needed=5,
    )


def make_spec(rate_pps: float = 0.0, burst: int = 4) -> ForwarderSpec:
    if rate_pps < 0 or burst < 1:
        raise ValueError("rate must be >= 0 and burst >= 1")
    spec = ForwarderSpec(
        name="rate-limiter",
        where=Where.ME,
        program=make_program(),
        state_bytes=12,
    )
    if rate_pps:
        spec.initial_state.update({"rate_pps": rate_pps, "burst": burst})
    return spec
