#!/usr/bin/env python3
"""Deep dive into the Sz state: the ACPI plumbing the paper adds.

Walks the Fig. 6 kernel path (``echo zom > /sys/power/state``), shows which
power domains and devices stay alive, contrasts Sz with S3 on the RDMA data
path, and demonstrates the RPC asymmetry (one-sided verbs work against a
zombie, RPC does not).

Run:  python examples/sz_state_deep_dive.py
"""

from repro import GiB, SleepState, build_platform
from repro.energy import HP_PROFILE, server_power_watts
from repro.errors import RdmaError, RpcTimeoutError
from repro.rdma import Fabric, RpcClient, RpcServer


def show_platform(platform) -> None:
    watts = server_power_watts(HP_PROFILE, platform.state)
    print(f"  state: {platform.state}, draw: {watts:.1f} W (Table 3, HP)")
    for name, on in sorted(platform.plane.report().items()):
        print(f"    domain {name:<10} {'ON' if on else 'off'}")


def main() -> None:
    platform = build_platform("node-7", memory_bytes=2 * GiB)
    print("Booted an Sz-capable platform (independent CPU/memory domains):")
    show_platform(platform)

    print("\n$ echo zom > /sys/power/state")
    platform.go_zombie()
    show_platform(platform)
    print("  kernel call trace (the paper's Fig. 6):")
    for entry in list(platform.ospm.call_trace)[:16]:
        print(f"    {entry}")
    banks = platform.memory_banks
    print(f"  DRAM mode: {banks[0].mode.value} (Si0x-like, serves DMA)")

    print("\nRDMA against the zombie:")
    fabric = Fabric()
    peer = fabric.add_node("peer")
    node = fabric.add_node("node-7", platform=platform)
    mr = node.register_mr(1024 * 1024)
    qp = peer.connect_qp("node-7")
    peer.rdma_write(qp, mr.rkey, 0, b"written while CPU was dead")
    print(f"  one-sided READ: {peer.rdma_read(qp, mr.rkey, 0, 26)!r}")

    server = RpcServer(node)
    server.register("ping", lambda: "pong")
    client = RpcClient(peer, server, timeout_s=0.01)
    try:
        client.call("ping")
    except RpcTimeoutError as exc:
        print(f"  RPC (needs the CPU): {type(exc).__name__} — {exc}")

    print("\nNow S3 for contrast (memory in self-refresh):")
    platform.wake()
    platform.suspend(SleepState.S3)
    show_platform(platform)
    try:
        peer.rdma_read(qp, mr.rkey, 0, 8)
    except RdmaError as exc:
        print(f"  one-sided READ now fails: {exc}")

    print("\nTable 3 watts (HP, S0 idle) per state — what a rack of these boards sums:")
    for state in SleepState:
        print(f"  {state.value:<3} {server_power_watts(HP_PROFILE, state):6.1f} W")

    print("\nA legacy board (shared CPU+memory supply) cannot do Sz:")
    legacy = build_platform("legacy", split_power_domains=False)
    try:
        legacy.go_zombie()
    except Exception as exc:
        print(f"  {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
