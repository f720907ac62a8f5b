"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``presets`` — list the canonical cluster configurations;
* ``info <preset>`` — describe a cluster: devices, capacities, and the
  end-to-end access characteristics every CPU observes (a live Table 1);
* ``demo [preset]`` — run the quickstart pipeline and print the
  schedule, placements, and handover summary;
* ``llm [preset]`` — serve an LLM request stream colocated vs
  disaggregated-with-prefix-reuse and print the comparison.
"""

from __future__ import annotations

import argparse
import sys

from repro.hardware import Cluster, presets
from repro.metrics import Table, format_bytes, format_ns


def cmd_presets(_args) -> int:
    table = Table(["preset", "builds"], title="Cluster presets")
    descriptions = {
        "table1-host": "one CPU + every Table 1 device",
        "compute-centric": "Figure 1a: conventional servers",
        "pooled-rack": "Figure 1b: CXL-switched memory pool",
        "two-socket-numa": "two NUMA sockets (C1 bench)",
        "far-memory-rack": "host + N far-memory nodes (FT benches)",
    }
    for name in presets.available():
        table.add_row(name, descriptions.get(name, ""))
    print(table)
    return 0


def cmd_info(args) -> int:
    cluster = Cluster.preset(args.preset)
    print(f"preset {args.preset!r}: {len(cluster.compute)} compute devices, "
          f"{len(cluster.memory)} memory devices, "
          f"{len(cluster.nodes)} failure domains\n")

    compute = Table(["compute", "kind", "slots", "op classes"],
                    title="Compute pool")
    for device in cluster.compute.values():
        ops = ", ".join(sorted(op.value for op in device.spec.throughput))
        compute.add_row(device.name, device.kind.value, device.slots, ops)
    print(compute)
    print()

    observer = next(iter(cluster.compute))
    from repro.runtime import CostModel

    costmodel = CostModel(cluster)
    memory = Table(
        ["memory", "kind", "capacity", f"RTT from {observer}",
         "bandwidth", "sync", "persistent"],
        title="Memory pool (live Table 1)",
    )
    for device in cluster.memory.values():
        offer = costmodel.offered(observer, device)
        memory.add_row(
            device.name, device.kind.value, format_bytes(device.capacity),
            format_ns(offer.rtt_ns),
            f"{offer.bytes_per_ns:.1f} GB/s",
            "yes" if offer.sync else "no",
            "yes" if device.spec.persistent else "no",
        )
    print(memory)
    return 0


def cmd_topo(args) -> int:
    """Render a preset's fabric as an adjacency table."""
    cluster = Cluster.preset(args.preset)
    table = Table(["endpoint A", "endpoint B", "technology", "bandwidth",
                   "latency"],
                  title=f"Fabric of {args.preset!r}")
    topo = cluster.topology
    for u, v, link in sorted(topo.edges(), key=lambda edge: edge[:2]):
        table.add_row(u, v, topo.link_kind(link).value,
                      f"{link.bandwidth:.1f} GB/s", format_ns(link.latency))
    print(table)
    for role in ("compute", "memory", "switch"):
        print(f"{role:>8}: {', '.join(sorted(topo.nodes(role)))}")
    return 0


def cmd_demo(args) -> int:
    from repro import (
        ComputeKind, Job, LatencyClass, OpClass, RegionUsage,
        Task, TaskProperties, WorkSpec, connect,
    )

    MiB = 1 << 20
    cluster = Cluster.preset(args.preset, trace_categories={"memory"})
    # No Global State: the demo must run even on Figure 1a architectures,
    # where CPU and GPU share no coherence domain (see Scheduler.state_domain).
    job = Job("demo")
    ingest = job.add_task(Task("ingest", work=WorkSpec(
        ops=2e5, output=RegionUsage(32 * MiB))))
    train = job.add_task(Task(
        "train",
        work=WorkSpec(op_class=OpClass.MATMUL, ops=5e7,
                      input_usage=RegionUsage(0, touches=2.0),
                      scratch=RegionUsage(8 * MiB, touches=4.0),
                      output=RegionUsage(2 * MiB)),
        properties=TaskProperties(compute=ComputeKind.GPU,
                                  mem_latency=LatencyClass.LOW),
    ))
    report = job.add_task(Task("report", work=WorkSpec(
        ops=5e4, input_usage=RegionUsage(0))))
    job.connect(ingest, train)
    job.connect(train, report)

    with connect(cluster=cluster) as session:
        stats = session.run(job)
        leaked = len(session.rts.memory.live_regions())
    print(f"demo job finished in {format_ns(stats.makespan)} (simulated)\n")
    schedule = Table(["task", "device", "duration"], title="Schedule")
    for name, task_stats in stats.tasks.items():
        schedule.add_row(name, task_stats.device, format_ns(task_stats.duration))
    print(schedule)
    print()
    placement = Table(["region", "device"], title="Placements")
    for event in cluster.trace.by_name("allocate"):
        placement.add_row(event.fields["region"], event.fields["device"])
    print(placement)
    print(f"\nhandover: {stats.zero_copy_handover} zero-copy, "
          f"{stats.copy_handover} copies; leaked regions: {leaked}")
    return 0


def cmd_llm(args) -> int:
    from repro import connect
    from repro.apps import LLMEngine, define_pd_pools
    from repro.workloads import llm_request_stream

    # The regime that motivates P/D splits: long mixed prompts (heavy
    # prefill), short interactive outputs, enough admitted concurrency
    # that prefills and decodes actually contend for device slots.
    requests = llm_request_stream(
        64, seed=7,
        prompt_tail_tokens=(64, 512), output_tokens=(4, 16),
        template_blocks=(4, 12), mean_interarrival_ns=400_000.0,
    )

    def serve(disaggregate: bool, prefix_caching: bool):
        with connect(args.preset, seed=7, max_concurrent=32) as session:
            session.register_tenant("chat", weight=2.0,
                                    priority="interactive")
            if disaggregate:
                define_pd_pools(session.cluster)
            engine = LLMEngine(session, disaggregate=disaggregate,
                               prefix_caching=prefix_caching,
                               kv_bytes_per_token=512,
                               ops_per_token=1e8)
            result = engine.serve(requests)
            engine.shutdown()
            return result

    table = Table(
        ["configuration", "completed", "prefix hit rate", "KV moved",
         "decode p95", "e2e p95"],
        title="LLM serving: colocated vs disaggregated + prefix reuse",
    )
    for label, disagg, reuse in (
        ("colocated", False, False),
        ("disaggregated P/D", True, False),
        ("disaggregated + prefix reuse", True, True),
    ):
        result = serve(disagg, reuse)
        table.add_row(
            label, result.completed, f"{result.hit_rate:.0%}",
            format_bytes(result.kv_bytes_moved),
            format_ns(result.percentile(result.decode_ns(), 95)),
            format_ns(result.percentile(result.e2e_ns(), 95)),
        )
        assert not result.leaked, "shared KV regions must drain to 0"
    print(table)
    print("\nall shared prefix regions drained to refcount 0 (no leaks)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Programming model + runtime for fully disaggregated "
                    "systems (HotOS '23 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("presets", help="list cluster presets")
    info = subparsers.add_parser("info", help="describe a cluster preset")
    info.add_argument("preset", choices=presets.available())
    topo = subparsers.add_parser("topo", help="print a preset's fabric")
    topo.add_argument("preset", choices=presets.available())
    demo = subparsers.add_parser("demo", help="run the quickstart pipeline")
    demo.add_argument("preset", nargs="?", default="pooled-rack",
                      choices=presets.available())
    llm = subparsers.add_parser(
        "llm", help="compare colocated vs disaggregated LLM serving")
    llm.add_argument("preset", nargs="?", default="pooled-rack",
                     choices=presets.available())
    args = parser.parse_args(argv)
    handlers = {"presets": cmd_presets, "info": cmd_info,
                "topo": cmd_topo, "demo": cmd_demo, "llm": cmd_llm}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # e.g. `python -m repro info ... | head`
        return 0


if __name__ == "__main__":
    sys.exit(main())
