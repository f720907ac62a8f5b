#!/usr/bin/env python3
"""Render the observability dashboard from a JSONL run export.

Produce the export with ``cluster.obs.export_jsonl("run.jsonl")`` after
a run, then inspect it offline::

    python scripts/obs_report.py run.jsonl
    python scripts/obs_report.py run.jsonl --job training
    python scripts/obs_report.py run.jsonl --category recovery
    python scripts/obs_report.py run.jsonl --metrics

The dashboard shows per-job makespans and handover economics (zero-copy
ratio), critical-path attribution and SLO budgets (when the run traced
the ``causal`` category), per-device utilization (the windowed
``device.occupancy/<name>`` series), per-link bytes, and trace-ring
health (retained vs. dropped events per category).

``--job``/``--category`` make the report *assertive*: when the export
recorded nothing for the requested job or category the script prints an
error and exits non-zero, so CI pipelines can depend on it.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="Render the text dashboard from an obs JSONL export."
    )
    parser.add_argument("jsonl", help="path to a file written by export_jsonl()")
    parser.add_argument("--job", help="restrict the job table to one job name")
    parser.add_argument(
        "--category",
        help="require trace events of this category (exit 1 when none)",
    )
    parser.add_argument(
        "--width", type=int, default=40,
        help="sparkline width in columns (default 40)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="also print every recorded metric as a raw table",
    )
    args = parser.parse_args(argv)

    from repro.metrics.report import Table
    from repro.obs.dashboard import render_dashboard
    from repro.obs.export import load_jsonl

    try:
        data = load_jsonl(args.jsonl)
    except OSError as exc:
        print(f"error: cannot read {args.jsonl}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {args.jsonl} is not a JSONL export: {exc}", file=sys.stderr)
        return 1

    if args.job is not None:
        recorded = (
            any(
                event.get("cat") == "job"
                and event.get("fields", {}).get("job") == args.job
                for event in data.get("events", [])
            )
            or any(
                graph.get("job") == args.job
                for graph in data.get("causal", {}).get("jobs", {}).values()
            )
            or args.job in data.get("slo", {})
        )
        if not recorded:
            print(
                f"error: nothing recorded for job {args.job!r} in "
                f"{args.jsonl}",
                file=sys.stderr,
            )
            return 1
    if args.category is not None:
        count = sum(
            1 for event in data.get("events", [])
            if event.get("cat") == args.category
        )
        if count == 0:
            print(
                f"error: no events of category {args.category!r} in "
                f"{args.jsonl} (was the category enabled?)",
                file=sys.stderr,
            )
            return 1
        print(f"[{args.category}] {count} events retained\n")

    # Truncated history changes what the tables below can claim; lead
    # with the warning instead of letting a silent ring drop read as a
    # complete record.
    dropped = {
        category: n
        for category, n in (data.get("meta", {}).get("dropped") or {}).items()
        if n
    }
    series = (data.get("telemetry") or {}).get("series") or {}
    occupancy_drops = sum(
        int(snap.get("dropped", 0))
        for name, snap in series.items()
        if name.startswith("device.occupancy/")
    )
    if dropped or occupancy_drops:
        parts = [f"{category}: {n} events" for category, n in sorted(dropped.items())]
        if occupancy_drops:
            parts.append(f"device occupancy: {occupancy_drops} windows")
        print(
            "WARNING: history truncated — bounded rings dropped "
            + ", ".join(parts)
            + " (oldest first); tables below reflect retained data only\n"
        )

    print(render_dashboard(data, job=args.job, width=args.width))

    if args.metrics:
        table = Table(["metric", "value"], title="All metrics")
        for name, snap in sorted(data.get("metrics", {}).items()):
            if "value" in snap:
                value = f"{snap['value']:g}"
            else:
                value = f"mean={snap.get('mean', 0.0):.3g} max={snap.get('max', 0.0):g}"
            table.add_row(name, value)
        print()
        print(table.render())
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:  # e.g. `obs_report.py run.jsonl | head`
        raise SystemExit(0)
