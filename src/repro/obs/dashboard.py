"""Text dashboard over a run's observability data.

Renders the cross-layer view Challenge 8(1) asks for, from either a
live :class:`~repro.obs.Observability` snapshot or a loaded JSONL export
(:func:`repro.obs.export.load_jsonl`): per-job makespans and handover
economics, critical-path attribution (where each job's wall-clock went,
from the causal DAG), stragglers, SLO budget state, per-device
utilization (a unicode sparkline over the window means of each
``device.occupancy/<name>`` telemetry series, beside its exact lifetime
mean and peak), per-link bytes, windowed telemetry, and trace-ring
health.
"""

from __future__ import annotations

import typing

from repro.metrics.report import Table, format_bytes, format_ns
from repro.obs.causal import (
    BUCKETS,
    JobGraph,
    attribute_job,
    detect_stragglers,
)

_BLOCKS = " ▁▂▃▄▅▆▇█"

#: Decode of the ``fed.rack.state/<name>`` gauge — mirrors
#: :data:`repro.federation.registry.STATE_ORDER` (kept literal here so
#: loading a JSONL export never imports the federation package).
_FED_STATES = ("up", "degraded", "draining", "down")

#: Column headers for the attribution table, in BUCKETS order.
_BUCKET_SHORT = {
    "dependency_wait": "dep",
    "queue_wait": "queue",
    "compute": "compute",
    "transfer": "xfer",
    "ownership_stall": "own",
    "recovery_retry": "recov",
    "preemption": "prmpt",
    "admission_backoff": "adm",
    "unattributed": "other",
}


def sparkline(
    samples: typing.Sequence[typing.Sequence[float]],
    width: int = 40,
    until: typing.Optional[float] = None,
    peak: typing.Optional[float] = None,
) -> str:
    """A piecewise-constant ``[(time, level), ...]`` series as blocks.

    The series is resampled onto ``width`` equal time columns between
    the first change point and ``until`` (default: the last change
    point); each column shows the level entering it, scaled to ``peak``
    (default: the series max; an explicit ``peak=0`` also falls back to
    the max — a zero scale has no sensible rendering).  Samples are
    sorted by time first, so out-of-order change points (e.g. merged
    from multiple sources) render the same as their sorted equivalent.
    A single sample (or ``until`` at/before the first change point)
    collapses to one block showing whether the level is nonzero.
    """
    if not samples:
        return ""
    samples = sorted(samples, key=lambda sample: sample[0])
    t0 = samples[0][0]
    t1 = until if until is not None else samples[-1][0]
    if t1 <= t0:
        # Degenerate window: show the level in effect at the horizon
        # (the last change point at or before it; before the series
        # starts, the first level).
        level = samples[0][1]
        for t, v in samples:
            if t > t1:
                break
            level = v
        return _BLOCKS[-1] if level > 0 else _BLOCKS[0]
    top = peak if peak not in (None, 0) else max(v for _t, v in samples) or 1.0
    cells = []
    idx = 0
    level = samples[0][1]
    for col in range(width):
        t = t0 + (t1 - t0) * col / width
        while idx + 1 < len(samples) and samples[idx + 1][0] <= t:
            idx += 1
            level = samples[idx][1]
        frac = min(1.0, max(0.0, level / top))
        cells.append(_BLOCKS[round(frac * (len(_BLOCKS) - 1))])
    return "".join(cells)


def _window_sparkline(values: typing.Sequence[float], width: int) -> str:
    """Per-window values as blocks, at most ``width`` columns."""
    points = [[i, v] for i, v in enumerate(values)]
    return sparkline(points, width=min(width, len(values)))


#: Name prefix of the per-compute-device occupancy level series.
_OCCUPANCY = "device.occupancy/"


def _metric_value(metrics: dict, name: str, default: float = 0.0) -> float:
    snap = metrics.get(name)
    if not snap:
        return default
    return float(snap.get("value", default))


#: The trace categories whose events :func:`render_dashboard` reads
#: (``job``/``run`` spans, for the job table);
#: :meth:`repro.obs.Observability.dashboard` serialises only these.
EVENT_CATEGORIES = ("job",)


def render_dashboard(
    data: dict,
    job: typing.Optional[str] = None,
    width: int = 40,
) -> str:
    """The run dashboard as aligned text sections.

    ``data`` is ``{"meta": ..., "events": [...], "metrics": {...}}`` —
    the shape produced by :func:`repro.obs.export.load_jsonl` and by
    :meth:`repro.obs.Observability.data`.  ``job`` filters the job table
    to one job name.
    """
    meta = data.get("meta", {})
    events = data.get("events", [])
    metrics = data.get("metrics", {})
    telemetry = data.get("telemetry") or {}
    series = telemetry.get("series") or {}
    sections = []

    # -- jobs ------------------------------------------------------------
    jobs = Table(
        ["job", "tenant", "ok", "makespan", "tasks", "zero-copy", "copies",
         "bytes copied", "zc ratio"],
        title="Jobs",
    )
    job_rows = 0
    for event in events:
        if event.get("cat") != "job" or event.get("name") != "run":
            continue
        fields = event.get("fields", {})
        if job is not None and fields.get("job") != job:
            continue
        zc = int(fields.get("zero_copy", 0))
        cp = int(fields.get("copies", 0))
        ratio = zc / (zc + cp) if (zc + cp) else 0.0
        jobs.add_row(
            fields.get("job", "?"),
            fields.get("tenant", "-"),
            "yes" if fields.get("ok", True) else "FAILED",
            format_ns(float(event.get("t", 0.0)) - float(event.get("begin", 0.0))),
            fields.get("tasks", ""),
            zc, cp, format_bytes(float(fields.get("bytes_copied", 0.0))),
            f"{ratio:.0%}",
        )
        job_rows += 1
    if job_rows:
        sections.append(jobs.render())

    # -- critical-path attribution ---------------------------------------
    attributions = []
    for graph_data in (data.get("causal") or {}).get("jobs", {}).values():
        if job is not None and graph_data.get("job") != job:
            continue
        att = attribute_job(JobGraph.from_dict(graph_data))
        if att is not None:
            attributions.append(att)
    if attributions:
        att_table = Table(
            ["job", "tenant", "ok", "makespan"]
            + [_BUCKET_SHORT[b] for b in BUCKETS],
            title="Critical-path attribution (% of makespan)",
        )
        for att in attributions:
            makespan = att["makespan"] or 1.0
            att_table.add_row(
                att["job"],
                att.get("fields", {}).get("tenant", "-"),
                "yes" if att["ok"] else "FAILED",
                format_ns(att["makespan"]),
                *[f"{100.0 * att['buckets'][b] / makespan:.0f}%"
                  for b in BUCKETS],
            )
        sections.append(att_table.render())

        flagged = detect_stragglers(attributions)
        if flagged:
            straggler_table = Table(
                ["scope", "job", "bucket", "culprit", "time", "share",
                 "cohort median"],
                title="Stragglers (robust outliers in their phase cohort)",
            )
            for entry in flagged[:10]:
                straggler_table.add_row(
                    entry["scope"], entry["job"], entry["bucket"],
                    entry["task"] or entry["device"],
                    format_ns(entry["ns"]), f"{entry['share']:.0%}",
                    format_ns(entry["cohort_median"]),
                )
            sections.append(straggler_table.render())

    # -- SLO budgets -----------------------------------------------------
    slo = data.get("slo") or {}
    slo_rows = [
        snap for workload, snap in sorted(slo.items())
        if job is None or workload == job or workload == f"{job}@e2e"
    ]
    if slo_rows:
        slo_table = Table(
            ["workload", "n", "p50", "p95", "p99", "worst", "target",
             "miss", "budget left", "burn"],
            title="SLO",
        )
        for snap in slo_rows:
            has_policy = "target_ns" in snap
            slo_table.add_row(
                snap["workload"], snap["total"],
                format_ns(float(snap.get("p50", 0.0))),
                format_ns(float(snap.get("p95", 0.0))),
                format_ns(float(snap.get("p99", 0.0))),
                format_ns(float(snap.get("worst_ns", 0.0))),
                format_ns(float(snap["target_ns"])) if has_policy else "-",
                f"{snap['miss_fraction']:.1%}" if has_policy else "-",
                f"{snap['budget_remaining']:.0%}" if has_policy else "-",
                f"{snap['burn_rate']:.2f}" if has_policy else "-",
            )
        sections.append(slo_table.render())

    # -- tenants ----------------------------------------------------------
    tenant_names = sorted({
        name.split("/", 1)[1]
        for name in metrics
        if name.startswith("tenant.") and "/" in name
    })
    # A lone default tenant is the single-tenant degenerate case; the
    # table only earns its lines when QoS is actually in play.
    if tenant_names and tenant_names != ["default"]:
        tenants = Table(
            ["tenant", "weight", "share", "served", "submitted", "admitted",
             "shed", "preempted", "won"],
            title="Tenants (fair-share and preemption accounting)",
        )
        for name in tenant_names:
            tenants.add_row(
                name,
                f"{_metric_value(metrics, f'tenant.weight/{name}', 1.0):g}",
                f"{_metric_value(metrics, f'tenant.share/{name}'):.0%}",
                format_ns(_metric_value(metrics, f"tenant.served_ns/{name}")),
                int(_metric_value(metrics, f"tenant.submitted/{name}")),
                int(_metric_value(metrics, f"tenant.admitted/{name}")),
                int(_metric_value(metrics, f"tenant.shed/{name}")),
                int(_metric_value(metrics, f"tenant.preempted/{name}")),
                int(_metric_value(metrics, f"tenant.preemptions_won/{name}")),
            )
        sections.append(tenants.render())

    # -- federation (router + per-rack gauges) ----------------------------
    rack_names = sorted({
        name.split("/", 1)[1]
        for name in metrics
        if name.startswith("fed.rack.state/")
    })
    if rack_names:
        fed_table = Table(
            ["rack", "state", "health", "load", "queued", "running",
             "routed"],
            title="Federation racks",
        )
        for name in rack_names:
            state_idx = int(_metric_value(metrics, f"fed.rack.state/{name}"))
            state = (
                _FED_STATES[state_idx]
                if 0 <= state_idx < len(_FED_STATES) else "?"
            )
            fed_table.add_row(
                name, state,
                f"{_metric_value(metrics, f'fed.rack.health/{name}'):.0%}",
                f"{_metric_value(metrics, f'fed.rack.load/{name}'):.2f}",
                int(_metric_value(metrics, f"fed.rack.queued/{name}")),
                int(_metric_value(metrics, f"fed.rack.running/{name}")),
                int(_metric_value(metrics, f"fed.routed/{name}")),
            )
        sections.append(fed_table.render())
    if _metric_value(metrics, "fed.routed") or _metric_value(metrics, "fed.sheds"):
        routing = Table(
            ["routed", "spills", "sheds", "cross-rack fetches",
             "cross-rack bytes"],
            title="Federation routing decisions",
        )
        routing.add_row(
            int(_metric_value(metrics, "fed.routed")),
            int(_metric_value(metrics, "fed.spills")),
            int(_metric_value(metrics, "fed.sheds")),
            int(_metric_value(metrics, "fed.cross_rack_fetches")),
            format_bytes(_metric_value(metrics, "fed.cross_rack_bytes")),
        )
        sections.append(routing.render())

    # -- per-device utilization ------------------------------------------
    util = Table(["device", "occupancy (window means)", "mean", "peak",
                  "history"],
                 title="Device utilization")
    util_rows = 0
    for name in sorted(series):
        snap = series[name]
        windows = snap.get("windows", [])
        if not name.startswith(_OCCUPANCY) or not windows:
            continue  # a device that never ran a task has no windows
        dropped_w = int(snap.get("dropped", 0))
        util.add_row(
            name[len(_OCCUPANCY):],
            _window_sparkline([float(w["mean"]) for w in windows], width),
            # Lifetime aggregates: exact over the whole run, even when
            # the retained windows only cover its tail.
            f"{float(snap.get('mean', 0.0)):.2f}",
            f"{float(snap.get('max', 0.0)):g}",
            f"TRUNCATED (-{dropped_w})" if dropped_w else "full",
        )
        util_rows += 1
    if util_rows:
        sections.append(util.render())

    # -- per-link bytes ---------------------------------------------------
    links = Table(["link", "bytes carried"], title="Fabric links")
    link_rows = []
    for name in metrics:
        if name.startswith("link.bytes/"):
            link_rows.append((name.split("/", 1)[1], _metric_value(metrics, name)))
    # Ties by name: the live registry and a JSONL export hold metrics
    # in different orders.
    link_rows.sort(key=lambda kv: (-kv[1], kv[0]))
    for link_name, nbytes in link_rows:
        links.add_row(link_name, format_bytes(nbytes))
    if link_rows:
        sections.append(links.render())

    # -- handover economics ----------------------------------------------
    zc = _metric_value(metrics, "handover.zero_copy")
    cp = _metric_value(metrics, "handover.copies")
    if zc or cp:
        handover = Table(["zero-copy", "copies", "bytes copied", "zc ratio"],
                         title="Handover (whole run)")
        handover.add_row(
            int(zc), int(cp),
            format_bytes(_metric_value(metrics, "handover.bytes_copied")),
            f"{zc / (zc + cp):.0%}" if (zc + cp) else "n/a",
        )
        sections.append(handover.render())

    # -- gray-failure mitigation -----------------------------------------
    hedges = _metric_value(metrics, "hedge.launched")
    degradations = _metric_value(metrics, "health.degraded_events")
    if hedges or degradations:
        gray = Table(
            ["degraded events", "hedges launched", "hedges won",
             "hedge wasted bytes", "budget denials"],
            title="Gray-failure mitigation",
        )
        gray.add_row(
            int(degradations),
            int(hedges),
            int(_metric_value(metrics, "hedge.won")),
            format_bytes(_metric_value(metrics, "hedge.wasted_bytes")),
            int(_metric_value(metrics, "recovery.budget_denied")),
        )
        sections.append(gray.render())

    # -- continuous telemetry (windowed series) ---------------------------
    # Device occupancy series are the Device utilization section above.
    shown = [name for name in sorted(series)
             if not name.startswith(_OCCUPANCY)]
    if shown:
        telem_table = Table(
            ["series", "kind", "last windows (mean)", "last", "windows",
             "history"],
            title="Telemetry (per-window, width "
                  f"{format_ns(float(telemetry.get('window_ns') or 0))})",
        )
        for name in shown:
            snap = series[name]
            windows = snap.get("windows", [])
            if not windows:
                continue
            # Per-workload SLO series honor the job filter like the SLO
            # table does; cluster-wide series always show.
            if job is not None and "/" in name:
                workload = name.split("/", 1)[1]
                if workload not in (job, f"{job}@e2e") and not (
                    workload.startswith("tenant:")
                ):
                    continue
            kind = snap.get("kind", "?")
            key = "rate" if kind == "rate" else "mean"
            values = [float(w.get(key, 0.0)) for w in windows]
            dropped_w = int(snap.get("dropped", 0))
            telem_table.add_row(
                name, kind,
                _window_sparkline(values, width),
                f"{values[-1]:.4g}",
                len(windows),
                f"TRUNCATED (-{dropped_w})" if dropped_w else "full",
            )
        sections.append(telem_table.render())

    # -- burn-rate alerts --------------------------------------------------
    alerts = telemetry.get("alerts") or {}
    if alerts.get("opened"):
        alert_table = Table(
            ["workload", "scope", "opened", "closed", "duration",
             "peak burn"],
            title="Burn-rate alerts",
        )
        for entry in list(alerts.get("log", [])) + list(
            alerts.get("active", [])
        ):
            workload = entry.get("workload", "?")
            if job is not None and workload not in (
                job, f"{job}@e2e"
            ) and not workload.startswith("tenant:"):
                continue
            closed_at = entry.get("closed_at")
            alert_table.add_row(
                entry.get("workload", "?"), entry.get("scope") or "-",
                format_ns(float(entry.get("opened_at", 0.0))),
                format_ns(float(closed_at)) if closed_at is not None
                else "OPEN",
                format_ns(float(closed_at) - float(entry["opened_at"]))
                if closed_at is not None else "-",
                f"{float(entry.get('peak_burn', 0.0)):.2f}",
            )
        sections.append(alert_table.render())

    # -- sampled hotness ---------------------------------------------------
    hotness = telemetry.get("hotness") or {}
    if hotness.get("sampled"):
        hot_table = Table(
            ["rank", "region", "est. bytes", "device", "est. bytes "],
            title=f"Hotness (sampled 1/{hotness.get('rate', '?')}, "
                  f"{hotness.get('sampled', 0)}/{hotness.get('seen', 0)} "
                  "accesses sampled)",
        )
        regions = hotness.get("regions", [])
        devices = hotness.get("devices", [])
        for i in range(min(8, max(len(regions), len(devices)))):
            region = regions[i] if i < len(regions) else ("-", 0.0)
            device = devices[i] if i < len(devices) else ("-", 0.0)
            hot_table.add_row(
                i + 1,
                region[0], format_bytes(float(region[1])),
                device[0], format_bytes(float(device[1])),
            )
        sections.append(hot_table.render())

    # -- trace-ring health ------------------------------------------------
    dropped = meta.get("dropped", {})
    retained = meta.get("retained", {})
    if retained or dropped:
        health = Table(["category", "retained", "dropped", "history"],
                       title="Trace rings")
        for category in sorted(set(retained) | set(dropped)):
            n_dropped = dropped.get(category, 0)
            health.add_row(category, retained.get(category, 0),
                           n_dropped,
                           "TRUNCATED" if n_dropped else "full")
        sections.append(health.render())

    if not sections:
        return "(no observability data recorded)"
    return "\n\n".join(sections)
