"""The repository benchmark: end-to-end and per-layer metrics per workload.

Run one workload (what a measuring harness does)::

    python3 perfbench/run.py --workload llm_serve --seed 1 --seconds 30 --trace 0

or all three, each in its own fresh process, one after the other::

    python3 perfbench/run.py --workload all

A run imports ``repro`` from ``src/`` next to this directory, then
repeats the workload -- same seed, same inputs, freshly built cluster
and session each time -- for about ``--seconds`` (stopping before a
repetition would overrun them, but making at least ``MIN_REPEATS``).
Host times are per repetition, paced over all of the run's repetitions
together (see ``pace.py``).  Every repetition must complete every request, reproduce
the first one's simulated results exactly, and pass the workload's
correctness checks, or the run fails.  ``--trace 1`` adds traced
repetitions (call wrappers + profiler, see ``layers.py``) and reports
the per-layer metrics instead.

The workloads, metric names, units and the default ``--seconds`` are
read from ``BENCHMARK.json`` at the repository root.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (requests, over all repetitions) and ``metrics`` (name ->
value and unit).
"""

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import warnings

import pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
#: Process-name prefixes whose ``Engine.timeout`` calls are reported
#: (the event census); every other prefix is printed only.
CENSUS_PREFIXES = [m["name"][len("engine.timeouts."):]
                   for m in SPEC["per_layer"]
                   if m["name"].startswith("engine.timeouts.")]

#: Untraced repetitions a run makes even when they overrun --seconds.
MIN_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_id_space() -> None:
    """Restart repro's class-level ``itertools.count`` id allocators.

    Object ids are process-global and some feed simulated behaviour
    (random stream names embed job ids), so without this a repetition
    would differ from the first one only because objects were numbered
    before it.  Each repetition numbers its objects as a fresh process
    does.  Once ids are allocated per session this finds nothing to do.
    """
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for obj in list(vars(module).values()):
            if not (isinstance(obj, type) and obj.__module__ == name):
                continue
            for attr, value in list(vars(obj).items()):
                if isinstance(value, itertools.count):
                    setattr(obj, attr, itertools.count())


def import_program() -> None:
    """Import the workloads, and with them repro from ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    # Any deprecated entry point on the benchmark's path is an error:
    # the shims' messages start with "repro.", and deprecations raised
    # from repro's own modules match by module.
    warnings.filterwarnings("error", category=DeprecationWarning,
                            message=r"repro\.")
    warnings.filterwarnings("error", category=DeprecationWarning,
                            module=r"repro(\.|$)")
    import scenarios  # noqa: F401
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


class Repetition:
    """One build + drive of the workload, with its timed spans."""

    def __init__(self, scenario, seed: int, pacer, trace=None):
        fresh_id_space()
        gc.collect()
        marks = [pacer.mark()]
        inputs = scenario.generate(seed)
        marks.append(pacer.mark())
        stack = scenario.build(seed)
        marks.append(pacer.mark())
        if trace is None:
            ran = scenario.drive(stack, inputs)
        else:
            with trace:
                ran = scenario.drive(stack, inputs)
        marks.append(pacer.mark())
        #: (start, end) pacer marks of input generation, build and drive.
        self.generate, self.build, self.drive = zip(marks, marks[1:])
        self.raw_wall_s = marks[3][0] - marks[2][0]
        self.outcome = scenario.outcome(stack, inputs, ran)
        self.trace = trace
        self.sim = sim_metrics(self.outcome)


def sim_metrics(outcome) -> dict:
    """The simulated end-to-end metrics of one repetition."""
    from scenarios import MS, percentile

    offered = len(outcome.latencies)
    done = sorted(x for x in outcome.latencies if x is not None)
    within = sum(1 for x, slo in zip(outcome.latencies, outcome.slo_ns)
                 if x is not None and x <= slo)
    return {
        "completed_frac": len(done) / offered,
        "sim_latency_p50_ms": percentile(done, 50) / MS,
        "sim_latency_p95_ms": percentile(done, 95) / MS,
        "sim_slo_attainment": within / offered,
        "sim_goodput_per_s": within / (outcome.horizon_ns / 1e9),
    }


def completion_problems(workload: str, reps) -> list:
    """Every offered request of every repetition must complete."""
    problems = []
    for i, rep in enumerate(reps):
        offered = len(rep.outcome.latencies)
        lost = sum(1 for x in rep.outcome.latencies if x is None)
        if lost:
            problems.append(
                f"{workload}: completed_frac of repetition {i} is "
                f"{rep.sim['completed_frac']!r}: {lost} of {offered} "
                f"requests were shed or failed")
    return problems


def determinism_problems(workload: str, reps) -> list:
    """Where a repetition's simulated results differ from the first's."""
    first = reps[0]
    problems = []
    for i, rep in enumerate(reps[1:], start=1):
        for name, value in rep.sim.items():
            if value != first.sim[name]:
                problems.append(
                    f"{workload}: {name} of repetition {i} is {value!r}, "
                    f"repetition 0 gave {first.sim[name]!r}")
        if rep.outcome.latencies != first.outcome.latencies:
            problems.append(f"{workload}: per-request latencies of "
                            f"repetition {i} differ from repetition 0")
        events = rep.outcome.layer["engine.events"]
        if events != first.outcome.layer["engine.events"]:
            problems.append(f"{workload}: repetition {i} processed "
                            f"{events:.0f} events, repetition 0 "
                            f"{first.outcome.layer['engine.events']:.0f}")
    return problems


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """Run the workload; return (metrics, attempted, failed, problems,
    notes printed next to metrics)."""
    pacer = pace.Pacer()
    with pacer:
        started = pacer.mark()
        import_program()
        import_s = pacer.seconds((started, pacer.mark()))
    from scenarios import SCENARIOS

    scenario = SCENARIOS[workload]
    LayerTrace = None
    if traced:
        from layers import LayerTrace
    deadline = pacer.mark()[0] + seconds
    plain, traced_reps = [], []
    while True:
        pass_started = pacer.mark()[0]
        # Traced repetitions run without the pacer's timer: the profiler
        # would slow its samples too.
        with pacer:
            plain.append(Repetition(scenario, seed, pacer))
        if len(plain) == 1:
            # Later repetitions only add allocator fragmentation, so the
            # high-water mark through the first one is the steady figure.
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if traced:
            traced_reps.append(Repetition(scenario, seed, pacer, LayerTrace()))
        # Stop once another pass would run past the budget.
        now = pacer.mark()[0]
        if len(plain) >= (1 if traced else MIN_REPEATS) \
                and now + (now - pass_started) > deadline:
            break
    reps = plain + traced_reps
    problems = [f"{workload}: {p}" for rep in reps for p in rep.outcome.problems]
    problems += completion_problems(workload, reps)
    problems += determinism_problems(workload, reps)

    def paced(spans) -> float:
        """Paced seconds per repetition, over the spans together."""
        return pacer.seconds(*spans) / len(spans)

    median = statistics.median
    setup = {
        "setup.import_s": import_s,
        "setup.build_s": paced([r.build for r in plain]),
        "setup.workload_s": paced([r.generate for r in plain]),
    }
    wall = paced([r.drive for r in plain])
    if traced:
        metrics = dict(setup)
        for name in traced_reps[0].outcome.layer:
            metrics[name] = median(r.outcome.layer[name] for r in traced_reps)
        per_trace = [r.trace.metrics(r.outcome.layer["engine.events"],
                                     CENSUS_PREFIXES)
                     for r in traced_reps]
        for name in per_trace[0]:
            metrics[name] = median(m[name] for m in per_trace)
        metrics["trace.overhead_ratio"] = (
            paced([r.drive for r in traced_reps]) / wall)
        print_census(traced_reps[0])
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": sum(setup.values()),
            "peak_rss_mb": peak_rss_mb,
            **plain[0].sim,
        }
    attempted = sum(len(r.outcome.latencies) for r in reps)
    failed = sum(1 for r in reps for x in r.outcome.latencies if x is None)
    print(f"{workload} seed={seed}: {len(plain)} untraced + "
          f"{len(traced_reps)} traced repetitions, "
          f"{len(reps[0].outcome.latencies)} requests each, "
          f"{pacer.mark()[0] - started[0]:.1f}s in all; wall_s {wall:.3f} "
          f"paced, raw " + " ".join(f"{r.raw_wall_s:.3f}" for r in reps))
    done = sum(1 for x in reps[0].outcome.latencies if x is not None)
    notes = {"sim_latency_p95_ms": f"({done} samples, "
                                   f"{done - 1 - int(0.95 * (done - 1))} "
                                   f"above p95)"}
    return metrics, attempted, failed, problems, notes


def print_census(rep) -> None:
    """Event census of a traced repetition, every process prefix."""
    events = rep.outcome.layer["engine.events"]
    print(f"  event census: {events:.0f} events")
    for prefix, count in rep.trace.timeouts.most_common():
        print(f"    {prefix:<20} {count:>9} timeouts  "
              f"{count / events:7.1%} of events")


def report(metrics: dict, traced: bool, notes: dict) -> dict:
    """Print every metric with its unit; return the JSON metrics map."""
    names = [m["name"] for m in SPEC["per_layer" if traced else "end_to_end"]]
    missing = set(names) ^ set(metrics)
    if missing:
        raise RuntimeError(
            f"metric set differs from BENCHMARK.json: {sorted(missing)}")
    out = {}
    for name in names:
        unit = UNITS[name]
        print(f"  {name:<30} {metrics[name]:>16.6g} {unit} "
              f"{notes.get(name, '')}".rstrip())
        out[name] = {"value": metrics[name], "unit": unit}
    return out


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    metrics, attempted, failed, problems, notes = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report(metrics, bool(args.trace), notes),
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
