"""C10 — ablation: statistics-fed cost model (the LingoDB point, §3).

The analytic cost model is exact for solo runs (it shares the access
math with the simulator) but blind to contention.  This bench runs
concurrent query waves, feeding each wave's profiles to the
CalibratedCostModel, and reports the prediction error of the raw vs.
calibrated model per wave.  Pass criteria: raw error stays high and
flat; calibrated error collapses after the first wave; the learned
factors separate bandwidth-bound from latency-bound phases.
"""

from benchmarks.conftest import once
from repro.api import connect
from repro.apps import build_query_job
from repro.hardware import Cluster
from repro.metrics import Profile, Table
from repro.runtime import CalibratedCostModel


def test_ablation_cost_model_calibration(benchmark, report):
    cluster = Cluster.preset("pooled-rack", trace_categories={"profile"})
    session = connect(cluster=cluster)
    model = CalibratedCostModel(cluster)
    waves = []

    def experiment():
        for wave in range(4):
            jobs = [build_query_job(n_rows=200_000) for _ in range(4)]
            for i, job in enumerate(jobs):
                job.name = f"w{wave}j{i}"
            samples0 = model.stats.samples
            raw0 = model.stats.raw_error_sum
            corrected0 = model.stats.corrected_error_sum
            for stats in session.run(*jobs):
                model.observe(Profile.from_run(cluster, stats), stats)
            n = model.stats.samples - samples0
            waves.append((
                (model.stats.raw_error_sum - raw0) / n,
                (model.stats.corrected_error_sum - corrected0) / n,
            ))
        return waves

    once(benchmark, experiment)

    table = Table(
        ["wave (4 concurrent queries)", "raw model error", "calibrated error"],
        title="C10 (ablation): prediction error with statistics feedback",
    )
    for i, (raw, corrected) in enumerate(waves):
        table.add_row(i, f"{raw:.1%}", f"{corrected:.1%}")
    factors = Table(["correction key", "factor"],
                    title="Learned contention factors")
    for key, factor in sorted(model.corrections().items()):
        factors.add_row("/".join(str(k) for k in key[1:]), f"{factor:.2f}x")
    report("ablation_calibration",
           table.render() + "\n\n" + factors.render())

    raw_errors = [raw for raw, _c in waves]
    corrected_errors = [c for _r, c in waves]
    assert min(raw_errors) > 0.25  # the blind model never learns
    assert corrected_errors[-1] < 0.1  # the calibrated one converges
    assert corrected_errors[-1] < raw_errors[-1] / 3

    sequential = [f for key, f in model.corrections().items()
                  if key[-1] == "sequential"]
    random_factors = [f for key, f in model.corrections().items()
                      if key[-1] == "random"]
    assert sequential and max(sequential) > 2.0
    assert random_factors and max(random_factors) < 1.5
