"""Meta-tests: the public API keeps its documentation promises.

README promises "doc comments on every public item"; these tests make
that claim enforceable: every module, every ``__all__`` export, and
every public method of exported classes must carry a docstring, and
``__all__`` lists must be accurate and sorted.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro", "repro.sim", "repro.hardware", "repro.memory",
    "repro.dataflow", "repro.runtime", "repro.ft", "repro.apps",
    "repro.workloads", "repro.metrics", "repro.federation",
]


def all_modules():
    names = set(PACKAGES)
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                names.add(f"{package_name}.{info.name}")
    return sorted(names)


@pytest.mark.parametrize("module_name", all_modules())
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("package_name", PACKAGES)
def test_dunder_all_is_accurate_and_sorted(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", None)
    assert exported is not None, f"{package_name} lacks __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"
    assert list(exported) == sorted(exported), f"{package_name}.__all__ unsorted"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_export_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in getattr(package, "__all__", []):
        obj = getattr(package, name)
        if inspect.ismodule(obj):
            continue
        if not (getattr(obj, "__doc__", None) or "").strip():
            undocumented.append(f"{package_name}.{name}")
    assert not undocumented, undocumented


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_methods_of_exported_classes_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in getattr(package, "__all__", []):
        obj = getattr(package, name)
        if not inspect.isclass(obj) or not obj.__module__.startswith("repro"):
            continue
        for method_name, member in inspect.getmembers(obj):
            if method_name.startswith("_"):
                continue
            if not (inspect.isfunction(member) or inspect.ismethod(member)):
                continue
            if not member.__module__.startswith("repro"):
                continue
            if not (member.__doc__ or "").strip():
                undocumented.append(f"{package_name}.{name}.{method_name}")
    assert not undocumented, sorted(set(undocumented))


def test_version_exposed():
    assert repro.__version__


# Frozen snapshots of the supported API surface.  A failure here means
# the public contract changed: additions belong in the snapshot (and in
# the README), removals need a deprecation shim first.
API_SURFACE = {
    "repro": {
        "AccessMode", "AccessPattern", "BandwidthClass", "Cluster",
        "ComputeKind", "Job", "JobStats", "LatencyClass", "MemoryKind",
        "MemoryProperties", "OpClass", "PriorityClass", "RegionType",
        "RegionUsage", "RuntimeSystem", "Session", "Task", "TaskContext",
        "TaskProperties", "TenantQuota", "ValidationError", "WorkSpec",
        "api", "baselines", "connect", "linear_job", "task",
    },
    "repro.api": {
        "AdmittedJob", "FederatedSession", "PriorityClass", "Session",
        "Tenant", "TenantQuota", "TenantRegistry", "connect",
    },
    "repro.apps": {
        "APP_BUILDERS", "DECODE_POOL", "Filter", "GroupCount", "HashJoin",
        "JacobiSolver", "LLMEngine", "LinearTrainer", "MiniDB",
        "PREFILL_POOL", "PhysicalQueryEngine", "PrefixTrie", "RequestRecord",
        "Scan", "ServeResult", "SolveResult", "StreamExecutor", "StreamStats",
        "TrainingResult", "WindowRecord", "build_app_job",
        "build_hospital_job", "build_probe_job", "build_query_job",
        "build_request_job", "build_stencil_job", "build_training_job",
        "define_pd_pools", "make_heat_problem", "make_regression_data",
        "region_census",
    },
    "repro.federation": {
        "AffinityPolicy", "FederatedSession", "LeastLoadedPolicy",
        "OverloadDetector", "POLICIES", "PrefixAffinityPolicy", "Rack",
        "RackRegistry", "RackState", "RegistryStats", "RoundRobinPolicy",
        "RoutedJob", "Router", "RouterStats", "StatsWindow", "federate",
    },
    "repro.runtime": {
        "AdmittedJob", "CalibratedCostModel", "CostModel",
        "DeclarativePlacement", "DegradationPolicy", "DeviceDown",
        "EncryptingPlacement", "HandoverManager", "HandoverStats",
        "HealthMonitor", "HealthState", "HealthStats", "HedgePolicy",
        "HeftScheduler", "JobAbandoned", "JobPlan", "JobStats",
        "LatencyScorecard", "NaivePlacement", "ObservationStats",
        "PlacementPolicy", "PlacementRequest", "PlannedRegion", "Preempted",
        "PriorityClass", "RackDriver", "RackStats", "RandomScheduler",
        "RecoveryPolicy", "ResilienceStats", "ResilientRuntime",
        "RetryBudget", "RoundRobinScheduler", "RuntimeSystem", "Scheduler",
        "SchedulingError", "StaticKindPlacement", "TaskContext", "TaskPlan",
        "Tenant", "TenantQuota", "TenantRegistry", "baselines",
        "estimate_job_footprint", "plan_job", "prune_with_checkpoints",
    },
    "repro.workloads": {
        "AccessEvent", "LLMRequest", "ZipfSampler", "bursty_arrivals",
        "llm_request_stream", "mixed_trace", "poisson_arrivals",
        "sequential_trace", "synthetic_frames", "synthetic_table",
        "synthetic_tensor", "uniform_trace", "zipfian_trace",
    },
}


@pytest.mark.parametrize("module_name", sorted(API_SURFACE))
def test_api_surface_snapshot(module_name):
    module = importlib.import_module(module_name)
    assert set(module.__all__) == API_SURFACE[module_name]



def test_import_loads_no_third_party_module_but_numpy():
    """numpy is the only runtime dependency: importing the package and
    its facade in a fresh interpreter loads nothing else from outside
    the standard library."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro, repro.api\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names)))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['numpy', 'repro']"
