"""Job (de)serialization: dataflows as data.

The declarative model's payoff is that a whole dataflow — DAG, work
specifications, and property cards — is *description*, not code, so it
can live in JSON files, be shipped to a remote runtime, or be generated
by other tools.  ``job_to_dict``/``job_from_dict`` are loss-free for
everything declarative (custom task functions, being code, are not
serializable and are rejected).
"""

from __future__ import annotations

import json
import typing

from repro.dataflow.graph import Job, Task
from repro.dataflow.properties import TaskProperties
from repro.dataflow.workspec import RegionUsage, WorkSpec
from repro.hardware.spec import ComputeKind, OpClass
from repro.memory.interfaces import AccessPattern
from repro.memory.properties import LatencyClass


class SerializationError(ValueError):
    """The job cannot be (de)serialized."""


# -- encoding ------------------------------------------------------------


def _usage_to_dict(usage: typing.Optional[RegionUsage]):
    if usage is None:
        return None
    return {
        "size": usage.size,
        "touches": usage.touches,
        "pattern": usage.pattern.value,
        "access_size": usage.access_size,
    }


def _work_to_dict(work: WorkSpec) -> dict:
    return {
        "op_class": work.op_class.value,
        "ops": work.ops,
        "input_usage": _usage_to_dict(work.input_usage),
        "output": _usage_to_dict(work.output),
        "scratch": _usage_to_dict(work.scratch),
        "state_usage": _usage_to_dict(work.state_usage),
        "scratch_puts": {
            slot: _usage_to_dict(usage)
            for slot, usage in work.scratch_puts.items()
        },
        "scratch_gets": list(work.scratch_gets),
    }


def _properties_to_dict(properties: TaskProperties) -> dict:
    return {
        "compute": properties.compute.value if properties.compute else None,
        "confidential": properties.confidential,
        "persistent": properties.persistent,
        "mem_latency": (properties.mem_latency.name.lower()
                        if properties.mem_latency is not None else None),
        "streaming": properties.streaming,
    }


def job_to_dict(job: Job) -> dict:
    """Encode a job as a JSON-safe dictionary.

    Raises :class:`SerializationError` for jobs with custom task
    functions — only the declarative subset is portable.
    """
    for task in job.tasks.values():
        if task.fn is not None:
            raise SerializationError(
                f"task {task.qualified_name!r} has a custom function; "
                "only declarative jobs are serializable"
            )
    return {
        "version": 1,
        "name": job.name,
        "global_state_size": job.global_state_size,
        "tasks": [
            {
                "name": task.name,
                "work": _work_to_dict(task.work),
                "properties": _properties_to_dict(task.properties),
            }
            for task in job.topological_order()
        ],
        "edges": [[u.name, v.name] for u, v in job.edges()],
    }


def job_to_json(job: Job, indent: int = 2) -> str:
    """Encode a declarative job as a JSON string."""
    return json.dumps(job_to_dict(job), indent=indent)


# -- decoding --------------------------------------------------------------


def _usage_from_dict(data) -> typing.Optional[RegionUsage]:
    if data is None:
        return None
    return RegionUsage(
        size=int(data["size"]),
        touches=float(data.get("touches", 1.0)),
        pattern=AccessPattern(data.get("pattern", "sequential")),
        access_size=int(data.get("access_size", 64)),
    )


def _work_from_dict(data: dict) -> WorkSpec:
    return WorkSpec(
        op_class=OpClass(data.get("op_class", "scalar")),
        ops=float(data.get("ops", 0.0)),
        input_usage=_usage_from_dict(data.get("input_usage")),
        output=_usage_from_dict(data.get("output")),
        scratch=_usage_from_dict(data.get("scratch")),
        state_usage=_usage_from_dict(data.get("state_usage")),
        scratch_puts={
            slot: _usage_from_dict(usage)
            for slot, usage in data.get("scratch_puts", {}).items()
        },
        scratch_gets=tuple(data.get("scratch_gets", ())),
    )


def _properties_from_dict(data: dict) -> TaskProperties:
    compute = data.get("compute")
    mem_latency = data.get("mem_latency")
    return TaskProperties(
        compute=ComputeKind(compute) if compute else None,
        confidential=bool(data.get("confidential", False)),
        persistent=bool(data.get("persistent", False)),
        mem_latency=LatencyClass[mem_latency.upper()] if mem_latency else None,
        streaming=bool(data.get("streaming", False)),
    )


def job_from_dict(data: dict) -> Job:
    """Decode a job; validates the DAG before returning."""
    if data.get("version") != 1:
        raise SerializationError(
            f"unsupported job encoding version {data.get('version')!r}"
        )
    try:
        job = Job(data["name"],
                  global_state_size=int(data.get("global_state_size", 0)))
        for entry in data["tasks"]:
            job.add_task(Task(
                entry["name"],
                work=_work_from_dict(entry.get("work", {})),
                properties=_properties_from_dict(entry.get("properties", {})),
            ))
        for u, v in data.get("edges", []):
            job.connect(u, v)
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"malformed job encoding: {exc}") from exc
    job.validate()
    return job


def job_from_json(text: str) -> Job:
    """Decode a job from its JSON encoding (validates the DAG)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return job_from_dict(data)
