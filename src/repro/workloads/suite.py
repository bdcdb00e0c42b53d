"""Workload registry (populated as benchmarks are implemented)."""

from __future__ import annotations

from typing import Dict, List, Type

from repro.errors import WorkloadError
from repro.workloads.base import Workload

_REGISTRY: Dict[str, Type[Workload]] = {}


def register(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator: add a workload to the registry."""
    if cls.name in _REGISTRY:
        raise WorkloadError(f"duplicate workload name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def registered(workload: Workload) -> bool:
    """True when ``workload`` is an instance of the class registered
    under its name, so the registry rebuilds it from name and scale."""
    return _REGISTRY.get(workload.name) is type(workload)


def workload_names() -> List[str]:
    return list(_REGISTRY)


def get_workload(name: str, scale: int = 1) -> Workload:
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}")
    return cls(scale=scale)


def jvm98_suite(scale: int = 1) -> List[Workload]:
    """The seven SPEC JVM98 equivalents, in the paper's order."""
    order = ["compress", "jess", "db", "javac", "mpegaudio", "mtrt",
             "jack"]
    return [get_workload(name, scale) for name in order
            if name in _REGISTRY]


def full_suite(scale: int = 1) -> List[Workload]:
    """JVM98 plus JBB2005."""
    suite = jvm98_suite(scale)
    if "jbb2005" in _REGISTRY:
        suite.append(get_workload("jbb2005", scale))
    return suite
