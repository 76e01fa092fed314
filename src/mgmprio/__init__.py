"""Per-class performance metrics for multiserver preemptive priority queues.

The queue has identical parallel servers and Poisson priority classes.
Higher classes displace lower ones mid-service (preemptive resume, victims
picked first come, first displaced), and within a class waiting jobs are
served most recent first by default.  The package provides closed-form
metrics (an any-service-law approximation plus two exact special cases), a
discrete-event simulator with the same semantics for validating them, and
replication statistics to compare the two.
"""

from importlib import import_module

from .analytic import (
    METRIC_NAMES,
    ClassMetrics,
    IdentityResiduals,
    LoadProfile,
    approx_metrics,
    check_identities,
    erlang_c,
    exact_mmm_identical,
    exact_single_channel,
    loads,
)
from .distributions import (
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    ServiceDistribution,
    Uniform,
    parse_distribution,
)
from .model import ClassSpec, DomainError, SystemModel
from .scenario import Scenario, ScenarioError, parse_scenario, render_scenario

# The simulating modules import numpy, which costs several times the rest of
# the package; their names load on first access (PEP 562), so the closed
# forms and the scenario parser never pay for it.
_LAZY = {
    "ClassEstimate": "replication",
    "ComparisonRow": "replication",
    "ReplicationMetadata": "replication",
    "SimulationReport": "replication",
    "compare": "replication",
    "replicate": "replication",
    "JOB_RECORD_CSV_HEADER": "simulation",
    "JobLog": "simulation",
    "JobRecord": "simulation",
    "PolicyConfig": "simulation",
    "RawClassStats": "simulation",
    "RunConfig": "simulation",
    "RunResult": "simulation",
    "TraceInput": "simulation",
    "per_class_raw": "simulation",
    "run": "simulation",
    "write_job_records": "simulation",
    "RandomStream": "streams",
    "substreams": "streams",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "ClassMetrics",
    "IdentityResiduals",
    "LoadProfile",
    "approx_metrics",
    "check_identities",
    "erlang_c",
    "exact_mmm_identical",
    "exact_single_channel",
    "loads",
    "Deterministic",
    "Erlang",
    "Exponential",
    "HyperExponential",
    "ServiceDistribution",
    "Uniform",
    "parse_distribution",
    "ClassSpec",
    "DomainError",
    "SystemModel",
    "METRIC_NAMES",
    "ClassEstimate",
    "ComparisonRow",
    "ReplicationMetadata",
    "SimulationReport",
    "compare",
    "replicate",
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "render_scenario",
    "JOB_RECORD_CSV_HEADER",
    "JobLog",
    "JobRecord",
    "PolicyConfig",
    "RawClassStats",
    "RunConfig",
    "RunResult",
    "TraceInput",
    "per_class_raw",
    "run",
    "write_job_records",
    "RandomStream",
    "substreams",
]
