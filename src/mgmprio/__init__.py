"""Per-class performance metrics for multiserver preemptive priority queues.

The queue has identical parallel servers and Poisson priority classes.
Higher classes displace lower ones mid-service (preemptive resume, victims
picked first come, first displaced), and within a class waiting jobs are
served most recent first by default.  The package provides closed-form
metrics (an any-service-law approximation plus two exact special cases), a
discrete-event simulator with the same semantics for validating them, and
replication statistics to compare the two.
"""

from .analytic import (
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
from .replication import (
    METRIC_NAMES,
    ClassEstimate,
    ComparisonRow,
    ReplicationMetadata,
    SimulationReport,
    compare,
    replicate,
)
from .scenario import Scenario, ScenarioError, parse_scenario, render_scenario
from .simulation import (
    JOB_RECORD_CSV_HEADER,
    JobLog,
    JobRecord,
    PolicyConfig,
    RawClassStats,
    RunConfig,
    RunResult,
    TraceInput,
    per_class_raw,
    run,
    write_job_records,
)
from .streams import RandomStream, substreams

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
