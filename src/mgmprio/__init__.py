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

from .analytic import *
from .distributions import *
from .model import *
from .scenario import *
from . import analytic, distributions, model, scenario

# The simulating modules import numpy, which costs several times the rest of
# the package; their names load on first access (PEP 562), so the closed
# forms and the scenario parser never pay for it.
_LAZY = {
    **dict.fromkeys(
        ("ClassEstimate", "ComparisonRow", "ReplicationMetadata", "SimulationReport", "compare", "replicate"),
        "replication",
    ),
    **dict.fromkeys(
        ("JOB_RECORD_CSV_HEADER", "JobLog", "JobRecord", "PolicyConfig", "RawClassStats", "RunConfig",
         "RunResult", "TraceInput", "per_class_raw", "run", "substreams", "write_job_records"),
        "simulation",
    ),
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

__all__ = [*analytic.__all__, *distributions.__all__, *model.__all__, *scenario.__all__, *_LAZY]
