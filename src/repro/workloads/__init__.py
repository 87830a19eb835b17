"""Workload generators for the paper checks, the examples and the soak.

* :mod:`~repro.workloads.synthetic` — seeded file-operation mixes.
* :mod:`~repro.workloads.database` — the paper's motivating database +
  audit-snapshot application.
* :mod:`~repro.workloads.archival` — SOX-style compliance retention.
* :mod:`~repro.workloads.traces` — record / serialise / replay.
* :mod:`~repro.workloads.soak` — trace-driven chaos soak: mixed fleet
  pressure under scheduled worker kills/restarts, invariant-checked
  against a serial shadow fleet.
"""

from .archival import ComplianceArchive, RetentionBatch
from .database import SimpleDatabase, oltp_then_snapshot
from .synthetic import FileOp, OpKind, SyntheticWorkload, apply_op, payload_for, run_workload
from .traces import Trace, record_workload

#: Soak-harness names, imported lazily (PEP 562): ``python -m
#: repro.workloads.soak`` must not double-import the module.
_SOAK_EXPORTS = (
    "SoakConfig",
    "SoakFault",
    "SoakReport",
    "build_trace",
    "run_soak",
)


def __getattr__(name: str):
    if name in _SOAK_EXPORTS:
        from . import soak as _soak

        value = getattr(_soak, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SOAK_EXPORTS))


__all__ = [
    "FileOp",
    "OpKind",
    "SyntheticWorkload",
    "apply_op",
    "payload_for",
    "run_workload",
    "SimpleDatabase",
    "oltp_then_snapshot",
    "ComplianceArchive",
    "RetentionBatch",
    "Trace",
    "record_workload",
    "SoakConfig",
    "SoakFault",
    "SoakReport",
    "build_trace",
    "run_soak",
]
