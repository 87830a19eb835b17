"""Operation traces: record, serialise and replay workloads.

The paper's evaluation plan (Section 9) calls for a simulator whose
results a later time-accurate emulator can validate; reproducible
traces are the contract between the two.  A trace is a list of
:class:`~repro.workloads.synthetic.FileOp` rows with a text
serialisation, so identical operation streams can be replayed against
different device/FS configurations (the Section 4.1 paper check does
this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

from .synthetic import FileOp, OpKind, apply_op


@dataclass
class Trace:
    """A recorded operation stream."""

    ops: List[FileOp] = field(default_factory=list)

    def append(self, op: FileOp) -> None:
        """Record one operation."""
        self.ops.append(op)

    def extend(self, ops: Iterable[FileOp]) -> None:
        """Record many operations."""
        self.ops.extend(ops)

    def dumps(self) -> str:
        """Serialise to one line per op: ``kind path size seed``."""
        lines = [f"{op.kind.value} {op.path} {op.size} {op.seed}"
                 for op in self.ops]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def loads(cls, text: str) -> "Trace":
        """Parse the :meth:`dumps` format."""
        ops: List[FileOp] = []
        for line_no, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"trace line {line_no}: expected 4 fields")
            kind, path, size, seed = parts
            ops.append(FileOp(OpKind(kind), path, int(size), int(seed)))
        return cls(ops=ops)

    def replay(self, fs, ignore_errors: bool = False) -> dict:
        """Apply the trace to a file system; returns op counters."""
        from ..errors import ReproError

        counts = {kind.value: 0 for kind in OpKind}
        counts["errors"] = 0
        for op in self.ops:
            try:
                apply_op(fs, op)
                counts[op.kind.value] += 1
            except ReproError:
                counts["errors"] += 1
                if not ignore_errors:
                    raise
        return counts

    def __len__(self) -> int:
        return len(self.ops)


def record_workload(workload) -> Trace:
    """Materialise a generator-based workload into a trace."""
    trace = Trace()
    trace.extend(workload.generate())
    return trace
