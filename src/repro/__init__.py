"""repro — a reproduction of *Towards Tamper-evident Storage on
Patterned Media* (Hartel, Abelmann, Khatib; FAST 2008).

The package builds the paper's whole stack in simulation:

* :mod:`repro.physics` — Co/Pt multilayer anisotropy, annealing
  kinetics, torque magnetometry, XRD, tip heating, MFM read-back
  (Sections 6-7, Figs 1 and 7-9);
* :mod:`repro.medium` — the heatable patterned-dot medium;
* :mod:`repro.device` — the SERO block device: mwb/mrb/ewb/erb,
  sector framing with ECC, heat_line / verify_line (Section 3);
* :mod:`repro.fs` — SeroFS, the SERO-aware log-structured file system
  with heat-aware cleaning and forensic recovery (Section 4);
* :mod:`repro.integrity` — Venti hash trees, the fossilised index and
  evidence bags on SERO storage (Sections 4.2, 8);
* :mod:`repro.security` — the Section 5 threat model and attack matrix;
* :mod:`repro.crypto`, :mod:`repro.workloads`, :mod:`repro.analysis` —
  supporting substrates;
* :mod:`repro.api` — the v1 public surface: the
  :class:`TamperEvidentStore` façade, the rack-scale
  :class:`~repro.api.FleetStore` shard façade and the
  :class:`~repro.api.ExecutionPolicy` knob table;
* :mod:`repro.parallel` — the fleet execution layer: the ``serial``
  (in-process) and ``rpc`` (across processes) executors and the
  consistent-hash shard ring.

Quick start (the façade drives the whole stack)::

    import repro

    store = repro.TamperEvidentStore.create(total_blocks=512)
    store.put("/ledger", b"audit me")
    receipt = store.seal("/ledger")          # now tamper-evident
    assert store.verify("/ledger").intact
    assert store.audit().clean               # batched whole-store sweep

Deployment knobs (fleet executor, hosts, gateway, search) share one
lazy resolution order — explicit argument > ``with repro.engine(
executor="rpc"):`` context > installed policy > ``REPRO_*``
environment (read at call time).  The paper's literal per-dot protocol
is the test oracle, not a knob; it is built by explicit argument::

    oracle = repro.TamperEvidentStore.create(
        total_blocks=64,
        device_config=repro.DeviceConfig(span_engine=False))

The pre-façade building blocks (:class:`SERODevice`, :class:`SeroFS`,
:class:`VentiStore`, ...) remain fully supported public API.
"""

from .api import (
    AuditReport,
    ExecutionPolicy,
    FleetStore,
    ObjectInfo,
    SealReceipt,
    StoreConfig,
    TamperEvidentStore,
    VerifyReport,
    engine,
)
from .device.sero import DeviceConfig, LineRecord, SERODevice, VerifyStatus
from .errors import ReproError, TamperEvidentError
from .fs.lfs import FSConfig, SeroFS
from .integrity.evidence import EvidenceBag
from .integrity.fossil import FossilizedIndex
from .integrity.venti import VentiStore

__version__ = "13.0.0"

__all__ = [
    # v1 façade + policy
    "TamperEvidentStore",
    "StoreConfig",
    "ObjectInfo",
    "SealReceipt",
    "VerifyReport",
    "AuditReport",
    "FleetStore",
    "ExecutionPolicy",
    "engine",
    # building blocks
    "SERODevice",
    "DeviceConfig",
    "LineRecord",
    "VerifyStatus",
    "SeroFS",
    "FSConfig",
    "VentiStore",
    "FossilizedIndex",
    "EvidenceBag",
    "ReproError",
    "TamperEvidentError",
    "__version__",
]
