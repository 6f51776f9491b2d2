"""The cloud operating system layer (ZombieStack) and its Neat baseline.

- :mod:`~repro.cloud.model` — host/VM cluster model shared by the
  schedulers;
- :mod:`~repro.cloud.nova` — Nova-style filter/weigh placement with the
  relaxed (50 % local memory) RAM filter;
- :mod:`~repro.cloud.neat` — OpenStack-Neat-style consolidation, vanilla
  and zombie-aware variants;
- :mod:`~repro.cloud.admission` — rack-level admission control preventing
  remote-memory overcommitment.
"""

from repro.cloud.model import ClusterModel, HostModel, VmInstance, HostPowerState
from repro.cloud.nova import NovaScheduler
from repro.cloud.neat import NeatConsolidator
from repro.cloud.admission import AdmissionController
from repro.cloud.zombiestack import ZombieStackOrchestrator, OrchestratorReport

__all__ = [
    "ClusterModel", "HostModel", "VmInstance", "HostPowerState",
    "NovaScheduler", "NeatConsolidator",
    "AdmissionController", "ZombieStackOrchestrator", "OrchestratorReport",
]
