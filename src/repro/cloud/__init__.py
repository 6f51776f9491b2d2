"""The cloud operating system layer (ZombieStack) over a live rack.

- :mod:`~repro.cloud.zombiestack` — the orchestrator: Nova-style placement
  with the relaxed (50 % local memory) RAM filter, wake-up of the LRU
  zombie, and Neat-style consolidation that parks evacuated hosts in Sz;
- :mod:`~repro.cloud.admission` — rack-level admission control preventing
  remote-memory overcommitment.
"""

from repro.cloud.admission import AdmissionController
from repro.cloud.zombiestack import ZombieStackOrchestrator, OrchestratorReport

__all__ = ["AdmissionController", "ZombieStackOrchestrator", "OrchestratorReport"]
