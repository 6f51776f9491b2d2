"""Rack energy monitoring: integrate real server states over engine time.

The Fig. 10 simulation works on aggregate demand; this monitor instead
meters an actual :class:`~repro.core.rack.Rack` — sampling every server's
power state as the discrete-event clock advances and integrating energy
with a measured machine profile.  It is what an operator's power panel
would show for the rack, and what the examples use to report watt-hours.

When the rack carries an enabled :class:`~repro.obs.Telemetry` hub, every
sample also publishes the fleet-accountability gauges ZomAudit grades on
(previously these were computed ad hoc and invisible to the exporters):

- ``stranded_bytes{host=...}`` — powered DRAM serving nobody: free local
  frames on an S0 host, unallocated lent pool bytes on a zombie;
- ``host_memory_bytes{host=...}`` — usable capacity per host;
- ``zombie_pool_bytes`` / ``zombie_pool_free_bytes`` — the rack's
  zombie-served pool and its unallocated (stranded) remainder;

plus per-host ``host_energy_joules_total`` / ``host_power_watts`` via
each meter's :meth:`~repro.energy.meter.EnergyMeter.attach_metrics`.
The four gauges ZomAudit reads are pinned by the ZL007 lint rule, and
the obs self-check requires all six in its golden run, so none can
silently drop out of the exporters again.
"""

from __future__ import annotations

from typing import Dict, List

from repro.acpi.states import SleepState
from repro.energy.meter import EnergyMeter
from repro.energy.model import server_power_watts
from repro.energy.profiles import MachineProfile
from repro.errors import ConfigurationError
from repro.core.protocol import BufferKind
from repro.sim.process import PeriodicProcess
from repro.units import joules_to_kwh, pages_to_bytes


class RackEnergyMonitor:
    """Per-server energy meters driven by periodic state sampling."""

    def __init__(self, rack, profile: MachineProfile,
                 sample_period_s: float = 1.0):
        if sample_period_s <= 0:
            raise ConfigurationError("sample_period_s must be positive")
        self.rack = rack
        self.profile = profile
        start = rack.engine.now
        self._registry = (rack.telemetry.registry
                          if rack.telemetry.enabled else None)
        self.meters: Dict[str, EnergyMeter] = {}
        for name in rack.servers:
            meter = EnergyMeter(start_time=start)
            if self._registry is not None:
                meter.attach_metrics(self._registry, host=name)
            self.meters[name] = meter
        self._sampler = PeriodicProcess(rack.engine, sample_period_s,
                                        self.sample, name="rack-energy")
        self._sampler.start()
        self.sample()  # initial power levels

    @staticmethod
    def _booking_utilization(server) -> float:
        """CPU utilization of an S0 server, proxied by its vCPU bookings."""
        from repro.cloud.zombiestack import DEFAULT_VCPU_CAPACITY
        return min(1.0, server.hypervisor.vcpus_booked
                   / DEFAULT_VCPU_CAPACITY)

    def sample(self) -> None:
        """Record every server's current power level and memory gauges."""
        now = self.rack.engine.now
        for name, server in self.rack.servers.items():
            state = server.state
            utilization = (self._booking_utilization(server)
                           if state is SleepState.S0 else 0.0)
            watts = server_power_watts(self.profile, state, utilization)
            self.meters[name].set_power(now, watts)
        if self._registry is not None:
            self._publish_memory_gauges()

    # -- memory accountability ---------------------------------------------
    def _free_pool_bytes_by_host(self) -> Dict[str, float]:
        """Unallocated lent-pool bytes per serving host (controller view)."""
        free: Dict[str, float] = {}
        for descriptor in self.rack.controller.db.all_buffers():
            if descriptor.user is None:
                free[descriptor.host] = (free.get(descriptor.host, 0.0)
                                         + descriptor.size_bytes)
        return free

    def _stranded_bytes(self, name: str, server,
                        free_pool: Dict[str, float]) -> float:
        """Powered-but-idle DRAM on ``name`` (the audit's stranded gauge).

        An S0 host strands its free local frames (drawing full idle
        power while backing nothing); a zombie strands the slice of its
        lent pool that no user has allocated yet.  Suspended boards
        (S3 and deeper) keep DRAM in self-refresh but serve nothing by
        design, so they do not count as *powered* stranded memory.
        """
        if server.is_zombie:
            return free_pool.get(name, 0.0)
        if server.state is SleepState.S0:
            return float(server.free_bytes)
        return 0.0

    def _publish_memory_gauges(self) -> None:
        registry = self._registry
        free_pool = self._free_pool_bytes_by_host()
        for name, server in self.rack.servers.items():
            registry.gauge(
                "host_memory_bytes", "Usable DRAM per host.", host=name
            ).set(pages_to_bytes(server.allocator.total_frames))
            registry.gauge(
                "stranded_bytes",
                "Powered DRAM serving nobody (free S0 frames, "
                "unallocated zombie pool).", host=name
            ).set(self._stranded_bytes(name, server, free_pool))
        pool_bytes = free_bytes = 0.0
        for descriptor in self.rack.controller.db.all_buffers():
            if descriptor.kind is not BufferKind.ZOMBIE:
                continue
            pool_bytes += descriptor.size_bytes
            if descriptor.user is None:
                free_bytes += descriptor.size_bytes
        registry.gauge("zombie_pool_bytes",
                       "Bytes lent into the pool by Sz hosts."
                       ).set(pool_bytes)
        registry.gauge("zombie_pool_free_bytes",
                       "Zombie pool bytes no user has allocated."
                       ).set(free_bytes)

    def host_samples(self) -> List:
        """Per-host :class:`~repro.obs.audit.inputs.HostSample` rows."""
        from repro.obs.audit.inputs import HostSample
        free_pool = self._free_pool_bytes_by_host()
        out = []
        for name in sorted(self.rack.servers):
            server = self.rack.servers[name]
            out.append(HostSample(
                name=name,
                state=server.state.name,
                capacity_bytes=pages_to_bytes(server.allocator.total_frames),
                stranded_bytes=self._stranded_bytes(name, server, free_pool),
                lent_bytes=float(server.manager.lent_bytes),
            ))
        return out

    def stop(self) -> None:
        self._sampler.stop()

    # -- readings ----------------------------------------------------------
    def server_joules(self, name: str) -> float:
        meter = self.meters.get(name)
        if meter is None:
            raise ConfigurationError(f"unknown server {name!r}")
        meter.advance(self.rack.engine.now)
        return meter.joules

    def total_joules(self) -> float:
        return sum(self.server_joules(name) for name in self.meters)

    def total_kwh(self) -> float:
        return joules_to_kwh(self.total_joules())

    def report(self) -> Dict[str, float]:
        """Per-server joules, up to the current engine time."""
        return {name: self.server_joules(name) for name in sorted(self.meters)}
