"""The five ZomBench workloads: closed-loop drivers over ``repro.*`` only.

Each workload is one single-threaded client that waits for every reply
(the simulator is single threaded, every real caller blocks on its RPC),
so the loop is closed with one client.  A workload issues its driver ops
in *chunks*, and ``window_chunks`` consecutive chunks make one *window*:
a complete cycle of whatever the workload repeats (a scan of the whole
VM, a release/wake period, a day, a sweep), so that every window does
statistically the same work and window rates can be compared.  The
first ``prefix_windows`` windows are a fixed amount of work on which
every simulated-time value and count is taken (so they repeat
bit-exactly for a seed); the runner keeps issuing windows after that
until its time budget is used up.

The seed perturbs a scenario, it does not re-roll it: arrival times are
jittered on a fixed grid, allocation sizes drawn from a narrow range.
Ten seeds are ten samples of one workload, not ten workloads.

Nothing here imports from ``tests/`` or the sibling ``bench_*.py`` files,
which later PRs may rewrite.  Layer entry points are called through
their module or class at call time (``google.generate_trace``,
``self.hv.access``), never through a name bound at import, so the span
wrappers of a traced run are seen.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

from repro.cloud.zombiestack import ZombieStackOrchestrator
from repro.core import recovery
from repro.core.rack import Rack
from repro.dc import energy_sim, fleet as dc_fleet
from repro.energy.model import server_power_watts
from repro.energy.profiles import DELL_PROFILE, HP_PROFILE
from repro.energy.rack_monitor import RackEnergyMonitor
from repro.errors import ReproError
from repro.acpi.states import SleepState
from repro.fed import Federation
from repro.hypervisor.vm import VmSpec
from repro.obs import Telemetry, export as obs_export
from repro.obs.tracing import span_forest_errors
from repro.rdma.fabric import LinkFaults
from repro.sim.rng import DeterministicRng
from repro.traces import google, transform
from repro.traces.schema import TraceConfig
from repro.units import DAY, HOUR, MiB, PAGE_SIZE, joules_to_kwh
from repro.workloads.patterns import sliding_window_scan, zipf_stream

import layers


class Workload:
    """Common shape of a workload; see the module docstring."""

    name = ""
    #: What one driver op is (printed beside every rate).
    op_unit = ""
    #: Chunks per window, and windows in the fixed prefix (set by
    #: ``make_inputs``, which knows the scale).
    window_chunks = 1
    prefix_windows = 1
    #: Host seconds the telemetry exporters took (traced rack only).
    export_s = 0.0

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.scale = scale
        #: Counts only the driver can keep: what ``Engine.run`` returned,
        #: trace tasks and demand slots handled, and the public counters
        #: of systems that no longer exist (one fleet per Fig. 10 sweep).
        self.driver_counts: Counter = Counter()

    def make_inputs(self) -> None:
        """Generate the seeded inputs (once per process, not set-up)."""

    def setup(self) -> None:
        """Build the system under test and warm it; fresh on every call."""
        raise NotImplementedError

    def chunk(self, meter, index: int) -> None:
        """Issue the ``index``-th chunk of driver ops through ``meter``."""
        raise NotImplementedError

    def world(self) -> "layers.World":
        """The live objects whose public counters describe the run."""
        raise NotImplementedError

    def sim_seconds(self) -> float:
        """Simulated time charged to the driver's ops so far."""
        raise NotImplementedError

    def energy_saving_pct(self) -> float:
        raise NotImplementedError

    def at_prefix(self) -> List[str]:
        """Checks that need the state at the end of the fixed prefix."""
        return []

    def finish(self, ops_issued: int) -> List[str]:
        """Drain, then check the run's invariants; returns the problems."""
        raise NotImplementedError


def _power_saving_pct(racks: List[Rack], all_s0_watts: float) -> float:
    """Board power now against the same racks with every host in S0."""
    now = sum(rack.total_power_watts() for rack in racks)
    return (1.0 - now / all_s0_watts) * 100.0


# -- ramext_paging -------------------------------------------------------------

class RamextPaging(Workload):
    """The hypervisor fault path: one RAM-Ext VM, half of it remote.

    A round is 4 608 zipf-popular accesses over the whole VM followed by
    a two-pass scan (with its own hot set) of one eighth of it; eight
    rounds scan the whole VM once and make one window.
    """

    name = "ramext_paging"
    op_unit = "guest access"
    VM_BYTES = 64 * MiB
    #: Accesses per latency sample.
    BATCH = 256
    ZIPF_PER_ROUND = 4608
    window_chunks = 8
    #: Windows in the fixed prefix at ``--scale 1`` (~78 k accesses each).
    WINDOWS = 6

    def make_inputs(self) -> None:
        rng = DeterministicRng(self.seed)
        pages = self.VM_BYTES // PAGE_SIZE
        region = pages // self.window_chunks
        self.prefix_windows = max(1, round(self.WINDOWS * self.scale))
        self.rounds = []
        for index in range(self.prefix_windows * self.window_chunks):
            # One int per access (ppn * 2 + is_write): 4 bytes instead of
            # a tuple, and the decode is two int ops against a ~4 us access.
            stream = array("i")
            for ppn, write in zipf_stream(pages, self.ZIPF_PER_ROUND, rng,
                                          alpha=0.9, write_ratio=0.3):
                stream.append(ppn * 2 + write)
            base = (index % self.window_chunks) * region
            for ppn, write in sliding_window_scan(region, rng, window_frac=1.0,
                                                  passes=2):
                stream.append((base + ppn) * 2 + write)
            self.rounds.append([stream[i:i + self.BATCH]
                                for i in range(0, len(stream), self.BATCH)])

    def setup(self) -> None:
        self.rack = Rack(["user", "zombie"], memory_bytes=256 * MiB,
                         buff_size=8 * MiB, rng_seed=self.seed)
        self.all_s0_watts = self.rack.total_power_watts()
        self.rack.make_zombie("zombie")
        self.pool_before = self.rack.pool_summary()
        self.vm = self.rack.create_vm("user", VmSpec("vm", self.VM_BYTES),
                                      local_fraction=0.5, policy="Mixed")
        self.hv = self.rack.server("user").hypervisor
        # Warm-up: first touch of every page, so the timed region sees
        # steady-state paging (a full local quota, a populated store).
        for ppn in range(self.vm.spec.total_pages):
            self.hv.access(self.vm, ppn)
        self.warm_accesses = self.hv.stats("vm").accesses
        self.warm_sim_s = self.hv.stats("vm").time_total_s

    def _run_batch(self, batch) -> int:
        access = self.hv.access
        vm = self.vm
        for packed in batch:
            access(vm, packed >> 1, packed & 1)
        return len(batch)

    def chunk(self, meter, index: int) -> None:
        for batch in self.rounds[index % len(self.rounds)]:
            meter.batch(self._run_batch, batch)

    def world(self):
        return layers.World(racks=[self.rack], driver_counts=self.driver_counts)

    def sim_seconds(self) -> float:
        return self.hv.stats("vm").time_total_s - self.warm_sim_s

    def energy_saving_pct(self) -> float:
        return _power_saving_pct([self.rack], self.all_s0_watts)

    def finish(self, ops_issued: int) -> List[str]:
        problems = []
        stats = self.hv.stats("vm")
        if stats.accesses - self.warm_accesses != ops_issued:
            problems.append(f"issued {ops_issued} accesses, hypervisor "
                            f"counted {stats.accesses - self.warm_accesses}")
        if stats.demand_allocs + stats.remote_fills != stats.page_faults:
            problems.append("demand allocs + remote fills != page faults")
        if not 0 < stats.page_faults < stats.accesses:
            problems.append("no mix of hits and faults")
        self.rack.destroy_vm("user", "vm")
        if self.rack.pool_summary() != self.pool_before:
            problems.append(f"pool {self.rack.pool_summary()} after "
                            f"destroy_vm, {self.pool_before} before create_vm")
        return problems


# -- fed_churn -----------------------------------------------------------------

class FedChurn(Workload):
    """The control path: allocation churn, lending and Sz exit/entry."""

    name = "fed_churn"
    op_unit = "gateway/lending/power call"
    BUFF = 16 * MiB
    #: A window is one wake period: five releases, then one wake.
    window_chunks = 50
    #: Windows in the fixed prefix at ``--scale 1``.
    WINDOWS = 8
    #: Cold tenants hold this many buffers and churn against the cap
    #: every round; hot tenants only grow until the periodic release.
    COLD_CAP = 8
    #: Buffers a hot tenant asks for per call.  Four hot tenants drain
    #: the home pool (~160 buffers once its active hosts have lent) in
    #: about eight rounds and stay under what the three donor racks can
    #: lend (~130) until the release at round ten: no call fails.
    HOT_ASK = (4, 6)
    RELEASE_EVERY = 10
    #: One wake and one Sz re-entry per ~630 ops: 0.3 % of the latency
    #: samples, clear of the 99th percentile.  At every 25 rounds they
    #: were 0.6 %, op_p99_us sat on the edge of their 100x cliff.
    WAKE_EVERY = 50

    def make_inputs(self) -> None:
        self.prefix_windows = max(1, round(self.WINDOWS * self.scale))

    def setup(self) -> None:
        fed = self.fed = Federation(n_racks=4, hosts_per_rack=4,
                                    memory_bytes=512 * MiB,
                                    buff_size=self.BUFF, rng_seed=self.seed)
        self.racks = [fed.racks[name] for name in fed.rack_names]
        self.all_s0_watts = sum(r.total_power_watts() for r in self.racks)
        for rack in fed.rack_names:
            fed.make_zombie(f"{rack}/h3")
            fed.make_zombie(f"{rack}/h4")
        self.tenants = [f"{rack}/h{j}" for rack in fed.rack_names
                        for j in (1, 2)]
        self.home = {t: fed.gateway.home_of(t) for t in self.tenants}
        # The hot rack is whichever the ring made home to most tenants.
        crowd = Counter(self.home.values())
        hot_rack = min(crowd, key=lambda rack: (-crowd[rack], rack))
        self.hot = [t for t in self.tenants if self.home[t] == hot_rack]
        self.holdings: Dict[str, List[int]] = {t: [] for t in self.tenants}
        self.rng = DeterministicRng(self.seed).fork(11)
        self.round = 0
        # Warm-up: first call of the tenant-facing verbs on every channel.
        for tenant in self.tenants:
            granted = fed.gateway.alloc_ext(tenant, self.BUFF)
            fed.gateway.release(tenant, [d.buffer_id for d in granted])

    def _reconcile(self) -> None:
        """Re-read every tenant's holdings from its home controller.

        A wake or a returned loan revokes buffers behind the tenant's
        back (``US_reclaim``, recalled loans); that is protocol, not
        failure, and releasing from a stale list would raise.
        """
        for tenant in self.tenants:
            db = self.fed.racks[self.home[tenant]].controller.db
            self.holdings[tenant] = sorted(
                b.buffer_id for b in db.by_user(tenant))

    def _release(self, meter, tenant: str, count: int) -> None:
        """Release the tenant's ``count`` oldest buffers (none if <= 0)."""
        if count <= 0:
            return
        held = self.holdings[tenant]
        ids, self.holdings[tenant] = held[:count], held[count:]
        meter.op(self.fed.gateway.release, tenant, ids)

    def _wake_and_rezombify(self, meter) -> None:
        """One serving host leaves Sz, takes its memory back, re-enters."""
        fed = self.fed
        serving = Counter()
        for loan in fed.lending.loans.values():
            db = fed.racks[loan.donor].controller.db
            serving[db.get(loan.buffer_id).host] += 1
        if serving:
            # The host backing most loans: its reclaim has to recall.
            host = min(serving, key=lambda h: (-serving[h], h))
        else:
            host = self.rng.choice(sorted(
                s.name for rack in self.racks for s in rack.zombie_servers()))
        # A full reclaim, as the orchestrator's wake-on-demand does: every
        # buffer the host lent comes back, the loaned ones by recall.
        lent = fed.rack(fed.rack_of_server(host)).server(host).manager.lent_bytes
        meter.op(fed.wake, host, reclaim_bytes=lent)
        self._reconcile()
        meter.op(fed.make_zombie, host)

    def _loan_pairs(self) -> List[tuple]:
        return sorted({(loan.borrower, loan.donor)
                       for loan in self.fed.lending.loans.values()})

    def _return_all_loans(self, meter) -> None:
        for borrower, donor in self._loan_pairs():
            meter.op(self.fed.lending.return_loans, borrower, donor)

    def chunk(self, meter, index: int) -> None:
        self.round += 1
        gateway = self.fed.gateway
        for tenant in self.tenants:
            hot = tenant in self.hot
            buffers = self.rng.randint(*self.HOT_ASK) if hot else 1
            granted = meter.op(gateway.alloc_ext, tenant, buffers * self.BUFF)
            if granted:
                self.holdings[tenant].extend(d.buffer_id for d in granted)
            if not hot:
                self._release(meter, tenant,
                              len(self.holdings[tenant]) - self.COLD_CAP)
        # Wake before the periodic release: the hot rack's loans are
        # still open, so the waking host has to recall them.
        if self.round % self.WAKE_EVERY == 0:
            self._wake_and_rezombify(meter)
        if self.round % self.RELEASE_EVERY == 0:
            for tenant in self.hot:
                self._release(meter, tenant, len(self.holdings[tenant]))
            self._return_all_loans(meter)
            self._reconcile()

    def world(self):
        return layers.World(racks=self.racks, feds=[self.fed],
                            driver_counts=self.driver_counts)

    def sim_seconds(self) -> float:
        return self.fed.fabric.stats.busy_seconds

    def energy_saving_pct(self) -> float:
        return _power_saving_pct(self.racks, self.all_s0_watts)

    def finish(self, ops_issued: int) -> List[str]:
        fed = self.fed
        self._reconcile()
        for tenant in self.tenants:
            if self.holdings[tenant]:
                fed.gateway.release(tenant, self.holdings[tenant])
        for borrower, donor in self._loan_pairs():
            fed.lending.return_loans(borrower, donor)
        problems = []
        stats = fed.stats()
        if stats["open_loans"]:
            problems.append(f"{stats['open_loans']} loans still open")
        for key in ("borrows", "returns", "recalls"):
            if not stats[key]:
                problems.append(f"no {key}: lending never engaged")
        for rack in self.racks:
            allocated = [b for b in rack.controller.db.all_buffers()
                         if b.allocated]
            if allocated:
                problems.append(f"{rack.name}: {len(allocated)} buffers "
                                "still allocated after the final release")
            if rack.controller.mirror_lag:
                problems.append(f"{rack.name}: mirror lag "
                                f"{rack.controller.mirror_lag}")
            key = lambda b: b.buffer_id
            if (sorted(rack.controller.db.snapshot(), key=key)
                    != sorted(rack.secondary.db.snapshot(), key=key)):
                problems.append(f"{rack.name}: secondary diverged")
        return problems


# -- rack_day / rack_day_traced ------------------------------------------------

class RackDay(Workload):
    """A metered rack on the event engine: arrivals, consolidation, probes.

    The script is the same with and without ``traced``; ``traced`` adds
    an enabled telemetry hub, message faults on every link, one serving
    host crash and one controller kill, and compresses the day to two
    simulated hours — arrivals, lifetimes and the consolidation period
    shrink by twelve, heartbeats, probes and energy samples keep their
    real periods — because the traced rack runs at a fifth of the speed
    and a day has to fit the tracer's span ring.  One day is one
    window; every VM a day boots is gone before the day ends.
    """

    name = "rack_day"
    op_unit = "simulated second"
    DAY_S = DAY
    #: The driver advances the engine in slices; one slice is one latency
    #: sample.  About 16 slices a day hold a power transition (26+ ms of
    #: frame carving).  At 300 s they are 5.5 % of the samples and the
    #: 99th percentile sits on their plateau; at 60 s they were 1.1 % and
    #: op_p99_us flipped between 60 and 150 us from seed to seed.
    SLICE_S = 300.0
    ARRIVALS_PER_DAY = 32
    N_SERVERS = 8
    traced = False

    def make_inputs(self) -> None:
        # The prefix is always one day; --scale shortens the day itself
        # (down to eight slices, enough for the traced script's faults).
        self.window_chunks = max(8, round(self.DAY_S * self.scale
                                          / self.SLICE_S))
        self.day_s = self.window_chunks * self.SLICE_S
        self.compress = self.day_s / DAY

    def _telemetry(self) -> Optional[Telemetry]:
        return None

    def _install_faults(self) -> None:
        pass

    def setup(self) -> None:
        self.telemetry = self._telemetry()
        self.rack = Rack([f"s{i}" for i in range(self.N_SERVERS)],
                         memory_bytes=256 * MiB, buff_size=8 * MiB,
                         rng_seed=self.seed, telemetry=self.telemetry)
        self.orch = ZombieStackOrchestrator(
            self.rack, vcpu_capacity=32, underload_vcpu_fraction=0.4,
            consolidation_period_s=600.0 * self.compress)
        self.monitor = RackEnergyMonitor(self.rack, HP_PROFILE,
                                         sample_period_s=60.0)
        self.first_controller = self.rack.controller
        self.rack.start_host_monitoring(probe_period_s=1.0, miss_threshold=6)
        self._install_faults()
        self.rng = DeterministicRng(self.seed).fork(17)
        self.scheduled = self.booted = self.stopped = self.boot_failures = 0
        #: name -> (boot time, vcpus) of running VMs, and the vCPU-seconds
        #: of stopped ones: the load an unmanaged rack would carry too.
        self.running: Dict[str, tuple] = {}
        self.vcpu_seconds = 0.0
        # Warm-up: one VM through boot and stop (first call of the
        # allocation, placement and release verbs).
        self.orch.boot_vm(VmSpec("warm", 16 * MiB, vcpus=4))
        self.orch.stop_vm("warm")

    # -- the script -----------------------------------------------------------
    def _boot(self, name: str, vcpus: int, mem: int, lifetime: float) -> None:
        try:
            self.orch.boot_vm(VmSpec(name, mem, vcpus=vcpus))
        except ReproError:
            self.boot_failures += 1
            return
        self.booted += 1
        self.running[name] = (self.rack.engine.now, vcpus)
        self.rack.engine.schedule(lifetime, lambda: self._stop(name))

    def _stop(self, name: str) -> None:
        self.orch.stop_vm(name)
        started, vcpus = self.running.pop(name)
        self.vcpu_seconds += vcpus * (self.rack.engine.now - started)
        self.stopped += 1

    def _schedule_day(self, day: int) -> None:
        """Arrivals on a grid over the first 70 % of the day, jittered.

        Sizes and lifetimes (1 to 6 compressed hours) rotate through
        fixed patterns; the seed moves each arrival inside its grid cell
        and stretches each lifetime by up to 5 %.
        """
        rng = self.rng
        base = day * self.day_s
        cell = 0.7 * self.day_s / self.ARRIVALS_PER_DAY
        for i in range(self.ARRIVALS_PER_DAY):
            at = base + (i + rng.random()) * cell
            vcpus = (4, 4, 8, 8)[i % 4]
            mem = (16, 24, 32)[i % 3] * MiB
            hours = 1.0 + 5.0 * ((i * 7) % 32) / 31.0
            lifetime = (hours * HOUR * self.compress
                        * rng.uniform(0.95, 1.05))
            self.rack.engine.schedule_at(
                at, lambda n=f"d{day}vm{i}", v=vcpus, m=mem, l=lifetime:
                self._boot(n, v, m, l))
            self.scheduled += 1

    def _advance_slice(self) -> int:
        engine = self.rack.engine
        self.driver_counts["sim.events"] += engine.run(
            until=engine.now + self.SLICE_S)
        return int(self.SLICE_S)

    def chunk(self, meter, index: int) -> None:
        if index % self.window_chunks == 0:
            self._schedule_day(index // self.window_chunks)
        meter.batch(self._advance_slice)

    # -- readings -------------------------------------------------------------
    def world(self):
        retired = ([] if self.rack.controller is self.first_controller
                   else [self.first_controller])
        return layers.World(racks=[self.rack], telemetry=self.telemetry,
                            monitor=self.monitor,
                            retired_controllers=retired,
                            driver_counts=self.driver_counts)

    def sim_seconds(self) -> float:
        return self.rack.fabric.stats.busy_seconds

    def _baseline_joules(self) -> float:
        """The same booked load on a rack that never leaves S0.

        S0 power is linear in utilisation, so where the VMs sit does not
        matter: N idle boards plus the load's share of (max - idle).
        """
        now = self.rack.engine.now
        vcpu_seconds = self.vcpu_seconds + sum(
            vcpus * (now - started)
            for started, vcpus in self.running.values())
        idle = server_power_watts(HP_PROFILE, SleepState.S0, 0.0)
        full = server_power_watts(HP_PROFILE, SleepState.S0, 1.0)
        return (self.N_SERVERS * idle * now
                + (full - idle) * vcpu_seconds / self.orch.vcpu_capacity)

    def energy_saving_pct(self) -> float:
        return (1.0 - self.monitor.total_joules()
                / self._baseline_joules()) * 100.0

    def finish(self, ops_issued: int) -> List[str]:
        problems = []
        if self.boot_failures:
            problems.append(f"{self.boot_failures} VM boots failed")
        if self.stopped + len(self.running) != self.booted:
            problems.append("stopped + running != booted")
        if self.booted > self.scheduled or not self.booted:
            problems.append(f"booted {self.booted} of {self.scheduled} "
                            "scheduled arrivals")
        if not 0.0 < self.monitor.total_kwh() < joules_to_kwh(
                self._baseline_joules()):
            problems.append("metered energy not below the all-S0 baseline")
        if not self.traced and self.rack.recovery.incidents:
            problems.append(f"{len(self.rack.recovery.incidents)} recovery "
                            "incidents on a fault-free rack")
        return problems


class RackDayTraced(RackDay):
    """``rack_day`` traced, retried, deduplicated and fenced."""

    name = "rack_day_traced"
    traced = True
    #: One 2-hour day in the prefix: its ~50 k spans must fit the
    #: tracer's 100 k ring whole, because the span forest is checked on
    #: it.  After the prefix the ring bounds memory however long the
    #: run lasts.
    DAY_S = 2 * HOUR
    #: A transition every 7.5 compressed minutes: at 30 s they are ~7 %
    #: of the samples, and a run has over 2 000 samples.
    SLICE_S = 30.0
    CRASHED = "s7"

    def _telemetry(self) -> Telemetry:
        return Telemetry(enabled=True)

    def _install_faults(self) -> None:
        crash_at = 0.2 * self.day_s
        recovery.FaultSchedule([
            recovery.FaultAction(0.0, recovery.MESSAGE_FAULTS, "*", src="*",
                                 faults=LinkFaults(reply_loss=0.02,
                                                   duplicate=0.03)),
            recovery.FaultAction(crash_at, recovery.CRASH, self.CRASHED),
            recovery.FaultAction(crash_at + 60.0, recovery.HEAL,
                                 self.CRASHED),
            recovery.FaultAction(0.5 * self.day_s, recovery.KILL_CONTROLLER),
        ]).install(self.rack)

    def at_prefix(self) -> List[str]:
        """Whole-trace checks, taken before the span ring starts dropping."""
        tel = self.telemetry
        problems = []
        if tel.tracer.dropped:
            problems.append(f"{tel.tracer.dropped} spans dropped inside "
                            "the prefix; the forest check needs them all")
        problems += span_forest_errors(tel.tracer.finished())[:5]
        started = time.perf_counter()
        chrome = obs_export.to_chrome_trace(tel.tracer, tel.registry)
        prom = obs_export.to_prometheus_text(tel.registry)
        self.export_s = time.perf_counter() - started
        problems += obs_export.validate_chrome_trace(chrome)[:5]
        problems += obs_export.validate_prometheus_text(prom)[:5]
        rack = self.rack
        if not sum(rack.fabric.message_faults.injected.values()):
            problems.append("no message fault was injected")
        world = layers.public_counters(self.world())
        if not world["rdma.rpc.dedup_replays"]:
            problems.append("no duplicate was absorbed by the dedup table")
        if not world["rdma.rpc.retries"]:
            problems.append("no RPC was retried")
        if rack.controller.epoch != 2:
            problems.append(f"epoch {rack.controller.epoch}, expected 2 "
                            "after one failover")
        incidents = rack.recovery.stats_for(self.CRASHED)
        if not incidents or incidents[0].recovered_at is None:
            problems.append(f"{self.CRASHED}: crash not detected and "
                            "recovered")
        if rack.controller.mirror_lag:
            problems.append(f"mirror lag {rack.controller.mirror_lag}")
        return problems


# -- fig10_sweep ---------------------------------------------------------------

class Fig10Sweep(Workload):
    """The batch path: trace generation, demand slots, the energy sweep."""

    name = "fig10_sweep"
    op_unit = "trace task"
    #: Servers per sweep (the paper: 12 583; the bars are ratios).  One
    #: sweep is one window; each takes the next seed.
    N_SERVERS = 100
    DAYS = 14.0
    #: Sweeps in the fixed prefix at ``--scale 1``.
    SWEEPS = 4

    def make_inputs(self) -> None:
        self.prefix_windows = max(1, round(self.SWEEPS * self.scale))

    def setup(self) -> None:
        self.sweeps: List[dict] = []
        self.fleet = None
        self.sim_s = 0.0

    def _sweep(self, seed: int) -> int:
        n = self.N_SERVERS
        config = TraceConfig(n_servers=n, duration_days=self.DAYS, seed=seed)
        # Generation is inside the timed region: users pay it every run.
        original = google.generate_trace(config)
        modified = transform.double_memory_demand(original)
        profiles = (HP_PROFILE, DELL_PROFILE)
        bars = {
            "original": energy_sim.energy_saving_comparison(
                original, n, profiles),
            "modified": energy_sim.energy_saving_comparison(
                modified, n, profiles),
        }
        fleet = dc_fleet.build_fleet(n, n_racks=4)
        enacted = energy_sim.simulate_energy(
            modified, n, HP_PROFILE, "ZombieStack", backend="federation",
            fleet=fleet)
        self.sweeps.append({"bars": bars,
                            "federation_pct": enacted.saving_pct})
        self.fleet = fleet
        self.sim_s += fleet.fed.fabric.stats.busy_seconds
        self.driver_counts["traces.tasks"] += len(original) + len(modified)
        # Two trace sets x two profiles x three policies, plus the
        # enacted sweep: thirteen passes over the hourly slots.
        self.driver_counts["dc.slots"] += 13 * enacted.slots
        return len(original)

    def chunk(self, meter, index: int) -> None:
        meter.batch(self._sweep, self.seed + index)
        # Each sweep builds its own fleet; keep its counters, not the
        # fleet, or peak_rss_mib would grow with the run's length.
        fed = self.fleet.fed
        self.driver_counts.update(layers.public_counters(layers.World(
            racks=list(fed.racks.values()), feds=[fed])))
        self.fleet = None

    def world(self):
        return layers.World(driver_counts=self.driver_counts)

    def sim_seconds(self) -> float:
        return self.sim_s

    def energy_saving_pct(self) -> float:
        """The Fig. 10 bar (modified traces, HP), mean over the sweeps."""
        bars = [sweep["bars"]["modified"]["HP"]["ZombieStack"]
                for sweep in self.sweeps]
        return sum(bars) / len(bars)

    def finish(self, ops_issued: int) -> List[str]:
        problems = []
        for i, sweep in enumerate(self.sweeps):
            bars = sweep["bars"]
            for trace_set, rows in bars.items():
                for machine, row in rows.items():
                    if not (row["ZombieStack"] > row["Oasis"]
                            >= row["Neat"] > 0):
                        problems.append(f"sweep {i} {trace_set}/{machine}: "
                                        f"ordering broken {row}")
            for machine in ("HP", "Dell"):
                ratio = {s: bars[s][machine]["ZombieStack"]
                         / bars[s][machine]["Neat"] for s in bars}
                if not ratio["modified"] > ratio["original"]:
                    problems.append(f"sweep {i} {machine}: ZombieStack/Neat "
                                    "does not widen on the modified traces")
            gap = abs(sweep["federation_pct"]
                      - bars["modified"]["HP"]["ZombieStack"])
            if gap > 0.5:
                problems.append(f"sweep {i}: federation backend {gap:.2f} pt "
                                "from the aggregate bar")
        return problems


WORKLOADS: Dict[str, Callable[[int, float], Workload]] = {
    cls.name: cls for cls in (RamextPaging, FedChurn, RackDay, RackDayTraced,
                              Fig10Sweep)}
