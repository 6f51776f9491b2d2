"""Cross-rack zombie lending: the ``FED_borrow``/``FED_return`` plane.

A loan moves no data.  The donor's controller assigns free zombie-pool
buffers to a federation user; the borrower's controller *imports* the
descriptors (same host names, same rkeys — one-sided verbs address the
donor's hosts directly over the shared fabric) and hands them to local
users with normal zombie-first priority.

Every (borrower, donor) pair gets one :class:`LendingAgent`: a node in
the *borrower's* rack that the donor's controller talks to exactly the
way it talks to its own serving hosts.  That buys recall-for-free — a
donor host waking up revokes loaned buffers through the existing
``US_reclaim`` plane, and the agent re-homes the borrower side — plus
fencing for free: the agent's RPC server keeps the same per-rack epoch
watermark as any serving host's, so a deposed donor primary cannot
recall loans it no longer owns.  The agent is registered in the
donor rack's agent table, so a donor failover wires the promoted
primary to it like any serving host.

Both ``FED_*`` verbs are ``dedup_required``: the borrow channel retries
under its policy, and the donor replays cached grants for re-delivered
request ids — a lost reply or duplicated borrow can never double-lend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.protocol import Method
from repro.core.rack import PrimaryChannel
from repro.core.recovery import OwedWork
from repro.errors import (BufferError_, ConfigurationError, ControllerError,
                          RpcError)
from repro.rdma.rpc import RpcServer


@dataclass
class Loan:
    """One borrowed buffer as tracked by the federation."""

    buffer_id: int
    donor: str
    borrower: str


class LendingAgent:
    """The borrower-side endpoint of one borrower ← donor lending pair."""

    def __init__(self, manager: "LendingManager", borrower: str, donor: str):
        self.manager = manager
        self.borrower = borrower
        self.donor = donor
        fed = manager.fed
        self.node = fed.fabric.add_node(f"{borrower}/fed-from-{donor}")
        fed.fabric.set_rack(self.node.name, borrower)
        self.rpc = RpcServer(self.node)
        #: Borrows and returns go to the donor's current primary.
        self.channel = PrimaryChannel(fed.racks[donor], self.node,
                                      fed.racks[borrower].retry_policy)
        register = self.rpc.register
        register(Method.US_RECLAIM.value, self.us_reclaim)
        register(Method.US_INVALIDATE.value, self.us_invalidate)
        register(Method.AS_GET_FREE_MEM.value, self.as_get_free_mem)
        register(Method.AS_RESYNC.value, self.as_resync)
        register(Method.HEARTBEAT.value, self.heartbeat)

    # -- the donor-facing revocation plane --------------------------------
    def heartbeat(self) -> str:
        return "alive"

    def us_reclaim(self, buffer_ids: List[int]) -> int:
        """Donor-initiated recall: a waking host is taking loans back."""
        return self.manager.recalled_by_donor(self.donor, buffer_ids)

    def us_invalidate(self, host: str, buffer_ids: List[int]) -> int:
        """Donor lost a serving host: the loaned content is gone."""
        return self.manager.recalled_by_donor(self.donor, buffer_ids)

    def as_get_free_mem(self) -> list:
        """A federation agent has no local frames to lend."""
        return []

    def as_resync(self, buffer_ids: List[int]) -> int:
        return 0


class LendingManager:
    """The federation's loan table and borrow/return/recall engine."""

    def __init__(self, federation):
        self.fed = federation
        self.loans: Dict[int, Loan] = {}
        self.agents: Dict[Tuple[str, str], LendingAgent] = {}
        #: Recalled loans not yet dropped on their borrower: (borrower,
        #: donor) → ids, settled by :meth:`pump_recalls`.
        self.owed_recalls = OwedWork()
        self.borrows = 0
        self.returns = 0
        self.recalls = 0

    # -- wiring -----------------------------------------------------------
    def agent_for(self, borrower: str, donor: str) -> LendingAgent:
        """The agent of one borrower ← donor pair, built on first use.

        A new agent is registered with the donor rack, which wires its
        primary — and any primary it promotes later — to the agent.
        """
        key = (borrower, donor)
        agent = self.agents.get(key)
        if agent is None:
            agent = LendingAgent(self, borrower, donor)
            self.agents[key] = agent
            self.fed.racks[donor].attach_agent(agent.node.name, agent.rpc)
        return agent

    # -- borrow / return --------------------------------------------------
    def borrow(self, borrower: str, donor: str, nb_buffers: int) -> int:
        """Borrow up to ``nb_buffers`` zombie buffers from ``donor``.

        The grant is imported into the borrower's controller database,
        so its allocation engine serves the loaned memory with normal
        zombie-first priority.  Returns the number of buffers borrowed;
        raises :class:`AllocationError` when the donor pool is dry.
        """
        self.pump_recalls()
        agent = self.agent_for(borrower, donor)
        granted = agent.channel.call(
            Method.FED_BORROW.value, agent.node.name, nb_buffers)
        self.fed.racks[borrower].controller.fed_import(granted)
        for descriptor in granted:
            self.loans[descriptor.buffer_id] = Loan(
                buffer_id=descriptor.buffer_id, donor=donor,
                borrower=borrower)
        self.borrows += len(granted)
        registry = self.fed.telemetry.registry
        registry.counter(
            "fed_borrows_total", "Buffers borrowed across racks.",
            src_rack=borrower, dst_rack=donor).inc(len(granted))
        return len(granted)

    def return_loans(self, borrower: str, donor: str,
                     buffer_ids: Optional[List[int]] = None) -> int:
        """Proactively give loans back (default: every loan of the pair).

        The borrower side drops first (recalling the buffers from any
        local user), then ``FED_return`` frees them on the donor — the
        same order a donor-initiated recall uses, so a crash between the
        two steps leaves the loan recallable, never double-owned.
        """
        self.pump_recalls()
        pair = [loan.buffer_id for loan in self.loans.values()
                if loan.borrower == borrower and loan.donor == donor]
        wanted = pair if buffer_ids is None else [
            b for b in buffer_ids if b in pair]
        if not wanted:
            return 0
        agent = self.agent_for(borrower, donor)
        dropped = self.fed.racks[borrower].controller.fed_recall(
            sorted(wanted))
        agent.channel.call(Method.FED_RETURN.value, agent.node.name,
                           sorted(wanted))
        for buffer_id in wanted:
            self.loans.pop(buffer_id, None)
        self.returns += len(wanted)
        registry = self.fed.telemetry.registry
        registry.counter(
            "fed_returns_total", "Buffers returned across racks.",
            src_rack=borrower, dst_rack=donor).inc(len(wanted))
        return len(dropped)

    # -- donor-initiated recall -------------------------------------------
    def recalled_by_donor(self, donor: str, buffer_ids: List[int]) -> int:
        """The donor revoked loans; owe their drop to each borrower and
        settle what is owed (see :meth:`pump_recalls`)."""
        for buffer_id in sorted(buffer_ids):
            loan = self.loans.get(buffer_id)
            if loan is not None and loan.donor == donor:
                self.owed_recalls.owe(loan.borrower, donor, [buffer_id])
        return self.pump_recalls()

    def pump_recalls(self) -> int:
        """Drop every owed recall on its borrower; returns how many loans
        were dropped.

        Every lending operation starts here, so a drop a borrower could
        not take (a transport/controller fault while revoking its local
        users) is retried by the next one — the donor's reclaim must not
        block on a borrower's flaky user.
        """
        if not self.owed_recalls:
            return 0
        dropped = self.owed_recalls.pay(self._drop_recalled)
        self.recalls += dropped
        return dropped

    def _drop_recalled(self, borrower: str, _: str, ids: List[int]) -> bool:
        """Drop recalled loans from the borrower's database, or return
        ``False`` on a fault (no event: this sits on the donor's
        ``US_reclaim`` call graph, and ``owed_recalls`` shows the debt)."""
        try:
            self.fed.racks[borrower].controller.fed_recall(ids)
        except (RpcError, ControllerError, BufferError_,
                ConfigurationError):
            return False
        for buffer_id in ids:
            self.loans.pop(buffer_id, None)
        return True

    # -- introspection ----------------------------------------------------
    def loans_from(self, donor: str) -> List[Loan]:
        return sorted((l for l in self.loans.values() if l.donor == donor),
                      key=lambda l: l.buffer_id)
