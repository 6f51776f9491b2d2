"""The controller's buffer database."""

import random
from types import SimpleNamespace

import pytest

from repro.check.invariants import replicated_entries
from repro.core.controller import GlobalMemoryController
from repro.core.database import BufferDatabase
from repro.core.protocol import BufferDescriptor, BufferKind
from repro.errors import BufferError_, ControllerError


def _desc(buffer_id, host="h1", kind=BufferKind.ZOMBIE, user=None):
    return BufferDescriptor(buffer_id=buffer_id, host=host, offset=0,
                            size_bytes=1024, kind=kind, rkey=buffer_id,
                            user=user)


class TestMutations:
    def test_add_and_get(self):
        db = BufferDatabase()
        db.add(_desc(1))
        assert db.get(1).host == "h1"
        assert 1 in db and len(db) == 1

    def test_duplicate_add_rejected(self):
        db = BufferDatabase()
        db.add(_desc(1))
        with pytest.raises(BufferError_):
            db.add(_desc(1))

    def test_assign_unassign(self):
        db = BufferDatabase()
        db.add(_desc(1))
        assert db.assign(1, "user-a", "swap").user == "user-a"
        assert db.get(1).allocated and db.get(1).purpose == "swap"
        db.unassign(1)
        assert not db.get(1).allocated and db.get(1).purpose is None

    def test_double_assign_rejected(self):
        db = BufferDatabase()
        db.add(_desc(1))
        db.assign(1, "a")
        with pytest.raises(BufferError_):
            db.assign(1, "b")

    def test_unassign_free_rejected(self):
        db = BufferDatabase()
        db.add(_desc(1))
        with pytest.raises(BufferError_):
            db.unassign(1)

    def test_remove(self):
        db = BufferDatabase()
        db.add(_desc(1))
        assert db.remove(1).buffer_id == 1
        assert 1 not in db
        with pytest.raises(BufferError_):
            db.remove(1)

    def test_set_kind(self):
        db = BufferDatabase()
        db.add(_desc(1, kind=BufferKind.ACTIVE))
        db.set_kind(1, BufferKind.ZOMBIE)
        assert db.get(1).kind is BufferKind.ZOMBIE


class TestQueries:
    def _populated(self):
        db = BufferDatabase()
        db.add(_desc(1, host="h1", kind=BufferKind.ACTIVE))
        db.add(_desc(2, host="h2", kind=BufferKind.ZOMBIE))
        db.add(_desc(3, host="h2", kind=BufferKind.ZOMBIE))
        db.add(_desc(4, host="h3", kind=BufferKind.ACTIVE))
        db.assign(3, "user")
        return db

    def test_free_buffers_zombie_first(self):
        db = self._populated()
        free = db.free_buffers(zombie_first=True)
        assert [b.buffer_id for b in free] == [2, 1, 4]

    def test_free_buffers_plain_order(self):
        db = self._populated()
        assert [b.buffer_id for b in db.free_buffers(zombie_first=False)] \
            == [1, 2, 4]

    def test_by_host_and_user(self):
        db = self._populated()
        assert {b.buffer_id for b in db.by_host("h2")} == {2, 3}
        assert [b.buffer_id for b in db.by_user("user")] == [3]

    def test_allocated_count_by_host(self):
        db = self._populated()
        counts = db.allocated_count_by_host()
        assert counts == {"h1": 0, "h2": 1, "h3": 0}

    def test_byte_accounting(self):
        db = self._populated()
        assert db.total_bytes() == 4 * 1024
        assert db.free_bytes() == 3 * 1024


class TestJournalAndMirroring:
    def test_journal_records_every_mutation(self):
        db = BufferDatabase()
        db.add(_desc(1))
        db.assign(1, "u")
        db.unassign(1)
        db.remove(1)
        db.host_add("h1")
        db.host_add("h1")      # already known: journals nothing
        db.zombie_add("h1")
        db.zombie_remove("h1")
        ops = [op for op, _ in db.journal]
        assert ops == ["add", "assign", "unassign", "remove",
                       "host_add", "zombie_add", "zombie_remove"]

    def test_replaying_journal_reproduces_state(self):
        primary = BufferDatabase()
        primary.add(_desc(1))
        primary.add(_desc(2, host="h2"))
        primary.assign(1, "user-a", "swap")
        primary.set_kind(2, BufferKind.ZOMBIE)
        primary.remove(2)
        primary.host_add("h3")
        primary.zombie_add("h2")
        primary.zombie_add("h1")
        primary.zombie_remove("h2")

        replica = BufferDatabase()
        for op, args in primary.journal:
            replica.apply(op, args)
        assert replicated_entries(replica) == replicated_entries(primary)
        assert replica.get(1).purpose == "swap"
        assert replica.zombie_hosts == {"h1"}
        assert replica.known_hosts == {"h1", "h2", "h3"}
        assert not replica.journal      # a standby's apply journals nothing

    def test_unknown_mirror_op_rejected(self):
        with pytest.raises(ControllerError):
            BufferDatabase().apply("frobnicate", ())

    def test_replica_refuses_what_the_primary_refuses(self):
        """A replayed entry passes the primary's own checks: a replica
        that diverged refuses it instead of absorbing it."""
        replica = BufferDatabase()
        replica.apply("add", (_desc(1),))
        with pytest.raises(BufferError_):
            replica.apply("remove", (2,))                    # unknown id
        with pytest.raises(BufferError_):
            replica.apply("add", (_desc(1, host="h2"),))     # live id
        assert replica.all_buffers() == [_desc(1)]
        assert not replica.journal

    def test_snapshot_round_trip(self):
        db = self._make_db()
        replica = BufferDatabase()
        replica.adopt(db)
        assert replicated_entries(replica) == replicated_entries(db)
        assert replica.snapshot() == db.snapshot()
        assert replica.get(1).purpose == "ext"
        assert not replica.journal      # the adopted state is the log's origin
        replica.unassign(1)             # ... and a copy, not a view
        replica.zombie_remove("h1")
        assert db.get(1).user == "u" and db.zombie_hosts == {"h1"}

    @staticmethod
    def _make_db():
        db = BufferDatabase()
        db.add(_desc(1))
        db.assign(1, "u", "ext")
        db.zombie_add("h1")
        return db


# -- the scans the pool indexes replace: the oracle ---------------------------

def _scan_free(db, zombie_first=True):
    free = [b for b in db.all_buffers() if not b.allocated]
    if zombie_first:
        free.sort(key=lambda b: (b.kind is not BufferKind.ZOMBIE,
                                 b.buffer_id))
    else:
        free.sort(key=lambda b: b.buffer_id)
    return free


def _scan_pick_free(db, user, nb, stripe):
    """The allocation engine's pick as a whole-pool filter and sort."""
    tiers = {}
    for descriptor in _scan_free(db):
        if descriptor.host != user:
            tiers.setdefault(descriptor.kind is BufferKind.ZOMBIE, {}) \
                .setdefault(descriptor.host, []).append(descriptor)
    chosen = []
    for is_zombie in (True, False):
        buckets = [tiers[is_zombie][host]
                   for host in sorted(tiers.get(is_zombie, {}))]
        if not stripe:
            for bucket in buckets:
                while bucket and len(chosen) < nb:
                    chosen.append(bucket.pop(0))
        while len(chosen) < nb and buckets:
            for bucket in buckets:
                if bucket and len(chosen) < nb:
                    chosen.append(bucket.pop(0))
            buckets = [b for b in buckets if b]
    return chosen


def _scans(db, hosts, users):
    """Every indexed query, answered by scanning the records."""
    records = db.all_buffers()
    free = _scan_free(db)
    counts = {}
    for b in records:
        counts.setdefault(b.host, 0)
        counts[b.host] += b.allocated
    buckets = {True: {}, False: {}}
    for b in free:
        buckets[b.kind is BufferKind.ZOMBIE].setdefault(
            b.host, []).append(b.buffer_id)
    zombie_free = [b for b in free if b.kind is BufferKind.ZOMBIE]
    return {
        "by_host": {h: [b for b in records if b.host == h] for h in hosts},
        "free_buffers": free,
        "free_buffers_by_id": _scan_free(db, zombie_first=False),
        "free_buckets": buckets,
        "free_in_tier": {z: [b for b in free
                             if (b.kind is BufferKind.ZOMBIE) == z]
                         for z in (True, False)},
        "free_zombie_totals": (len(zombie_free),
                               sum(b.size_bytes for b in zombie_free)),
        "allocated_count_by_host": counts,
        "free_bytes": sum(b.size_bytes for b in free),
        "total_bytes": sum(b.size_bytes for b in records),
        "pick_free": {(u, nb, stripe): _scan_pick_free(db, u, nb, stripe)
                      for u in users for nb in (1, 3, 7)
                      for stripe in (True, False)},
    }


def _answers(db, hosts, users):
    """The same queries, answered from the indexes."""
    return {
        "by_host": {h: db.by_host(h) for h in hosts},
        "free_buffers": db.free_buffers(zombie_first=True),
        "free_buffers_by_id": db.free_buffers(zombie_first=False),
        "free_buckets": {z: {h: list(ids)
                             for h, ids in db.free_buckets(z).items()}
                         for z in (True, False)},
        "free_in_tier": {z: db.free_in_tier(z) for z in (True, False)},
        "free_zombie_totals": db.free_zombie_totals(),
        "allocated_count_by_host": db.allocated_count_by_host(),
        "free_bytes": db.free_bytes(),
        "total_bytes": db.total_bytes(),
        "pick_free": {(u, nb, stripe): GlobalMemoryController._pick_free(
                          SimpleNamespace(db=db, stripe=stripe), u, nb)
                      for u in users for nb in (1, 3, 7)
                      for stripe in (True, False)},
    }


class TestPoolIndex:
    """The pool indexes are kept, not scanned: every indexed query must
    equal its scan after every mutation, on the primary, on a replica
    fed through ``apply`` and across ``adopt``."""

    HOSTS = ["h0", "h1", "h2", "h3"]
    USERS = ["h0", "h2", "u0", "u1"]
    KINDS = list(BufferKind)

    @pytest.mark.parametrize("seed", range(8))
    def test_indexes_match_scans_over_random_ops(self, seed):
        rng = random.Random(seed)
        primary, replica = BufferDatabase(), BufferDatabase()
        next_id = iter(range(1, 10_000))
        seen = set()

        def descriptor(buffer_id, user=None):
            return BufferDescriptor(
                buffer_id=buffer_id, host=rng.choice(self.HOSTS), offset=0,
                size_bytes=1024 * rng.randint(1, 4),
                kind=rng.choice(self.KINDS), rkey=buffer_id, user=user,
                purpose=user and "ext")

        for _ in range(300):
            ids = [b.buffer_id for b in primary.all_buffers()]
            free = [i for i in ids if not primary.get(i).allocated]
            held = [i for i in ids if primary.get(i).allocated]
            op = rng.randrange(10)
            if op <= 2 or not ids:
                user = rng.choice(self.USERS) if rng.random() < 0.2 else None
                primary.add(descriptor(next(next_id), user))
            elif op == 3:
                primary.remove(rng.choice(ids))
            elif op == 4 and free:
                primary.assign(rng.choice(free), rng.choice(self.USERS),
                               rng.choice(["ext", "swap", "fed"]))
            elif op == 5 and held:
                primary.unassign(rng.choice(held))
            elif op == 6:
                primary.set_kind(rng.choice(ids), rng.choice(self.KINDS))
            elif op == 7:
                primary.zombie_add(rng.choice(self.HOSTS))
            elif op == 9:
                # A promotion seeds a fresh primary from the replica; the
                # replica then re-adopts over its own populated pool.
                while primary.journal:
                    replica.apply(*primary.journal.popleft())
                promoted = BufferDatabase()
                promoted.adopt(replica)
                replica.adopt(promoted)
                primary = promoted
            while primary.journal:
                replica.apply(*primary.journal.popleft())
            seen.update(b.host for b in primary.free_buffers())
            answers = _answers(primary, self.HOSTS, self.USERS)
            assert answers == _scans(primary, self.HOSTS, self.USERS)
            assert _answers(replica, self.HOSTS, self.USERS) == answers
        assert seen == set(self.HOSTS)
        assert len(primary) > 0
