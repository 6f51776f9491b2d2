"""The controller's buffer database."""

import pytest

from repro.check.invariants import replicated_entries
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
