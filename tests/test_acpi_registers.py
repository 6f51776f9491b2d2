"""The PM1A/PM1B sleep-control register block."""

import pytest

from repro.acpi.registers import SLP_EN, Pm1Registers, SleepType
from repro.acpi.states import SleepState
from repro.errors import PowerStateError


class TestSleepType:
    def test_zombie_uses_a_previously_unused_encoding(self):
        standard = {SleepType.S0, SleepType.S3, SleepType.S4, SleepType.S5}
        assert SleepType.SZ not in standard
        assert int(SleepType.SZ) == 6

    def test_round_trip_for_every_state(self):
        for state in SleepState:
            assert SleepType.for_state(state).state is state


class TestPm1Registers:
    def test_write_sleep_invokes_platform_handler(self):
        regs = Pm1Registers()
        seen = []
        regs.connect(seen.append)
        regs.write_sleep(SleepType.SZ)
        assert seen == [SleepState.SZ]

    def test_both_registers_get_the_same_value(self):
        regs = Pm1Registers()
        regs.connect(lambda state: None)
        regs.write_sleep(SleepType.S3)
        assert regs.pm1a_cnt == regs.pm1b_cnt

    def test_slp_en_set_on_final_write(self):
        regs = Pm1Registers()
        regs.connect(lambda state: None)
        regs.write_sleep(SleepType.SZ)
        assert regs.pm1a_cnt & SLP_EN

    def test_write_audit_log_records_both_steps(self):
        regs = Pm1Registers()
        regs.connect(lambda state: None)
        regs.write_sleep(SleepType.SZ)
        assert len(regs.writes) == 2
        assert not regs.writes[0] & SLP_EN
        assert regs.writes[1] & SLP_EN

    def test_unconnected_registers_raise(self):
        with pytest.raises(PowerStateError):
            Pm1Registers().write_sleep(SleepType.S3)

    def test_clear_on_wake(self):
        regs = Pm1Registers()
        regs.connect(lambda state: None)
        regs.write_sleep(SleepType.SZ)
        regs.clear()
        assert regs.pm1a_cnt == 0 and regs.pm1b_cnt == 0
