"""Device D-states, DRAM refresh modes, the NIC DMA path."""

from repro.acpi.devices import (Cpu, DeviceState, InfinibandCard,
                                MemoryBank, MemoryBankDevice,
                                PcieRootComplex, StorageDevice)
from repro.acpi.platform import build_platform


class TestDeviceStates:
    def test_d0_is_operational(self):
        assert DeviceState.D0.operational
        assert not DeviceState.D3_HOT.operational


class TestMemoryBank:
    def test_active_idle_serves(self):
        bank = MemoryBankDevice()
        assert bank.serves_accesses

    def test_self_refresh_retains_but_does_not_serve(self):
        bank = MemoryBankDevice()
        bank.enter_self_refresh()
        assert bank.state.operational  # still powered
        assert not bank.serves_accesses

    def test_mode_round_trip(self):
        bank = MemoryBankDevice()
        bank.enter_self_refresh()
        bank.enter_active_idle()
        assert bank.mode is MemoryBank.ACTIVE_IDLE
        assert bank.serves_accesses

    def test_powered_off_bank_cannot_serve(self):
        platform = build_platform()
        for bank in platform.memory_banks:
            bank.set_state(DeviceState.D3_COLD)
            assert not bank.serves_accesses
        assert not platform.memory_remotely_accessible()


class TestInfinibandCard:
    """The NIC→DRAM DMA path, as the fabric reads it off the platform."""

    def test_dma_path_needs_card_and_bank(self):
        platform = build_platform()
        assert platform.infiniband.serves_rdma
        assert all(bank.serves_accesses for bank in platform.memory_banks)
        assert platform.memory_remotely_accessible()

    def test_dma_fails_with_card_in_wol(self):
        platform = build_platform()
        platform.infiniband.set_state(DeviceState.D3_HOT)
        assert not platform.infiniband.serves_rdma
        assert not platform.memory_remotely_accessible()

    def test_dma_fails_with_bank_in_self_refresh(self):
        platform = build_platform()
        for bank in platform.memory_banks:
            bank.enter_self_refresh()
        assert platform.infiniband.serves_rdma
        assert not platform.memory_remotely_accessible()


class TestDeviceCatalog:
    def test_default_domains(self):
        assert Cpu().domain == "cpu"
        assert MemoryBankDevice().domain == "memory"
        assert InfinibandCard().domain == "nic"
        assert PcieRootComplex().domain == "nic"
        assert StorageDevice().domain == "storage"
