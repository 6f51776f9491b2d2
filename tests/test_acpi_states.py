"""The S-state set, including Sz semantics."""

import pytest

from repro.acpi.states import SYSFS_KEYWORDS, SleepState


class TestStateProperties:
    def test_only_s0_runs_the_cpu(self):
        assert SleepState.S0.cpu_alive
        for state in (SleepState.S3, SleepState.S4, SleepState.S5,
                      SleepState.SZ):
            assert not state.cpu_alive

    def test_sz_is_the_only_sleeping_state_serving_memory(self):
        serving = [s for s in SleepState
                   if s.memory_remotely_accessible and s is not SleepState.S0]
        assert serving == [SleepState.SZ]

    def test_s3_retains_but_does_not_serve(self):
        assert not SleepState.S3.memory_remotely_accessible

    def test_s0_is_not_sleeping(self):
        targets = (SleepState.S3, SleepState.S4, SleepState.S5, SleepState.SZ)
        assert SleepState.S0 not in targets
        assert not any(s.cpu_alive for s in targets)


class TestWakeLatency:
    def test_sz_wakes_like_s3(self):
        assert SleepState.SZ.wake_latency_s == SleepState.S3.wake_latency_s

    def test_deeper_states_wake_slower(self):
        assert (SleepState.S3.wake_latency_s
                < SleepState.S4.wake_latency_s
                < SleepState.S5.wake_latency_s)

    def test_s0_wake_is_free(self):
        assert SleepState.S0.wake_latency_s == 0.0


class TestSysfsKeywords:
    def test_zom_keyword_added_by_the_patch(self):
        assert SYSFS_KEYWORDS["zom"] is SleepState.SZ

    def test_standard_keywords(self):
        assert SYSFS_KEYWORDS["mem"] is SleepState.S3
        assert SYSFS_KEYWORDS["disk"] is SleepState.S4

    def test_str_renders_paper_name(self):
        assert str(SleepState.SZ) == "Sz"
