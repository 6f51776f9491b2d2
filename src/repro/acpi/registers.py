"""The PM1 sleep-control register block.

On real hardware the OS triggers a sleep transition by programming SLP_TYP
and setting SLP_EN in the PM1A/PM1B control registers; the platform reads the
registers and sequences the transition.  The paper reuses an unused SLP_TYP
encoding to request the zombie state (Section 3.1).
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from repro.acpi.states import SleepState
from repro.errors import PowerStateError


class SleepType(enum.IntEnum):
    """SLP_TYP encodings.  Values 0-5 mirror a typical FADT; 6 was unused
    on commodity chipsets and is claimed for zombie."""

    S0 = 0
    S3 = 3
    S4 = 4
    S5 = 5
    SZ = 6  # the paper's new encoding

    @classmethod
    def for_state(cls, state: SleepState) -> "SleepType":
        try:
            return _STATE_TO_TYPE[state]
        except KeyError:
            raise PowerStateError(f"no SLP_TYP encoding for {state}") from None

    @property
    def state(self) -> SleepState:
        return _TYPE_TO_STATE[self]


_STATE_TO_TYPE = {
    SleepState.S0: SleepType.S0,
    SleepState.S3: SleepType.S3,
    SleepState.S4: SleepType.S4,
    SleepState.S5: SleepType.S5,
    SleepState.SZ: SleepType.SZ,
}
_TYPE_TO_STATE = {v: k for k, v in _STATE_TO_TYPE.items()}

SLP_EN = 1 << 13  # sleep-enable bit position in PM1_CNT
_SLP_TYP_SHIFT = 10
_SLP_TYP_MASK = 0x7 << _SLP_TYP_SHIFT


class Pm1Registers:
    """A paired PM1A/PM1B control register block.

    Writing SLP_EN with a SLP_TYP latched invokes the platform's transition
    handler — the hardware side of ``x86_acpi_enter_sleep_state``.
    """

    def __init__(self) -> None:
        self.pm1a_cnt = 0
        self.pm1b_cnt = 0
        #: The last transition's raw writes: SLP_TYP alone, then with SLP_EN.
        self.writes: List[int] = []
        self._handler: Optional[Callable[[SleepState], None]] = None

    def connect(self, handler: Callable[[SleepState], None]) -> None:
        """Attach the platform hardware that reacts to SLP_EN writes."""
        self._handler = handler

    def write_sleep(self, sleep_type: SleepType) -> None:
        """Program SLP_TYP into both registers and set SLP_EN.

        Mirrors ``acpi_hw_legacy_sleep``: both PM1 control registers get the
        same type, then the enable bit fires the transition.
        """
        value = (int(sleep_type) << _SLP_TYP_SHIFT) & _SLP_TYP_MASK
        self.writes = [value, value | SLP_EN]
        for raw in self.writes:
            self.pm1a_cnt = raw
            self.pm1b_cnt = raw
        if self._handler is None:
            raise PowerStateError("PM1 registers not connected to a platform")
        self._handler(sleep_type.state)

    def clear(self) -> None:
        """Reset on wake (hardware clears SLP_EN on resume)."""
        self.pm1a_cnt = 0
        self.pm1b_cnt = 0
