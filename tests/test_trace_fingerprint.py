"""Golden fingerprints of the synthetic trace generator.

The Fig. 10 bars, the checked-in audit baseline and every benchmark that
replays a trace depend on ``generate_trace`` making the same draws, in the
same order, with the same arithmetic.  These digests pin all eight columns
of two traces, and of their memory-doubled variants, over each value's
``repr``: any reordering of draws or change of rounding moves them.
"""

import hashlib
import math
from dataclasses import replace

import pytest

from repro.traces.google import generate_trace
from repro.traces.schema import TraceConfig
from repro.traces.transform import double_memory_demand

FIELDS = ("job_id", "task_index", "start_s", "end_s",
          "cpu_request", "mem_request", "cpu_usage", "mem_usage")

#: (servers, days, seed) -> (task count, trace digest, doubled digest).
GOLDEN = {
    (100, 14.0, 11): (
        24687,
        "ce77a126f3b1ec2fc795730bb915d6eadfbef5ad82bb0a7e1dc0615ec321645b",
        "19603eaffee707e399efb4abfe6f1b67b5b1ce2211b1c62a6f58444f653be733"),
    (1000, 7.0, 42): (
        124621,
        "8ca4e61de9b6a108e68f7b52e6b54236dc6929b3e4af0b9e1c6416f5560829f5",
        "c53285069ee8733958cbd538f893a14943d2d78d5e923f71064b78c7d73be451"),
}


def fingerprint(tasks) -> str:
    """sha256 over the columns in field order, one ``repr`` per value."""
    rows = [tuple(getattr(task, name) for name in FIELDS) for task in tasks]
    digest = hashlib.sha256()
    for column in zip(*rows):
        for value in column:
            digest.update(repr(value).encode())
            digest.update(b",")
        digest.update(b";")
    return digest.hexdigest()


@pytest.mark.parametrize("servers,days,seed", sorted(GOLDEN))
def test_generated_columns_match_golden_digest(servers, days, seed):
    count, trace_digest, doubled_digest = GOLDEN[(servers, days, seed)]
    trace = generate_trace(TraceConfig(n_servers=servers, duration_days=days,
                                       seed=seed))
    assert len(trace) == count
    assert fingerprint(trace) == trace_digest
    assert fingerprint(double_memory_demand(trace)) == doubled_digest


def test_fingerprint_sees_one_ulp():
    trace = generate_trace(TraceConfig(n_servers=20, duration_days=0.25,
                                       seed=3))
    rows = list(trace)
    nudged = replace(rows[0], end_s=math.nextafter(rows[0].end_s, math.inf))
    assert fingerprint([nudged] + rows[1:]) != fingerprint(rows)
