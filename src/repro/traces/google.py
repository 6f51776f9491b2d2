"""Synthetic Google-cluster-trace generation and (de)serialization.

The generator produces jobs as a Poisson-ish arrival process with a diurnal
modulation, each job fanning out into a geometric number of tasks.  Booked
resources follow the published picture: small requests dominate, memory
requests correlate with (and on average exceed) CPU requests, and actual
usage sits well below bookings — which is exactly the slack consolidation
systems exploit.
"""

from __future__ import annotations

import csv
import math
from array import array
from typing import List, Sequence

from repro.sim.rng import DeterministicRng
from repro.traces.schema import FIELDS, TYPECODES, Task, Trace, TraceConfig
from repro.units import DAY, HOUR


def generate_trace(config: TraceConfig) -> Trace:
    """Generate a trace matching ``config``, column by column.

    The arrival rate is tuned so the average *booked* CPU across the rack
    equals ``config.cpu_load`` of capacity.  Every draw, its order and the
    arithmetic on it are part of the trace's identity: the golden digests
    in ``tests/test_trace_fingerprint.py`` pin the columns bit for bit.
    """
    rng = DeterministicRng(config.seed)
    duration_s = config.duration_days * DAY
    mean_duration_s = config.mean_task_hours * HOUR
    mean_cpu_request = 0.12
    # Log-normal parameters with the mean pinned to the target:
    # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2).
    duration_sigma = 1.0
    duration_mu = math.log(mean_duration_s) - 0.5 * duration_sigma ** 2
    cpu_sigma = 0.7
    cpu_mu = math.log(mean_cpu_request) - 0.5 * cpu_sigma ** 2

    # Little's law: arrivals/s * mean_duration * mean_cpu = target load.
    # Diurnal thinning keeps 1/(1+amplitude) of jobs on average, so the
    # base rate compensates by that factor.
    amplitude = config.diurnal_amplitude
    target_cpu = config.cpu_load * config.n_servers
    task_rate = (target_cpu / (mean_duration_s * mean_cpu_request)
                 * (1.0 + amplitude))
    job_rate = task_rate / config.tasks_per_job
    fanout_rate = 1.0 / max(config.tasks_per_job - 1, 0.25)
    mem_to_cpu = config.mem_to_cpu
    idle_fraction = config.idle_fraction

    # The loop runs once per task, so it draws straight from the stream
    # with each method bound once.  The clamps, ``uniform`` and the
    # ``min``/``max`` calls are inlined as the identical expressions:
    # ``uniform(a, b)`` is ``a + (b - a) * random()``, ``min(x, y)`` is
    # ``y if y < x else x`` and ``max(x, y)`` is ``y if y > x else x``.
    stream = rng.stream
    expovariate, random, gauss = (stream.expovariate, stream.random,
                                  stream.gauss)
    exp, sin, two_pi = math.exp, math.sin, 2 * math.pi
    min_duration_s = 5 * 60.0
    columns = tuple(array(typecode) for typecode in TYPECODES)
    (add_job, add_index, add_start, add_end, add_cpu_req, add_mem_req,
     add_cpu_use, add_mem_use) = (column.append for column in columns)

    job_id = 0
    t = 0.0
    while True:
        t += expovariate(job_rate)
        if t >= duration_s:
            break
        # Diurnal modulation by thinning: reject a share of off-peak jobs.
        keep_prob = 1.0 + amplitude * sin(two_pi * (t % DAY) / DAY)
        if random() > keep_prob / (1.0 + amplitude):
            continue
        job_id += 1
        n_tasks = 1 + int(expovariate(fanout_rate))
        # Log-normal clamped into [5 min, duration_s]: max(lo, min(hi, x)).
        duration = exp(gauss(duration_mu, duration_sigma))
        duration = duration if duration < duration_s else duration_s
        duration = duration if duration > min_duration_s else min_duration_s
        for index in range(n_tasks):
            # Log-normal clamped into [0.01, 0.9].
            cpu_req = exp(gauss(cpu_mu, cpu_sigma))
            cpu_req = cpu_req if cpu_req < 0.9 else 0.9
            cpu_req = cpu_req if cpu_req > 0.01 else 0.01
            ratio = gauss(mem_to_cpu, 0.35)
            ratio = ratio if ratio > 0.2 else 0.2
            mem_req = cpu_req * ratio
            mem_req = mem_req if mem_req < 0.95 else 0.95
            idle = random() < idle_fraction
            cpu_usage = (0.0 + (0.009 - 0.0) * random() if idle
                         else cpu_req * (0.25 + (0.75 - 0.25) * random()))
            mem_usage = mem_req * (0.5 + (0.95 - 0.5) * random())
            end = t + duration * (0.8 + (1.2 - 0.8) * random())
            end = duration_s if duration_s < end else end
            if end <= t:
                continue
            add_job(job_id)
            add_index(index)
            add_start(t)
            add_end(end)
            add_cpu_req(round(cpu_req, 6))
            add_mem_req(round(mem_req, 6))
            add_cpu_use(round(cpu_req if cpu_req < cpu_usage else cpu_usage,
                              6))
            add_mem_use(round(mem_req if mem_req < mem_usage else mem_usage,
                              6))
    return Trace(*columns)


def trace_to_csv(tasks: Sequence[Task], path: str) -> None:
    """Write a trace in the (simplified) Google trace CSV format."""
    trace = Trace.from_tasks(tasks)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(FIELDS)
        writer.writerows(zip(*trace.columns))


def trace_from_csv(path: str) -> Trace:
    """Read a trace written by :func:`trace_to_csv`.

    A CSV is outside input, so every row is validated as a :class:`Task`
    would be: a negative start, a non-finite time or a resource outside
    [0, 1] raises :class:`~repro.errors.TraceFormatError`.
    """
    cells: List[List[str]] = [[] for _ in FIELDS]
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            for column, name in zip(cells, FIELDS):
                column.append(row[name])
    return Trace(*(map(int if typecode == "q" else float, column)
                   for typecode, column in zip(TYPECODES, cells)))
