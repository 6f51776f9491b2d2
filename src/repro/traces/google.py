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

    # The loop runs once per task: draws and appends are bound once.
    expovariate, random, uniform = rng.expovariate, rng.random, rng.uniform
    gauss, lognormal = rng.gauss, rng.lognormal_clamped
    sin, two_pi = math.sin, 2 * math.pi
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
        duration = lognormal(duration_mu, duration_sigma,
                             lo=5 * 60.0, hi=duration_s)
        for index in range(n_tasks):
            cpu_req = lognormal(cpu_mu, cpu_sigma, lo=0.01, hi=0.9)
            ratio = max(0.2, gauss(mem_to_cpu, 0.35))
            mem_req = min(0.95, cpu_req * ratio)
            idle = random() < idle_fraction
            cpu_usage = (uniform(0.0, 0.009) if idle
                         else cpu_req * uniform(0.25, 0.75))
            mem_usage = mem_req * uniform(0.5, 0.95)
            end = min(t + duration * uniform(0.8, 1.2), duration_s)
            if end <= t:
                continue
            add_job(job_id)
            add_index(index)
            add_start(t)
            add_end(end)
            add_cpu_req(round(cpu_req, 6))
            add_mem_req(round(mem_req, 6))
            add_cpu_use(round(min(cpu_usage, cpu_req), 6))
            add_mem_use(round(min(mem_usage, mem_req), 6))
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
