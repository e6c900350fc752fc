"""Load generator for the serve workloads, run as its own process.

One process, one thread (asyncio), at most ``connections`` keep-alive
HTTP/1.1 connections.  Two phases:

* ``open``: requests are due on a seeded Poisson schedule at a fixed
  offered rate, whether or not earlier ones have been answered (an
  open loop: independent users), over ``connections`` connections.
  Each request is timed from its due time, so a stall also counts
  against the requests queued behind it; ``late_ms`` is how far behind
  its schedule the generator itself ran.
* ``closed``: one connection sends its next request as soon as the
  previous answer arrives, for a fixed time (one caller that waits for
  each reply).  Its requests are the ``closed_paths`` in order, so the
  server sees the same sequence whatever the host's speed.

Usage::

    python3 loadgen.py --job job.json --seed 7 --out results.jsonl

``job.json`` holds ``host``, ``port``, ``connections``, ``open_paths``
(cycled), ``rate``, ``open_seconds``, ``closed_paths`` and
``closed_seconds``.  Each answered request becomes one JSON line:
phase, index into its phase's paths, status, latency and lateness in
ms, the seconds from the phase's start to the request's send and to
its answer, and the response body.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
from typing import List, Tuple


async def _request(reader, writer, target: str) -> Tuple[int, str]:
    writer.write(f"GET {target} HTTP/1.1\r\nHost: lipbench\r\n\r\n"
                 .encode("ascii"))
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body.decode("utf-8")


def schedule(seed: int, rate: float, seconds: float) -> List[float]:
    """Due times (seconds from phase start) of a Poisson arrival
    process at ``rate`` requests per second."""
    rng = random.Random(f"arrivals:{seed}")
    due, times = 0.0, []
    while True:
        due += rng.expovariate(rate)
        if due >= seconds:
            return times
        times.append(due)


async def run(job: dict, seed: int, out) -> dict:
    loop = asyncio.get_running_loop()
    connections = []
    for _ in range(job["connections"]):
        connections.append(await asyncio.open_connection(job["host"],
                                                         job["port"]))

    def record(phase, index, status, body, latency_ms, late_ms, sent_s,
               done_s):
        out.write(json.dumps({"phase": phase, "index": index,
                              "status": status, "latency_ms": latency_ms,
                              "late_ms": late_ms, "sent_s": sent_s,
                              "done_s": done_s, "body": body}) + "\n")

    # --- open loop at a fixed offered rate ----------------------------
    paths = job["open_paths"]
    dues = schedule(seed, job["rate"], job["open_seconds"])
    queue: asyncio.Queue = asyncio.Queue()
    start = loop.time() + 0.05

    async def scheduler():
        for index, offset in enumerate(dues):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((index, due, (loop.time() - due) * 1000.0))
        for _ in connections:
            queue.put_nowait(None)

    async def open_worker(reader, writer):
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due, late_ms = item
            sent = loop.time()
            status, body = await _request(reader, writer,
                                          paths[index % len(paths)])
            ended = loop.time()
            record("open", index % len(paths), status, body,
                   (ended - due) * 1000.0, late_ms, sent - start,
                   ended - start)

    await asyncio.gather(scheduler(), *(open_worker(reader, writer)
                                        for reader, writer in connections))
    open_ended = loop.time()

    # --- closed loop: one caller, the planned sequence in order -------
    paths = job["closed_paths"]
    reader, writer = connections[0]
    closed_started = loop.time()
    deadline = closed_started + job["closed_seconds"]
    index = 0
    while index < len(paths) and loop.time() < deadline:
        sent = loop.time()
        status, body = await _request(reader, writer, paths[index])
        ended = loop.time()
        record("closed", index, status, body, (ended - sent) * 1000.0, 0.0,
               sent - closed_started, ended - closed_started)
        index += 1
    for _reader, writer in connections:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return {"open_requests": len(dues),
            "open_overrun_s": open_ended - (start + job["open_seconds"]),
            "closed_requests": index,
            "closed_exhausted": index == len(paths)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.job, encoding="utf-8") as stream:
        job = json.load(stream)
    with open(args.out, "w", encoding="utf-8") as out:
        summary = asyncio.run(run(job, args.seed, out))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
