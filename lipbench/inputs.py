"""Seeded inputs.  The same ``--seed`` gives the same inputs.

Sizes are fixed; the seed chooses the data (dealership inventories and
buyers, Arctic observation windows), the order of operations and the
nodes that queries ask about.  Fixed sizes keep every seed's run the
same amount of work, which is what lets runs with different seeds be
compared at all.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: Ingest: one round commits these runs, each into the round's fresh
#: store; about 28k nodes per round.  Runs of about 3-3.5k nodes give
#: some 40 latency samples in a run, and with six of eight runs of one
#: kind the p50 and p90 fall inside one kind's group instead of on the
#: edge between two kinds of run.
INGEST_ROUND = (
    ("dealerships", {"num_cars": 150, "num_exec": 8}),
    ("dealerships", {"num_cars": 150, "num_exec": 8}),
    ("dealerships", {"num_cars": 150, "num_exec": 8}),
    ("arctic", {"topology": "serial", "num_stations": 6, "num_exec": 6,
                "history_years": 2}),
    ("dealerships", {"num_cars": 150, "num_exec": 8}),
    ("dealerships", {"num_cars": 150, "num_exec": 8}),
    ("dealerships", {"num_cars": 150, "num_exec": 8}),
    ("arctic", {"topology": "dense", "num_stations": 6, "num_exec": 6,
                "history_years": 2}),
)

#: Serving: the store holds 16 runs, twice the service's 8-entry graph
#: cache, so a cold workload cannot keep every run in memory.
SERVE_RUNS = 16
SERVE_DEALERSHIP = {"num_cars": 300, "num_exec": 6}
SERVE_ARCTIC = {"num_stations": 6, "num_exec": 6, "history_years": 2}

#: Analyst session: one dealership run, committed after each execution.
SESSION_CARS = 400
SESSION_EXECUTIONS = 8


def _dealership(rng: random.Random, params: Dict) -> Tuple[str, Dict]:
    return "dealerships", dict(params, seed=rng.randrange(1 << 30),
                               force_decline=True)


def _arctic(rng: random.Random, params: Dict) -> Tuple[str, Dict]:
    return "arctic", dict(params, start_year=1930 + rng.randrange(60))


def ingest_round(seed: int, round_index: int) -> List[Tuple[str, Dict]]:
    """(workload family, params) for each run of one ingest round."""
    rng = random.Random(f"ingest:{seed}:{round_index}")
    return [_dealership(rng, params) if family == "dealerships"
            else _arctic(rng, params) for family, params in INGEST_ROUND]


def serve_runs(seed: int) -> List[Tuple[str, Dict]]:
    """The served store: 12 dealership runs and 4 Arctic runs (serial
    and dense topologies), interleaved."""
    rng = random.Random(f"serve:{seed}")
    runs = []
    for index in range(SERVE_RUNS):
        if index % 4 == 3:
            topology = "serial" if index % 8 == 3 else "dense"
            runs.append(_arctic(rng, dict(SERVE_ARCTIC, topology=topology)))
        else:
            runs.append(_dealership(rng, SERVE_DEALERSHIP))
    return runs


def session_seed(seed: int, round_index: int) -> int:
    return random.Random(f"session:{seed}:{round_index}").randrange(1 << 30)
