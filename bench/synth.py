"""Seeded ring-plus-chord planning cases for the benchmark.

``make_case`` returns a case document (JSON text) that the benchmark feeds
through ``parse_case`` and ``validate_case`` like any user file.  The shape
(buses, hours, seasons, epochs, candidates) is fixed by the arguments; the
seed draws loads, ratings, reactances and costs.

Every grid has the same structure:

* buses ``n1..nN`` on a ring of fixed (never switchable) lines;
* chords ``n_i -> n_{i+N/2}`` from every second bus of the first half, all switchable, and every
  other chord rated low, so opening a chord can relieve a loop flow;
* a cheap plant at the reference bus ``n1`` and a mid-priced plant opposite
  it;
* every other bus is a load bus with its own expensive local unit rated for
  its grown peak, so every variant is feasible and the assignment that
  serves every load locally (no flow, no builds) exists;
* candidates parallel to distinct ring lines.

Loads are in counterphase across the seasons between odd and even buses,
so a line that helps in one season can hurt in the other.
"""

from __future__ import annotations

import json
import math
import random

YEARS_PER_EPOCH = 5
LOAD_GROWTH = 0.02
LOAD_JITTER = 0.01


def make_case(n_buses: int, n_hours: int, n_seasons: int, n_epochs: int,
              n_candidates: int, seed: int) -> str:
    """Case document for one grid shape, drawn from ``seed``."""
    if n_buses < 4:
        raise ValueError(f"need at least 4 buses, got {n_buses}")
    if not 0 <= n_candidates <= n_buses:
        raise ValueError(f"candidate count must be in 0..{n_buses}, got {n_candidates}")
    shape = f"{n_buses}:{n_hours}:{n_seasons}:{n_epochs}:{n_candidates}"
    rng = random.Random(f"gridplan-synth:{shape}")
    jitter = random.Random(f"gridplan-synth:{shape}:{seed}")
    half = n_buses // 2
    bus = [f"n{i + 1}" for i in range(n_buses)]
    plants = {0, half}
    load_buses = [i for i in range(n_buses) if i not in plants]

    growth = (1.0 + LOAD_GROWTH) ** ((n_epochs - 1) * YEARS_PER_EPOCH)
    load = {}
    peak_total = 0.0
    generators = []
    for i in load_buses:
        base = rng.uniform(20.0, 80.0)
        phase = 0.0 if i % 2 else math.pi
        grid = []
        for s in range(n_seasons):
            season = 1.0 + 0.4 * math.cos(2.0 * math.pi * s / max(n_seasons, 2) + phase)
            row = []
            for t in range(n_hours):
                hour = 0.75 + 0.25 * math.sin(math.pi * t / max(n_hours, 1))
                row.append(round(base * season * hour * rng.uniform(0.9, 1.1)
                                 * jitter.uniform(1.0 - LOAD_JITTER, 1.0 + LOAD_JITTER), 3))
            grid.append(row)
        load[bus[i]] = grid
        peak = max(max(row) for row in grid) * growth
        peak_total += peak
        generators.append({"id": f"g{i + 1}", "bus": bus[i],
                           "p_max": round(1.1 * peak + 1.0, 3),
                           "cost": round(rng.uniform(40.0, 60.0), 2)})
    generators[:0] = [
        {"id": "g1", "bus": bus[0], "p_max": round(peak_total, 3),
         "cost": round(rng.uniform(4.0, 6.0), 2)},
        {"id": f"g{half + 1}", "bus": bus[half], "p_max": round(0.3 * peak_total, 3),
         "cost": round(rng.uniform(8.0, 12.0), 2)},
    ]

    branches = []
    for i in range(n_buses):
        branches.append({"id": f"k{i + 1}", "from": bus[i], "to": bus[(i + 1) % n_buses],
                         "x": round(rng.uniform(0.001, 0.002), 5),
                         "rate": round(rng.uniform(120.0, 220.0), 1),
                         "switchable": False})
    for c, i in enumerate(range(1, half, 2)):
        low = c % 2 == 0
        branches.append({"id": f"t{c + 1}", "from": bus[i], "to": bus[i + half],
                         "x": round(rng.uniform(0.0015, 0.003), 5),
                         "rate": round(rng.uniform(30.0, 60.0) if low
                                       else rng.uniform(100.0, 160.0), 1),
                         "switchable": True})

    candidates = []
    for c, i in enumerate(sorted(rng.sample(range(n_buses), n_candidates))):
        ring = branches[i]
        candidates.append({"id": f"c{c + 1}", "from": ring["from"], "to": ring["to"],
                           "x": ring["x"], "rate": round(rng.uniform(100.0, 180.0), 1),
                           "cost": round(rng.uniform(2.0e6, 8.0e6), -3),
                           "parallel_to": ring["id"]})

    return json.dumps({
        "name": f"synth_{n_buses}b_{n_hours}h_{n_seasons}s_{n_epochs}e_{n_candidates}c_{seed}",
        "description": "seeded ring-plus-chord benchmark grid",
        "buses": [{"id": b, "reference": i == 0} for i, b in enumerate(bus)],
        "generators": generators,
        "branches": branches,
        "candidates": candidates,
        "horizon": {"epochs": n_epochs, "years_per_epoch": YEARS_PER_EPOCH,
                    "seasons": n_seasons, "hours": n_hours,
                    "load_growth": LOAD_GROWTH, "maintenance_rate": 0.04},
        "load": load,
    }, indent=1)


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 7:
        sys.exit("usage: synth.py BUSES HOURS SEASONS EPOCHS CANDIDATES SEED")
    print(make_case(*map(int, sys.argv[1:])))
