"""Self-checks of the benchmark (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

Runs each workload twice in trace mode with a minimal run length (two
passes, one traced) and requires the deterministic counters to repeat
exactly.  Takes about two minutes on a 2-core machine.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402

DETERMINISTIC = (
    "branch_bound.nodes", "simplex.pivots", "simplex.lp_calls",
    "builder.columns", "builder.rows", "builder.binaries", "builder.nonzeros",
    "mps.bytes", "report.bytes",
)


def run_bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counters_repeat_exactly(workload):
    first, second = (run_bench(workload, 7, trace=1) for _ in range(2))
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["correct"] and second["correct"]
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]
    assert set(first["metrics"]) == {m["name"] for m in spec()["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert all(first["metrics"][n]["unit"] == units[n] for n in units)


def test_end_to_end_metrics_match_the_spec():
    result = run_bench("bundled-compare", 7, trace=0)
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert [w["name"] for w in spec()["workloads"]] == list(workloads.WORKLOADS)


def test_speed_factor_rescales_to_the_reference():
    ref = hostspeed.REFERENCE_KERNEL_S
    assert hostspeed.speed_factor([ref, ref]) == pytest.approx(1.0)
    assert hostspeed.speed_factor([ref, 3 * ref]) == pytest.approx(0.5)
    assert 0.0 < hostspeed.kernel_seconds() < 1.0


def test_seed_changes_synthetic_inputs():
    shape = workloads.SYNTHETIC_SHAPES[0]
    assert synth.make_case(*shape, 1) == synth.make_case(*shape, 1)
    assert synth.make_case(*shape, 1) != synth.make_case(*shape, 2)
    for workload in (workloads.SyntheticCompare(), workloads.ModelIo()):
        assert workload.prepare(1) == workload.prepare(1)
        assert workload.prepare(1) != workload.prepare(2)


def test_generated_cases_validate_and_admit_the_local_assignment():
    import gridplan
    from gridplan.report import VARIANT_ORDER

    case = gridplan.parse_case(synth.make_case(6, 2, 2, 2, 3, seed=5))
    assert gridplan.validate_case(case).ok
    for variant in VARIANT_ORDER:
        model, index = gridplan.build_milp(case, variant)
        x = workloads.local_assignment(case, index, model.n_variables)
        assert gridplan.evaluate_assignment(model, x).feasible
