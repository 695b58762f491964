"""The benchmark's three workloads: inputs, one timed pass, and the checks.

Each workload is a class with

* ``prepare(seed)``: the inputs (case documents), made from the seed;
* ``run_pass(inputs, rec)``: one pass over every job, timing pipeline calls
  through ``rec`` and reducing each job's outputs to small facts outside
  the timed segments;
* ``verify(inputs, jobs)``: the untimed correctness gate, which returns a
  reason for every answered job (see ``unanswered``) whose answer is wrong.

Pipeline functions are always looked up on the ``gridplan`` package at call
time, so the tracer can patch them there.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources

import gridplan
from gridplan import SolveParams, Variant
from gridplan.report import VARIANT_ORDER

import hostspeed
import synth

MIP_GAP = 1e-5                      # the CLI default
PARAMS = SolveParams(mip_gap=MIP_GAP)
OK_STATUSES = ("optimal", "gap_limit")


@dataclass
class JobRecord:
    """Facts about one job of one pass; ``error`` is set when it raised."""

    name: str
    seconds: float = 0.0
    scaled: float = 0.0         # ``seconds`` at the reference speed
    error: str | None = None
    facts: dict = field(default_factory=dict)


def unanswered(job: JobRecord) -> str | None:
    """Why a job gave no answer to check: it raised or ended without one."""
    if job.error is not None:
        return job.error
    status = job.facts.get("status", OK_STATUSES[0])
    return None if status in OK_STATUSES else f"status {status}"


class Recorder:
    """Times the segments of one pass and collects its job records.

    Each segment is timed on the wall clock (``seconds``) and rescaled to the
    reference speed (``scaled``) by its own host-speed samples: the kernel runs,
    untimed, just before the segment and, given a ``sampler``, every
    ``hostspeed.SAMPLE_INTERVAL_S`` inside it, with the samples' time taken out
    of the segment's."""

    def __init__(self, tracer=None, sampler=None):
        self.tracer = tracer
        self.sampler = sampler
        self.seconds = 0.0
        self.scaled = 0.0
        self.kernel: list[float] = []     # kernel seconds, every sample
        self.jobs: list[JobRecord] = []
        self._job: JobRecord | None = None

    @contextmanager
    def timed(self):
        samples = [hostspeed.kernel_seconds()]
        sampler = self.sampler
        spent = sampler.spent if sampler else 0.0
        if sampler:
            sampler.start(samples.append)
        start = time.perf_counter()
        try:
            yield
        finally:
            if sampler:
                sampler.stop()
                spent = sampler.spent - spent
            elapsed = time.perf_counter() - start - spent
            scaled = elapsed * hostspeed.speed_factor(samples)
            self.kernel += samples
            self.seconds += elapsed
            self.scaled += scaled
            if self._job is not None:
                self._job.seconds += elapsed
                self._job.scaled += scaled

    @contextmanager
    def job(self, name: str):
        record = JobRecord(name)
        self.jobs.append(record)
        self._job = record
        if self.tracer is not None:
            self.tracer.job = name
        try:
            yield record
        except Exception as exc:  # a failed job is a measured outcome
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            self._job = None
            if self.tracer is not None:
                self.tracer.job = None


def model_counts(model) -> dict:
    return {
        "columns": model.n_variables,
        "rows": model.n_constraints,
        "binaries": len(model.binary_columns()),
        "nonzeros": sum(len(con.columns) for con in model.constraints),
    }


def report_step(rec: Recorder, case, plans: dict) -> int:
    """``compare``'s report stage; returns the bytes rendered."""
    with rec.timed():
        metrics = {
            v: gridplan.compute_metrics(plans[Variant.STATIC].tc, plans[v].tc)
            for v in (Variant.SWITCH_EXISTING, Variant.SWITCH_ALL)
        }
        text, csvs = gridplan.render_report(
            plans, metrics,
            n_seasons=case.horizon.n_seasons, n_epochs=case.horizon.n_epochs,
        )
        plan_csvs = [gridplan.render_plan_csv(plan) for plan in plans.values()]
    return len(text) + sum(len(c) for c in csvs.values()) + sum(map(len, plan_csvs))


def parse_step(rec: Recorder, document: str):
    with rec.timed():
        case = gridplan.parse_case(document)
        report = gridplan.validate_case(case)
    if not report.ok:
        raise ValueError(f"generated case fails validation: {report}")
    return case


class Workload:
    # what a fresh interpreter imports in set-up
    imports = "numpy, gridplan, gridplan.cases"
    # seconds spent in ``enumerate_exact`` by the last ``verify``
    enumerate_s = 0.0

    def probe_defect(self) -> list[tuple[str, str, str]]:
        """(LP, status, message) of extra untimed probes; none by default."""
        return []


# -- compare workloads -----------------------------------------------------------


class _Compare(Workload):
    """``gridplan compare`` on every case: parse, validate, then per variant
    build, solve and decode, then the report."""

    def run_pass(self, inputs: dict[str, str], rec: Recorder) -> None:
        for name, document in inputs.items():
            case = parse_step(rec, document)
            plans = {}
            for variant in VARIANT_ORDER:
                with rec.job(f"{name}/{variant.value}") as job:
                    with rec.timed():
                        model, index = gridplan.build_milp(case, variant)
                        outcome = gridplan.solve_milp(model, PARAMS)
                        plan = None
                        if outcome.assignment is not None:
                            plan = gridplan.decode_plan(case, variant, index,
                                                        outcome.assignment)
                    job.facts.update(model_counts(model), status=outcome.status,
                                     objective=outcome.objective, nodes=outcome.nodes)
                    if plan is not None:
                        plans[variant] = plan
            if len(plans) == len(VARIANT_ORDER):
                rec.jobs[-1].facts["report_bytes"] = report_step(rec, case, plans)

    def verify(self, inputs: dict[str, str], jobs: list[JobRecord]) -> dict[int, str]:
        """Objective against a reference within the gap; totals nest."""
        reference = self.references(inputs)
        failures = {}
        by_case: dict[str, dict[str, float]] = {}
        for i, job in enumerate(jobs):
            if unanswered(job):
                continue
            obj, ref = job.facts["objective"], reference[job.name]
            if not within_gap(obj, ref):
                failures[i] = f"objective {obj!r} vs reference {ref!r}"
                continue
            # a case's three variant jobs are consecutive, so i // 3 names
            # one case in one pass
            case, variant = job.name.rsplit("/", 1)
            totals = by_case.setdefault(f"{case}#{i // 3}", {})
            totals[variant] = (i, obj)
            if len(totals) == 3:
                (_, st), (ise, se), (isa, sa) = (totals[v.value] for v in VARIANT_ORDER)
                if not se <= st * (1 + MIP_GAP) + 1e-9:
                    failures[ise] = f"switch-existing {se!r} above static {st!r}"
                if not sa <= se * (1 + MIP_GAP) + 1e-9:
                    failures[isa] = f"switch-all {sa!r} above switch-existing {se!r}"
        return failures


def within_gap(objective: float, reference: float) -> bool:
    """Reached the gap target against a proven optimum ``reference``."""
    scale = max(abs(reference), 1.0)
    return (objective >= reference - 1e-7 * scale
            and objective - reference <= MIP_GAP * abs(objective) + 1e-7 * scale)


class BundledCompare(_Compare):
    name = "bundled-compare"

    def prepare(self, seed: int) -> dict[str, str]:
        del seed  # the bundled cases are fixed
        from gridplan.cases import case_names
        root = resources.files("gridplan.cases")
        return {name: (root / f"{name}.json").read_text(encoding="utf-8")
                for name in case_names()}

    def references(self, inputs):
        """``enumerate_exact`` on every case and variant; timed apart."""
        start = time.perf_counter()
        reference = {}
        for name, document in inputs.items():
            case = gridplan.parse_case(document)
            for variant in VARIANT_ORDER:
                model, _ = gridplan.build_milp(case, variant)
                reference[f"{name}/{variant.value}"] = \
                    gridplan.enumerate_exact(model).objective
        self.enumerate_s = time.perf_counter() - start
        return reference


# (buses, hours, seasons, epochs, candidates); rows and binaries of the
# static..switch-all models are in the README
SYNTHETIC_SHAPES = (
    (6, 4, 2, 1, 2),
    (6, 2, 2, 2, 2),
    (8, 2, 2, 1, 3),
    (8, 3, 2, 1, 3),
    (10, 2, 2, 1, 3),
)


# a grid in the size range where the root or a node LP fails to certify
# (see the README); only its root LPs are probed, outside the timed passes
PROBE_SHAPE = (10, 2, 2, 2, 3)


class SyntheticCompare(_Compare):
    name = "synthetic-compare"
    imports = Workload.imports + ", scipy.optimize"

    def __init__(self):
        self.seed = None

    def prepare(self, seed: int) -> dict[str, str]:
        import scipy.optimize  # noqa: F401  the reference solver, loaded in set-up
        self.seed = seed
        return {"x".join(map(str, shape)): synth.make_case(*shape, seed)
                for shape in SYNTHETIC_SHAPES}

    def probe_defect(self):
        """Root LPs of every variant of the ``PROBE_SHAPE`` grid for this seed."""
        case = gridplan.parse_case(synth.make_case(*PROBE_SHAPE, self.seed))
        results = []
        for variant in VARIANT_ORDER:
            model, _ = gridplan.build_milp(case, variant)
            outcome = gridplan.solve_lp(model)
            results.append((f"{'x'.join(map(str, PROBE_SHAPE))}/{variant.value}",
                            outcome.status, outcome.message))
        return results

    def references(self, inputs):
        reference = {}
        for name, document in inputs.items():
            case = gridplan.parse_case(document)
            for variant in VARIANT_ORDER:
                model, _ = gridplan.build_milp(case, variant)
                reference[f"{name}/{variant.value}"] = highs_objective(model)
        return reference


def highs_objective(model) -> float:
    """Optimum of ``model`` from ``scipy.optimize.milp`` (HiGHS), gap 0."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    n = model.n_variables
    c = np.zeros(n)
    for col, coef in model.objective.items():
        c[col] = coef
    rows, cols, vals, lo, up = [], [], [], [], []
    for i, con in enumerate(model.constraints):
        rows += [i] * len(con.columns)
        cols += list(con.columns)
        vals += list(con.coefficients)
        lo.append(-np.inf if con.sense == "<=" else con.rhs)
        up.append(np.inf if con.sense == ">=" else con.rhs)
    a = csr_matrix((vals, (rows, cols)), shape=(model.n_constraints, n))
    integrality = np.array([v.kind == "binary" for v in model.variables], dtype=int)
    result = milp(
        c, constraints=LinearConstraint(a, lo, up), integrality=integrality,
        bounds=Bounds([v.lower for v in model.variables],
                      [v.upper for v in model.variables]),
        options={"mip_rel_gap": 0.0},
    )
    if result.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {result.message}")
    return float(result.fun) + model.objective_offset


# -- model I/O -------------------------------------------------------------------

MODEL_IO_SHAPE = (24, 24, 4, 3, 12)


def local_assignment(case, index, n_columns: int) -> list[float]:
    """Every load served by its own bus's unit: no flow, no builds, every
    switchable existing line closed."""
    h = case.horizon
    x = [0.0] * n_columns
    local = {g.id: g.bus for g in case.generators}
    for (gid, t, s, e), col in index.gen.items():
        x[col] = gridplan.grow_load(case.load_profile.get(local[gid], t, s),
                                    h.load_growth, h.years_per_epoch, e)
    for col in index.branch_status.values():
        x[col] = 1.0
    return x


class ModelIo(Workload):
    """Paper-size grids, no solve: build, MPS out and back, solution import,
    evaluation, decode and report."""

    name = "model-io"

    def prepare(self, seed: int) -> dict[str, str]:
        return {"x".join(map(str, MODEL_IO_SHAPE)): synth.make_case(*MODEL_IO_SHAPE, seed)}

    def run_pass(self, inputs: dict[str, str], rec: Recorder) -> None:
        for name, document in inputs.items():
            case = parse_step(rec, document)
            plans = {}
            for variant in VARIANT_ORDER:
                with rec.job(f"{name}/{variant.value}") as job:
                    with rec.timed():
                        model, index = gridplan.build_milp(case, variant)
                        text = gridplan.write_mps(model)
                        parsed, table = gridplan.parse_mps(text)
                        again = gridplan.write_mps(parsed)
                    x = local_assignment(case, index, model.n_variables)
                    solution = "\n".join(f"{v.name} {value!r}"
                                         for v, value in zip(model.variables, x))
                    with rec.timed():
                        y = gridplan.read_solution(solution, table, model.n_variables)
                        evaluation = gridplan.evaluate_assignment(model, y)
                        plan = gridplan.decode_plan(case, variant, index, y)
                    job.facts.update(
                        model_counts(model), mps_bytes=len(text),
                        rewrite_identical=again == text, round_trip=y == x,
                        feasible=evaluation.feasible, objective=evaluation.objective,
                        tc=plan.tc,
                    )
                    plans[variant] = plan
            if len(plans) == len(VARIANT_ORDER):
                rec.jobs[-1].facts["report_bytes"] = report_step(rec, case, plans)

    def verify(self, inputs, jobs: list[JobRecord]) -> dict[int, str]:
        failures = {}
        for i, job in enumerate(jobs):
            f = job.facts
            if unanswered(job):
                continue
            if not f["rewrite_identical"]:
                failures[i] = "MPS rewrite differs from the first write"
            elif not f["round_trip"]:
                failures[i] = "read_solution did not return the written assignment"
            elif not f["feasible"]:
                failures[i] = "local assignment fails evaluation"
            elif not math.isclose(f["tc"], f["objective"], rel_tol=1e-9):
                failures[i] = f"plan total {f['tc']!r} vs objective {f['objective']!r}"
        return failures


WORKLOADS = {w.name: w for w in (BundledCompare, SyntheticCompare, ModelIo)}
