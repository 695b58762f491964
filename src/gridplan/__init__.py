"""Transmission expansion planning with seasonal line switching.

The package assembles three variants of a multi-epoch planning MILP over a
DC network model: a static build-only plan, a plan that may also open
existing lines per season, and a plan that may open new lines as well.  A
native LP/branch-and-bound stack solves the models, an enumeration oracle
certifies small instances, and MPS export connects external solvers.
"""

from .branch_bound import SolveOutcome, SolveParams, enumerate_exact, solve_milp
from .builder import (
    Plan, VariableIndex, Variant, branch_big_m, build_milp, decode_plan,
    freeze_switching, investment_multiplier,
)
from .case import (
    Branch, Bus, CandidateLine, Case, CaseError, Generator, Horizon, LoadProfile,
    ValidationReport, grow_load, load_case, parse_case, render_case, validate_case,
)
from .cli import run_cli
from .milp import Milp, evaluate_assignment
from .mps import MpsError, parse_mps, read_solution, write_mps
from .report import Metrics, compute_metrics, render_plan_csv, render_report
from .simplex import LpOutcome, solve_lp

__version__ = "0.1.0"

# the public API is every class and function imported above
__all__ = sorted(name for name, value in list(globals().items())
                 if getattr(value, "__module__", "").startswith("gridplan."))
