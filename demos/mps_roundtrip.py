"""Hand a model to an external solver and bring its answer home.

The MILP serializes to fixed-format MPS text whose write-parse-write cycle
is a byte fixed point, so files can be diffed and archived.  An external
solver's answer comes back as plain "name value" lines; read_solution maps
them onto columns and decode_plan turns them into a plan.  Here the
"external solver" is our own branch and bound run on the reparsed model,
which proves the file alone carries the whole problem.
"""

from gridplan import (
    SolveParams,
    Variant,
    build_milp,
    decode_plan,
    parse_mps,
    read_solution,
    solve_milp,
    write_mps,
)
from gridplan.cases import load_bundled

case = load_bundled("diamond")
model, index = build_milp(case, Variant.STATIC)

text = write_mps(model)
print(f"wrote {len(text.splitlines())} lines of MPS")

reparsed, names = parse_mps(text)
assert write_mps(reparsed) == text
print("write -> parse -> write is a byte fixed point")

outcome = solve_milp(reparsed, SolveParams(mip_gap=0.0))
print(f"external solve: {outcome.status}, objective {outcome.objective:,.2f}")

# The wire format an external solver would send back.
by_column = {column: name for name, column in names.items()}
solution_text = "".join(
    f"{by_column[column]} {value!r}\n"
    for column, value in enumerate(outcome.assignment)
)
print(f"solution file: {len(solution_text.splitlines())} name-value lines")

imported = read_solution(solution_text, names, reparsed.n_variables)
plan = decode_plan(case, Variant.STATIC, index, imported)
print(f"decoded plan: builds {plan.builds}, total cost {plan.tc:,.2f}")
assert abs(plan.tc - outcome.objective) <= 1e-6 * abs(outcome.objective)
print("imported total matches the external objective")
