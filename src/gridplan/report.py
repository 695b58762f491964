"""Cost metrics and human/machine-readable result rendering.

Money is printed in whole dollars with thousands separators and percentages
at two decimals, matching how planning studies are usually tabulated.  The
CSV mirrors carry full-precision ``repr`` values so downstream tooling can
reproduce every total bit for bit.  All rendering is a pure function of its
inputs; nothing here reads clocks or machines, so identical inputs give
identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .builder import Plan, Variant

VARIANT_ORDER = tuple(Variant)


@dataclass(frozen=True)
class Metrics:
    """Cost reduction of a switching plan against the static baseline.

    ``tcr`` is baseline minus variant cost, positive when switching saves
    money; ``rho`` is ``tcr`` divided by the baseline cost.  ``rho`` is
    always derived from ``tcr``, so the two fields cannot disagree.
    """

    tcr: float
    rho: float


def compute_metrics(tc_baseline: float, tc_variant: float) -> Metrics:
    """Absolute and relative saving of a variant against the baseline."""
    if not tc_baseline > 0:
        raise ValueError(f"baseline cost must be positive, got {tc_baseline}")
    tcr = tc_baseline - tc_variant
    return Metrics(tcr=tcr, rho=tcr / tc_baseline)


# Both round as the format would, then add 0.0, which turns the -0.0 of a
# value that rounds to zero into 0.0: a saving a few ulp below zero reads 0
def _money(value: float) -> str:
    return f"{round(value, 0) + 0.0:,.0f}"


def _percent(fraction: float) -> str:
    return f"{round(100 * fraction, 2) + 0.0:.2f}"


def _table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [cell.ljust(widths[i]) for i, cell in enumerate(row)]
        lines.append("  ".join(cells).rstrip())
    return lines


def _group(entries, key):
    grouped: dict = {}
    for entry in entries:
        grouped.setdefault(key(entry), []).append(entry)
    return grouped


def render_report(plans: dict[Variant, Plan],
                  metrics: dict[Variant, Metrics | None],
                  *, n_seasons: int, n_epochs: int) -> tuple[str, dict[str, str]]:
    """Render cost, investment, and switching tables plus CSV mirrors.

    ``plans`` maps each solved variant to its decoded plan; ``metrics`` maps
    non-baseline variants to their savings, or to None where the saving is
    undefined (a baseline that costs nothing), which reads ``N/A`` in the
    text and in ``summary.csv``.  ``n_seasons`` and ``n_epochs``
    are the case horizon's counts, so seasons and epochs without any entry
    still get table cells.

    Returns the text report and a dict of CSV file name to content.
    """
    variants = [v for v in VARIANT_ORDER if v in plans]
    if not variants:
        raise ValueError("no plans to report")

    lines: list[str] = ["COST SUMMARY", ""]
    head = ["", *[v.value for v in variants]]
    rows = [head]
    rows.append(["total cost ($)", *[_money(plans[v].tc) for v in variants]])
    rows.append(["generation cost ($)", *[_money(plans[v].tc_g) for v in variants]])
    rows.append(["investment cost ($)", *[_money(plans[v].tc_i) for v in variants]])
    rows.append([
        "saving vs baseline ($)",
        *[_money(metrics[v].tcr) if metrics.get(v) is not None else "N/A"
          for v in variants],
    ])
    rows.append([
        "saving vs baseline (%)",
        *[_percent(metrics[v].rho) if metrics.get(v) is not None else "N/A"
          for v in variants],
    ])
    lines.extend(_table(rows))
    lines.extend(["", "note: saving is baseline minus variant; positive "
                      "means the variant costs less."])

    lines.extend(["", "INVESTMENT SCHEDULE", ""])
    rows = [["variant", *[f"epoch {e}" for e in range(1, n_epochs + 1)]]]
    for v in variants:
        by_epoch = _group(plans[v].builds, key=lambda be: be[1])
        cells = []
        for e in range(1, n_epochs + 1):
            built = [str(j) for j, _e in by_epoch.get(e, [])]
            cells.append(", ".join(built) if built else "N/A")
        rows.append([v.value, *cells])
    lines.extend(_table(rows))

    for v in variants:
        if v is Variant.STATIC:
            continue
        plan = plans[v]
        sections = [("existing lines open", plan.open_existing)]
        if v is Variant.SWITCH_ALL:
            sections.append(("new lines open", plan.open_new))
        for title, entries in sections:
            lines.extend(["", f"SWITCHING SCHEDULE ({v.value}): {title}", ""])
            by_cell = _group(entries, key=lambda kse: (kse[1], kse[2]))
            rows = [["season", *[f"epoch {e}" for e in range(1, n_epochs + 1)]]]
            for s in range(1, n_seasons + 1):
                cells = []
                for e in range(1, n_epochs + 1):
                    ids = [str(k) for k, _s, _e in by_cell.get((s, e), [])]
                    cells.append(", ".join(ids))
                rows.append([str(s), *cells])
            lines.extend(_table(rows))

    text = "\n".join(lines) + "\n"

    summary = ["variant,total_cost,generation_cost,investment_cost,"
               "saving,saving_fraction"]
    for v in variants:
        plan = plans[v]
        if metrics.get(v) is not None:
            tail = f"{metrics[v].tcr!r},{metrics[v].rho!r}"
        else:
            tail = "N/A,N/A" if v in metrics else ","
        summary.append(
            f"{v.value},{plan.tc!r},{plan.tc_g!r},{plan.tc_i!r},{tail}"
        )
    investment = ["variant,candidate,epoch"]
    for v in variants:
        for j, e in plans[v].builds:
            investment.append(f"{v.value},{j},{e}")
    switching = ["variant,line_kind,line,season,epoch"]
    for v in variants:
        for k, s, e in plans[v].open_existing:
            switching.append(f"{v.value},existing,{k},{s},{e}")
        for j, s, e in plans[v].open_new:
            switching.append(f"{v.value},new,{j},{s},{e}")
    csvs = {
        "summary.csv": "\n".join(summary) + "\n",
        "investment.csv": "\n".join(investment) + "\n",
        "switching.csv": "\n".join(switching) + "\n",
    }
    return text, csvs


def render_plan_csv(plan: Plan) -> str:
    """Full-precision CSV dump of one plan.

    Rows are ``record,id,hour,season,epoch,value``; cost rows carry repr
    values that sum exactly to the reported totals.
    """
    out = ["record,id,hour,season,epoch,value"]
    for j, e in plan.builds:
        out.append(f"build,{j},,,{e},1")
    for k, s, e in plan.open_existing:
        out.append(f"open_existing,{k},,{s},{e},0")
    for j, s, e in plan.open_new:
        out.append(f"open_new,{j},,{s},{e},0")
    for (g, t, s, e), value in plan.dispatch.items():
        out.append(f"dispatch,{g},{t},{s},{e},{value!r}")
    for (k, t, s, e), value in plan.branch_flow.items():
        out.append(f"flow_existing,{k},{t},{s},{e},{value!r}")
    for (j, t, s, e), value in plan.candidate_flow.items():
        out.append(f"flow_new,{j},{t},{s},{e},{value!r}")
    for (n, t, s, e), value in plan.angle.items():
        out.append(f"angle,{n},{t},{s},{e},{value!r}")
    out.append(f"cost,tc_g,,,,{plan.tc_g!r}")
    out.append(f"cost,tc_i,,,,{plan.tc_i!r}")
    out.append(f"cost,tc,,,,{plan.tc!r}")
    return "\n".join(out) + "\n"
