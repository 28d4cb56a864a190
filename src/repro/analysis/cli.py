"""Command-line report generator.

Regenerates every table and figure of the paper as plain-text reports::

    python -m repro.analysis            # all figures -> ./results/
    python -m repro.analysis fig9 fig14 # a subset
    python -m repro.analysis --scale tiny --out /tmp/r  # quick pass
    python -m repro.analysis --jobs 8   # fan cold runs over 8 workers
    python -m repro.analysis --engine fast  # fast-forwarding cycle engine

Results come from the same cached :class:`ExperimentRunner` the
benchmark harness uses, so a warm cache renders everything in seconds.
On a cold cache the CLI unions the recipe lists of every requested
figure and fans them out over ``--jobs`` worker processes (default:
``REPRO_JOBS`` env var, else ``os.cpu_count()``); gather order is
deterministic, so reports are byte-identical for any worker count.
A render that needed the runner ends with a one-line summary of its
simulate/hit counts and wall time; timing samples with a spread come
from the repo benchmark (``python -m bench``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict

from . import experiments as ex
from .report import (
    format_breakdown,
    format_metric_grid,
    format_spin_power,
    format_table,
)
from .runner import ExperimentRunner
from .tdp import sec4d_table


def _render_table1(runner) -> str:
    return ex.table1_configuration()


def _render_table2(runner) -> str:
    return format_table(
        ["suite", "benchmark", "size"], ex.table2_benchmarks(),
        title="Table 2 - benchmarks and working sets",
    )


def _render_fig2(runner) -> str:
    data = ex.fig2_naive_split(runner)
    return "\n\n".join([
        format_metric_grid(data, "aopb_pct",
                           title="Figure 2 (right) - AoPB %, naive split"),
        format_metric_grid(data, "energy_pct",
                           title="Figure 2 (left) - energy %, naive split"),
    ])


def _render_fig3(runner) -> str:
    return format_breakdown(
        ex.fig3_time_breakdown(runner),
        title="Figure 3 - execution-time breakdown",
    )


def _render_fig4(runner) -> str:
    return format_spin_power(
        ex.fig4_spin_power(runner),
        title="Figure 4 - spin power / total power",
    )


def _render_fig5(runner) -> str:
    data = ex.fig5_motivation()
    rows = [
        (r["cycle"], str(r["powers"]), r["total"],
         "yes" if r["over_global"] else "no", str(r["naive_throttled"]))
        for r in data["rows"]
    ]
    return format_table(
        ["cycle", "powers", "total", "over 40W", "naive throttles"],
        rows, title="Figure 5 - motivating example",
    )


def _render_fig6(runner) -> str:
    d = ex.fig6_spin_power_trace(runner)
    rows = [(k, f"{v:.3f}" if isinstance(v, float) else v)
            for k, v in d.items()]
    return format_table(["metric", "value"], rows,
                        title="Figure 6 - spin power signature")


def _render_fig7(runner) -> str:
    rows = [
        (i, str(s["spinning"]), s["pool"], str(s["effective_budgets"]))
        for i, s in enumerate(ex.fig7_barrier_token_flow())
    ]
    return format_table(["step", "spinning", "pool", "budgets"], rows,
                        title="Figure 7 - barrier token flow")


def _render_fig8(runner) -> str:
    data = ex.fig8_balancer_constants()
    rows = [(n, v["round_trip_cycles"], v["power_overhead_pct"])
            for n, v in sorted(data.items())]
    return format_table(["cores", "round trip (cy)", "overhead %"], rows,
                        title="Figure 8 - balancer constants")


def _sweep_rows(data) -> list:
    rows = []
    for col, agg in data.items():
        for tech, m in agg.items():
            rows.append((col, tech, round(m["energy_pct"], 1),
                         round(m["aopb_pct"], 1)))
    return rows


def _render_fig9(runner) -> str:
    return format_table(
        ["column", "technique", "energy %", "AoPB %"],
        _sweep_rows(ex.fig9_core_policy_sweep(runner)),
        title="Figure 9 - core-count x policy sweep",
    )


def _render_fig10(runner) -> str:
    data = ex.fig10_detail_toall(runner)
    return "\n\n".join([
        format_metric_grid(data, "aopb_pct",
                           title="Figure 10 - AoPB %, 16c ToAll"),
        format_metric_grid(data, "energy_pct",
                           title="Figure 10 - energy %, 16c ToAll"),
    ])


def _render_fig11(runner) -> str:
    data = ex.fig11_detail_toone(runner)
    return "\n\n".join([
        format_metric_grid(data, "aopb_pct",
                           title="Figure 11 - AoPB %, 16c ToOne"),
        format_metric_grid(data, "energy_pct",
                           title="Figure 11 - energy %, 16c ToOne"),
    ])


def _render_fig12(runner) -> str:
    data = ex.fig12_dynamic_policy(runner)
    return "\n\n".join([
        format_metric_grid(data, "aopb_pct",
                           title="Figure 12 - AoPB %, dynamic selector"),
        format_metric_grid(data, "energy_pct",
                           title="Figure 12 - energy %, dynamic selector"),
    ])


def _render_fig13(runner) -> str:
    data = ex.fig13_performance(runner)
    rows = [(k, round(v, 1)) for k, v in data.items()]
    return format_table(["benchmark", "slowdown %"], rows,
                        title="Figure 13 - PTB (dynamic) slowdown")


def _render_fig14(runner) -> str:
    return format_table(
        ["column", "technique", "energy %", "AoPB %"],
        _sweep_rows(ex.fig14_relaxed_ptb(runner)),
        title="Figure 14 - strict vs relaxed PTB",
    )


def _render_sec4d(runner) -> str:
    sweep = ex.fig9_core_policy_sweep(runner, core_counts=(16,),
                                      policies=("toall",))
    agg = sweep["16Core_Toall"]
    measured = {
        t: agg[t]["aopb_pct"] / 100.0 for t in ("dvfs", "2level", "ptb")
    }
    table = sec4d_table(measured)
    rows = [
        (t, row.get("paper_error", ""), row.get("paper_cores", ""),
         round(row.get("measured_error", float("nan")), 2)
         if "measured_error" in row else "-",
         row.get("measured_cores", "-"))
        for t, row in table.items()
    ]
    return format_table(
        ["technique", "paper err", "paper cores", "our err", "our cores"],
        rows, title="Section IV.D - cores under a 100 W TDP",
    )


RENDERERS: Dict[str, Callable] = {
    "table1": _render_table1,
    "table2": _render_table2,
    "fig2": _render_fig2,
    "fig3": _render_fig3,
    "fig4": _render_fig4,
    "fig5": _render_fig5,
    "fig6": _render_fig6,
    "fig7": _render_fig7,
    "fig8": _render_fig8,
    "fig9": _render_fig9,
    "fig10": _render_fig10,
    "fig11": _render_fig11,
    "fig12": _render_fig12,
    "fig13": _render_fig13,
    "fig14": _render_fig14,
    "sec4d": _render_sec4d,
}


def _truncation_note(runner: ExperimentRunner, name: str) -> str:
    """Footnote naming the figure's truncated runs (empty when none).

    Appended to the rendered table so a run that hit ``max_cycles``
    (partial energy/AoPB aggregates) is never reported silently.
    """
    decl = ex.FIGURE_RECIPES.get(name)
    if decl is None:
        return ""
    bad = runner.truncated_of(decl())
    if not bad:
        return ""
    labels = [
        f"{r.benchmark} x{r.cores} {r.technique}"
        + (f"/{r.policy}" if r.policy else "")
        for r in bad
    ]
    return (
        f"\n\nNOTE: {len(bad)} run(s) hit max_cycles before every thread "
        "finished; their energy/AoPB aggregates cover only the simulated "
        "prefix: " + ", ".join(labels)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("figures", nargs="*",
                        help=f"subset to render (default: all of "
                             f"{', '.join(RENDERERS)})")
    parser.add_argument("--scale", default=None,
                        help="simulation scale (tiny/small/medium/large)")
    parser.add_argument("--out", default="results",
                        help="output directory (default ./results)")
    parser.add_argument("--stdout", action="store_true",
                        help="print to stdout instead of files")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for cold simulations "
                             "(default: REPRO_JOBS, else os.cpu_count())")
    parser.add_argument("--engine", default=None,
                        choices=["auto", "reference", "fast"],
                        help="cycle engine for cold simulations "
                             "(default: REPRO_ENGINE, else reference; "
                             "both produce byte-identical results)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="also run one telemetry-enabled simulation "
                             "of the first requested figure's PTB recipe "
                             "and write a Perfetto trace here")
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")

    wanted = args.figures or list(RENDERERS)
    unknown = [f for f in wanted if f not in RENDERERS]
    if unknown:
        parser.error(f"unknown figures: {unknown}; "
                     f"available: {sorted(RENDERERS)}")

    runner = ExperimentRunner(scale=args.scale, jobs=args.jobs,
                              engine=args.engine)
    out_dir = Path(args.out)
    if not args.stdout:
        out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    # Plan the whole report up front: one dedupe + fan-out across every
    # requested figure, so cross-figure shared recipes (the base runs)
    # simulate once and cold recipes use the full worker width.
    recipes = ex.recipes_for(wanted)
    if recipes:
        runner.run_many(recipes)

    for name in wanted:
        text = RENDERERS[name](runner) + _truncation_note(runner, name)
        if args.stdout:
            print(text)
            print()
        else:
            path = out_dir / f"{name}.txt"
            path.write_text(text + "\n")
            print(f"wrote {path}")
    wall = time.perf_counter() - t0

    if recipes:  # static-only renders never touch the runner
        print(f"[bench] engine={runner.engine} jobs={runner.jobs} "
              f"scale={runner.scale} "
              f"simulated={runner.stats['simulated']} "
              f"(mem {runner.stats['mem_hits']} / disk "
              f"{runner.stats['disk_hits']} hits) wall={wall:.2f}s")

    if args.trace:
        _run_trace(runner, wanted, args.trace)
    return 0


def _run_trace(runner: ExperimentRunner, wanted, path: str) -> None:
    """Trace the first requested figure's PTB recipe to ``path``.

    Traced runs bypass the result cache (a cache hit has no live event
    stream) and the runner's stats, so the summary line above is
    unaffected.  Lazy import: ``repro.telemetry`` pulls this package
    back in for its summary table.
    """
    from ..telemetry.cli import pick_recipe, run_traced
    from ..telemetry.export import validate_chrome_trace, write_chrome_trace
    from ..telemetry.summary import phase_breakdown_table

    fig = next((f for f in wanted if f in ex.FIGURE_RECIPES), "fig9")
    recipe = pick_recipe(fig)
    sim, result = run_traced(
        recipe.benchmark, recipe.cores, technique=recipe.technique,
        policy=recipe.policy, budget_fraction=recipe.budget_fraction,
        scale=str(runner.scale), max_cycles=runner.max_cycles,
        seed=runner.seed,
    )
    trace = write_chrome_trace(sim.telemetry, path)
    problems = validate_chrome_trace(trace)
    for p in problems:
        print(f"[trace] schema: {p}", file=sys.stderr)
    print(f"[trace] {fig}: {recipe.benchmark} x{recipe.cores} "
          f"{recipe.technique}"
          + (f"/{recipe.policy}" if recipe.policy else "")
          + f" -> {path} ({result.cycles} cycles, "
          f"{sim.telemetry.bus.total_events} events)")
    print(phase_breakdown_table(sim.telemetry))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
