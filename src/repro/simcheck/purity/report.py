"""Purity report assembly + table rendering.

The JSON report (``purity-report.json``) is a machine-readable summary
the service layer can consume (which inputs the key covers, which
ambient reads exist and are justified), plus a human table for
``--format table``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..lint import Finding
from .cachekey import CacheModel
from .workers import WorkerReport


def build_report(
    model: Optional[CacheModel],
    key_report: Optional[Dict[str, object]],
    worker_report: Optional[WorkerReport],
    findings: List[Finding],
) -> Dict[str, object]:
    by_rule: Dict[str, int] = {}
    for f in findings:
        by_rule[f.rule_id] = by_rule.get(f.rule_id, 0) + 1
    out: Dict[str, object] = {
        "version": 1,
        "findings_by_rule": dict(sorted(by_rule.items())),
    }
    if model is not None:
        out["cache"] = {
            "module": model.relpath,
            "key_fn": model.key_fn.name,
            "simulate": model.simulate_fn.name if model.simulate_fn else None,
            "workers": [fn.name for fn in model.worker_fns],
            "recipe_class": model.recipe_cls.name if model.recipe_cls else None,
            "config_class": model.config_cls.name if model.config_cls else None,
            "result_class": model.result_cls.name if model.result_cls else None,
        }
    if key_report is not None:
        out["key_coverage"] = key_report
    if worker_report is not None:
        out["workers"] = {
            "roots": worker_report.roots,
            "reachable_functions": worker_report.reachable,
            "env_reads": sorted(worker_report.env_reads),
            "clock_reads": sorted(worker_report.clock_reads),
            "random_reads": sorted(worker_report.random_reads),
            "global_writes": worker_report.global_writes,
        }
    return out


def render_table(report: Dict[str, object], findings: List[Finding]) -> str:
    lines: List[str] = []
    cache = report.get("cache")
    if cache:
        lines.append("cache under analysis")
        lines.append(
            f"  {cache['module']}: key={cache['key_fn']} "
            f"simulate={cache['simulate']} "
            f"workers={','.join(cache['workers']) or '-'}"
        )
        lines.append(
            f"  recipe={cache['recipe_class']} config={cache['config_class']} "
            f"result={cache['result_class']}"
        )
    cov = report.get("key_coverage")
    if cov:
        recipe, params, config = cov["recipe"], cov["params"], cov["config"]
        lines.append("key coverage")
        lines.append(
            f"  recipe fields   {recipe['fields'] - len(recipe['missing'])}"
            f"/{recipe['fields']} covered"
            + (f"  missing: {', '.join(recipe['missing'])}"
               if recipe["missing"] else "")
        )
        lines.append(
            f"  simulate params {len(params['simulate']) - len(params['missing'])}"
            f"/{len(params['simulate'])} covered"
            + (f"  missing: {', '.join(params['missing'])}"
               if params["missing"] else "")
        )
        digest = "via config digest" if config["digest"] else "field-by-field"
        lines.append(
            f"  config leaves   {config['leaves']} ({digest})"
            + (f"  missing: {', '.join(config['missing'])}"
               if config["missing"] else "")
        )
    workers = report.get("workers")
    if workers:
        lines.append("worker purity")
        lines.append(
            f"  reachable functions: {workers['reachable_functions']} "
            f"from {', '.join(workers['roots']) or '-'}"
        )
        for label, key in (
            ("env reads", "env_reads"),
            ("clock reads", "clock_reads"),
            ("random reads", "random_reads"),
            ("global writes", "global_writes"),
        ):
            vals = workers.get(key) or []
            lines.append(f"  {label}: {', '.join(vals) if vals else 'none'}")
    lines.append("findings")
    by_rule = report.get("findings_by_rule") or {}
    if by_rule:
        for rule, count in by_rule.items():
            lines.append(f"  {rule}: {count}")
        for f in findings:
            lines.append(f"  {f.path}:{f.line}: {f.rule_id} {f.message}")
    else:
        lines.append("  none")
    return "\n".join(lines) + "\n"
