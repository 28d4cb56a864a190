"""``repro.simcheck.purity`` — cache-key soundness + worker purity.

The third simcheck pass.  ``lint`` checks local idioms, ``flow``
checks tick-order soundness — and ``purity`` proves the result cache
can be trusted: the simulation service (:mod:`repro.serve`) coalesces
tenants on the disk-cache key, so a key that silently misses an input
turns into cross-tenant result corruption, not just a stale file.

Five rules over one shared discovery (:mod:`.cachekey` finds the cache
module, recipe/config/result classes and worker entry points):

* **KEY001** — a result-affecting input (recipe field, simulate
  parameter, config field tree, or runtime-mutated module global) that
  never reaches ``_cache_key``.
* **KEY002** — a key component whose ``repr`` is not process-stable
  (sets, ``hash()``, ``id()``, default object reprs).
* **PURE001** — worker-reachable code writes module-global mutable
  state (:mod:`.workers`; process-pool residency hazard).
* **PURE002** — worker-reachable reads of ``os.environ``, the wall
  clock, or unseeded randomness outside the key.
* **PURE003** — set-typed fields in the pickled result payload
  (:mod:`.payload`; byte-identity across workers).

Like the other passes: findings carry line-independent fingerprints,
honour inline ``# simcheck: disable=RULE`` comments, and gate through a
justified baseline (``.simcheck-purity-baseline.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from ..flow.model import PackageIndex
from ..lint import Finding, _parse_disables
from .cachekey import CacheModel, check_cache_key, find_cache_model
from .payload import check_payload
from .report import build_report, render_table
from .workers import check_workers

__all__ = [
    "PurityAnalysis",
    "analyze_purity",
    "build_report",
    "render_table",
    "find_cache_model",
    "check_cache_key",
    "check_workers",
    "check_payload",
]


@dataclass
class PurityAnalysis:
    """Everything one purity run produces."""

    findings: List[Finding] = field(default_factory=list)
    model: Optional[CacheModel] = None
    report: Optional[Dict[str, object]] = None
    notes: List[str] = field(default_factory=list)


def _apply_disables(root: Path, findings: List[Finding]) -> List[Finding]:
    """Honour inline ``# simcheck: disable=RULE`` comments."""
    disables: Dict[str, Dict[int, Set[str]]] = {}
    out: List[Finding] = []
    for finding in findings:
        if finding.path not in disables:
            try:
                source = (root / finding.path).read_text()
            except OSError:
                source = ""
            disables[finding.path] = _parse_disables(source)
        rules = disables[finding.path].get(finding.line, set())
        if finding.rule_id in rules or "ALL" in rules:
            continue
        out.append(finding)
    return out


def analyze_purity(root: Path) -> PurityAnalysis:
    """Run the purity pass over the package rooted at ``root``."""
    out = PurityAnalysis()
    index = PackageIndex.build(root)
    for relpath, error in index.parse_errors:
        out.notes.append(f"purity: parse error in {relpath}: {error}")

    model, notes = find_cache_model(index)
    out.notes.extend(notes)
    out.model = model
    if model is None:
        return out

    key_findings, key_report = check_cache_key(index, model)
    worker_findings, wnotes, worker_report = check_workers(index, model)
    out.notes.extend(wnotes)
    payload_findings = check_payload(index, model.result_cls)

    findings = key_findings + worker_findings + payload_findings
    findings = _apply_disables(root, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))
    out.findings = findings
    out.report = build_report(model, key_report, worker_report, findings)
    return out
