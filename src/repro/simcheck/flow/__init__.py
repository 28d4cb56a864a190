"""Whole-program unit/dimension analysis for the simulator.

:mod:`~repro.simcheck.flow.unitcheck` propagates the
:mod:`repro.units` vocabulary (UNIT001-UNIT005) over one
:class:`~repro.simcheck.flow.model.PackageIndex`.  The index and the
effect machinery in :mod:`~repro.simcheck.flow.effects` are shared with
the purity pass.

Entry point: :func:`analyze_package`; CLI: ``python -m repro.simcheck
flow``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

from ..lint import Finding
from .baseline import apply_baseline, load_baseline, write_baseline
from .model import PackageIndex
from .unitcheck import check_units

__all__ = [
    "analyze_package",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
    "PackageIndex",
    "Finding",
]


def analyze_package(root: Path) -> Tuple[List[Finding], List[str]]:
    """Run the unit checker on one package root: (findings, notes)."""
    index = PackageIndex.build(root)
    notes: List[str] = [
        f"flow: indexed {len(index.modules)} modules under {root}"
    ]
    for rel, err in index.parse_errors:
        notes.append(f"flow: parse error in {rel}: {err}")
    findings = check_units(index)
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))
    return findings, notes
