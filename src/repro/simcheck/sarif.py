"""Shared SARIF 2.1.0 emitter for all simcheck passes.

One static-analysis interchange document per run, minimal but valid for
GitHub code scanning: a single ``run`` whose driver is the simcheck
subcommand (``simcheck-lint`` / ``simcheck-flow`` / ``simcheck-purity``),
one ``result`` per finding, and the pass's line-independent fingerprint
carried in ``partialFingerprints`` so annotations track findings across
unrelated edits exactly like the baseline files do.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .lint import Finding

SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"


def sarif_document(tool: str, findings: Sequence[Finding]) -> Dict[str, object]:
    rule_ids = sorted({f.rule_id for f in findings})
    results: List[Dict[str, object]] = []
    for f in findings:
        results.append(
            {
                "ruleId": f.rule_id,
                "level": "warning",
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": f.path},
                            "region": {
                                "startLine": max(f.line, 1),
                                "startColumn": max(f.col + 1, 1),
                            },
                        }
                    }
                ],
                "partialFingerprints": {"simcheck/v1": f.identity()},
            }
        )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": f"simcheck-{tool}",
                        "rules": [{"id": rid} for rid in rule_ids],
                    }
                },
                "results": results,
            }
        ],
    }


def merge_sarif(documents: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Merge per-pass documents into one multi-run SARIF document.

    ``simcheck all`` emits a single document whose ``runs`` array holds
    one run per pass, in pass order, so one code-scanning upload covers
    the whole gate.
    """
    runs: List[object] = []
    for doc in documents:
        runs.extend(doc.get("runs", []))  # type: ignore[union-attr]
    return {"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": runs}


def render_sarif(tool: str, findings: Sequence[Finding]) -> str:
    return json.dumps(sarif_document(tool, findings), indent=2, sort_keys=True)
