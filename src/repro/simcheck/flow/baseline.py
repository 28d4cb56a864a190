"""Baseline file support: CI fails only on *regressions*.

A baseline (``--baseline FILE``; each pass has a default such as
``.simcheck-purity-baseline.json``) records accepted findings by
fingerprint — a line-number-independent identity such as rule + file +
function + message — together with a human justification for why each
one is acceptable.  Every simcheck gate then:

* suppresses findings whose fingerprint is baselined,
* fails on any finding that is not,
* warns (but passes) on stale entries that no longer fire, so the
  baseline shrinks as findings are fixed.

A missing file is an empty baseline; a malformed one raises
:class:`ValueError` naming the file and the bad entry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from ..lint import Finding

BASELINE_VERSION = 1
DEFAULT_JUSTIFICATION = "TODO: justify or fix"


def read_baseline(path: Path) -> Dict:
    """The parsed baseline document, with every entry checked."""
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"{path}: unsupported baseline format "
            f"(expected version {BASELINE_VERSION})"
        )
    entries = data.setdefault("findings", [])
    if not isinstance(entries, list):
        raise ValueError(
            f"{path}: 'findings' must be a list, "
            f"got {type(entries).__name__}"
        )
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(
            entry.get("fingerprint"), str
        ):
            raise ValueError(
                f"{path}: findings[{i}] must be an object with a string "
                f"'fingerprint', got {entry!r}"
            )
    return data


def load_baseline(path: Path) -> Dict[str, str]:
    """fingerprint -> justification.  Missing file = empty baseline."""
    if not path.exists():
        return {}
    return {
        entry["fingerprint"]: entry.get("justification", DEFAULT_JUSTIFICATION)
        for entry in read_baseline(path)["findings"]
    }


def apply_baseline(
    findings: Sequence[Finding], baseline: Dict[str, str]
) -> Tuple[List[Finding], List[Finding], List[str]]:
    """Split into (new, suppressed) and list stale baseline entries."""
    new: List[Finding] = []
    suppressed: List[Finding] = []
    fired = set()
    for finding in findings:
        fp = finding.identity()
        fired.add(fp)
        (suppressed if fp in baseline else new).append(finding)
    stale = sorted(fp for fp in baseline if fp not in fired)
    return new, suppressed, stale


def write_baseline(
    path: Path, findings: Sequence[Finding], old: Dict[str, str]
) -> int:
    """Write all current findings, keeping existing justifications."""
    entries = []
    seen = set()
    for finding in sorted(
        findings, key=lambda f: (f.rule_id, f.identity())
    ):
        fp = finding.identity()
        if fp in seen:
            continue
        seen.add(fp)
        entries.append(
            {
                "fingerprint": fp,
                "rule": finding.rule_id,
                "example": f"{finding.path}:{finding.line}",
                "justification": old.get(fp, DEFAULT_JUSTIFICATION),
            }
        )
    path.write_text(
        json.dumps(
            {"version": BASELINE_VERSION, "findings": entries}, indent=2
        )
        + "\n"
    )
    return len(entries)
