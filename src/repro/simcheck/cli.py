"""``python -m repro.simcheck`` — the simcheck command-line front end.

Three static passes, one entry each in :data:`PASSES`:

* ``lint PATH...``  — the SIM rules (local idioms such as set-order
  iteration and unseeded randomness), one ``file:line:col: RULE msg``
  line per finding.
* ``flow PATH``     — whole-program unit/dimension propagation (UNIT
  rules).
* ``purity PATH``   — cache-key soundness (KEY rules) and worker-purity
  analysis (PURE rules) rooted at the experiment runner's cache.

Every pass accepts ``--format json`` (one JSON object ``{"tool",
"findings": [...], "count"}``) and ``--format sarif`` (SARIF 2.1.0 for
code-scanning annotations); ``purity`` also accepts ``--format table``
for its coverage report.  All three share one baseline surface —
``--baseline FILE`` / ``--write-baseline`` / ``--prune-baseline`` — so
CI fails only on regressions and every accepted finding carries a
justification.  ``all PATH`` runs every registered pass against its
default baseline through the same gate and writes one merged SARIF.

``smoke`` runs a short 2-core simulation under every PTB policy with
all runtime sanitizers enabled and exits non-zero on any
:class:`SanitizerViolation` (the CI gate for hook regressions).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .flow.baseline import (
    apply_baseline,
    load_baseline,
    read_baseline,
    write_baseline,
)
from .lint import Finding, iter_rules, lint_paths


@dataclass
class Analysis:
    """What one pass produced.  ``error`` set means exit 2, no gate."""

    findings: List[Finding] = field(default_factory=list)
    report: Optional[Dict[str, object]] = None
    notes: List[str] = field(default_factory=list)
    error: Optional[str] = None


@dataclass(frozen=True)
class Pass:
    """One registered analysis pass."""

    name: str
    baseline: str  # default baseline file, used by ``all``
    help: str
    analyze: Callable[[argparse.Namespace], Analysis]
    add_args: Callable[[argparse.ArgumentParser], None]
    table: Optional[Callable[[Dict[str, object], List[Finding]], str]] = None


def _package_dir(value: str) -> Path:
    """argparse type for a package root: an existing directory."""
    root = Path(value)
    if not root.is_dir():
        raise argparse.ArgumentTypeError(f"not a directory: {root}")
    return root


def _analyze_lint(args: argparse.Namespace) -> Analysis:
    if not args.paths:
        return Analysis(error="no paths given")
    try:
        findings = lint_paths(
            args.paths,
            enable=args.enable.split(",") if args.enable else None,
            disable=args.disable.split(",") if args.disable else None,
            config_path=args.config,
        )
    except (OSError, SyntaxError) as exc:
        return Analysis(error=str(exc))
    return Analysis(findings)


def _analyze_flow(args: argparse.Namespace) -> Analysis:
    from .flow import analyze_package

    findings, notes = analyze_package(args.path)
    return Analysis(findings, notes=notes)


def _analyze_purity(args: argparse.Namespace) -> Analysis:
    from .purity import analyze_purity

    res = analyze_purity(args.path)
    if res.model is None:
        return Analysis(
            notes=res.notes,
            error="no cache-key builder found; nothing to analyze",
        )
    return Analysis(res.findings, res.report, res.notes)


def _purity_table(report: Dict[str, object], new: List[Finding]) -> str:
    from .purity import render_table

    return render_table(report, new)


class _ListRules(argparse.Action):
    """``lint --list-rules``: print the rule catalog and exit 0."""

    def __call__(self, parser, namespace, values, option_string=None):
        for rule in iter_rules():
            print(f"{rule.rule_id}  {rule.description}")
        parser.exit()


def _lint_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("paths", nargs="*", help="files or directories to lint")
    sub.add_argument("--enable", help="comma-separated rule ids to run exclusively")
    sub.add_argument("--disable", help="comma-separated rule ids to skip")
    sub.add_argument(
        "--config", help="path to config.py for SIM006 (default: autodetect)"
    )
    sub.add_argument(
        "--list-rules", action=_ListRules, nargs=0,
        help="print the rule catalog and exit",
    )


def _package_args(sub: argparse.ArgumentParser, notes: str) -> None:
    sub.add_argument(
        "path", type=_package_dir,
        help="package root to analyze (e.g. src/repro)",
    )
    sub.add_argument(
        "--verbose", action="store_true", help=f"print analysis notes ({notes})"
    )


def _flow_args(sub: argparse.ArgumentParser) -> None:
    _package_args(sub, "module count, parse errors")


def _purity_args(sub: argparse.ArgumentParser) -> None:
    _package_args(sub, "cache module, reachable-function count")
    sub.add_argument(
        "--report", metavar="FILE",
        help="write the machine-readable purity report (purity-report.json)",
    )


#: The registered passes, in gate order.
PASSES: Dict[str, Pass] = {
    p.name: p
    for p in (
        Pass("lint", ".simcheck-lint-baseline.json",
             "run the SIM lint rules over paths", _analyze_lint, _lint_args),
        Pass("flow", ".simcheck-baseline.json",
             "whole-program unit/dimension analysis (UNIT rules)",
             _analyze_flow, _flow_args),
        Pass("purity", ".simcheck-purity-baseline.json",
             "cache-key soundness (KEY rules) + worker purity (PURE rules)",
             _analyze_purity, _purity_args, table=_purity_table),
    )
}


def _say(tool: str, message: object) -> None:
    print(f"simcheck {tool}: {message}", file=sys.stderr)


def _emit_findings(tool: str, findings: Sequence[Finding], fmt: str) -> None:
    """Print findings as ``file:line:col`` lines or one document."""
    if fmt == "sarif":
        from .sarif import render_sarif

        print(render_sarif(tool, findings))
    elif fmt == "json":
        doc = {
            "tool": tool,
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "rule": f.rule_id,
                    "message": f.message,
                    "fingerprint": f.identity(),
                }
                for f in findings
            ],
            "count": len(findings),
        }
        print(json.dumps(doc, indent=2))
    else:
        for finding in findings:
            print(finding.render())


def _prune_baseline(
    tool: str, baseline_path: Path, findings: Sequence[Finding]
) -> int:
    """Drop baseline entries whose fingerprint no longer fires.

    Rewrites the file in place preserving rule/example/justification on
    the surviving entries, and reports exactly what was pruned so the
    cleanup is auditable from the CI log.
    """
    if not baseline_path.exists():
        _say(tool, f"no baseline at {baseline_path}; nothing to prune")
        return 2
    data = read_baseline(baseline_path)
    fired = {f.identity() for f in findings}
    entries = data["findings"]
    kept = [e for e in entries if e["fingerprint"] in fired]
    pruned = [e for e in entries if e["fingerprint"] not in fired]
    for entry in pruned:
        print(
            f"simcheck {tool}: pruned stale baseline entry "
            f"{entry['fingerprint']} (was {entry.get('example', '?')})"
        )
    if pruned:
        data["findings"] = kept
        baseline_path.write_text(json.dumps(data, indent=2) + "\n")
    _say(tool, f"pruned {len(pruned)} stale entr"
               f"{'y' if len(pruned) == 1 else 'ies'}, kept {len(kept)}")
    return 0


def _gate(p: Pass, args: argparse.Namespace) -> Tuple[int, List[Finding]]:
    """Run one pass, service the baseline flags, print and gate.

    Returns ``(exit status, unbaselined findings)``; the one code path
    behind both ``simcheck <pass>`` and every pass of ``simcheck all``.
    """
    baseline_path = Path(args.baseline) if args.baseline else None
    for flag in ("prune_baseline", "write_baseline"):
        if getattr(args, flag) and baseline_path is None:
            _say(p.name, f"--{flag.replace('_', '-')} requires --baseline FILE")
            return 2, []
    try:
        baseline = load_baseline(baseline_path) if baseline_path else {}
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _say(p.name, exc)
        return 2, []

    analysis = p.analyze(args)
    if args.verbose:
        for note in analysis.notes:
            print(note, file=sys.stderr)
    if analysis.error:
        _say(p.name, analysis.error)
        return 2, []
    if args.report and analysis.report is not None:
        Path(args.report).write_text(json.dumps(analysis.report, indent=2) + "\n")
        _say(p.name, f"wrote report to {args.report}")

    if args.prune_baseline:
        return _prune_baseline(p.name, baseline_path, analysis.findings), []
    if args.write_baseline:
        count = write_baseline(baseline_path, analysis.findings, baseline)
        _say(p.name, f"wrote {count} baseline entries to {baseline_path}")
        return 0, []

    new, suppressed, stale = apply_baseline(analysis.findings, baseline)
    if args.format == "table":
        print(p.table(analysis.report, new), end="")
    else:
        _emit_findings(p.name, new, args.format)
    if suppressed:
        _say(p.name, f"{len(suppressed)} baselined finding(s) suppressed")
    for fp in stale:
        _say(p.name, f"stale baseline entry (no longer fires): {fp}")
    if new:
        _say(p.name, f"{len(new)} new finding(s) — fix them or baseline "
                     "with a justification")
        return 1, new
    return 0, new


def _cmd_pass(args: argparse.Namespace) -> int:
    return _gate(PASSES[args.command], args)[0]


def _cmd_all(args: argparse.Namespace) -> int:
    """Run every registered pass once: one gate, one merged SARIF."""
    from .sarif import merge_sarif, sarif_document

    reports_dir = Path(args.reports_dir)
    reports_dir.mkdir(parents=True, exist_ok=True)

    parser = build_parser()
    status = 0
    docs = []
    for p in PASSES.values():
        pass_args = parser.parse_args(
            [p.name, str(args.path), "--baseline", p.baseline]
        )
        pass_args.verbose = args.verbose
        pass_args.report = str(reports_dir / f"{p.name}-report.json")
        code, new = _gate(p, pass_args)
        status = max(status, code)
        docs.append(sarif_document(p.name, new))

    sarif_path = reports_dir / "simcheck.sarif"
    sarif_path.write_text(
        json.dumps(merge_sarif(docs), indent=2, sort_keys=True) + "\n"
    )
    _say("all", f"{len(docs)} passes gated, merged SARIF at {sarif_path}, "
                f"reports in {reports_dir}/ — "
                f"{'CLEAN' if status == 0 else 'FAILED'}")
    return status


def _make_smoke_program(num_threads: int, work: int):
    """Tiny lock+barrier reference program for the sanitized smoke run."""
    # Imported lazily: lint must not drag the simulator (and numpy) in.
    from ..trace.phases import (
        BarrierPhase,
        ComputePhase,
        LockPhase,
        ParallelProgram,
        ThreadProgram,
    )

    threads = []
    for t in range(num_threads):
        phases = []
        for b in range(2):
            phases.append(
                ComputePhase(instructions=work, footprint_lines=512)
            )
            phases.append(
                LockPhase(
                    lock_id=0,
                    critical_section=ComputePhase(
                        instructions=40, footprint_lines=512
                    ),
                )
            )
            phases.append(BarrierPhase(b))
        threads.append(ThreadProgram(thread_id=t, phases=tuple(phases)))
    return ParallelProgram(name="simcheck-smoke", threads=tuple(threads))


def _cmd_smoke(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from ..config import CMPConfig
    from ..sim.cmp import run_simulation
    from .sanitizers import SanitizerViolation

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    bad = [p for p in policies if p not in ("toall", "toone", "dynamic")]
    if bad or not policies:
        _say("smoke", f"unknown policy {', '.join(bad) or '(none)'} — "
                      "choose from toall, toone, dynamic")
        return 2

    cfg = replace(CMPConfig(num_cores=args.cores), sanitize=True)
    program = _make_smoke_program(args.cores, args.work)
    failures = 0
    for policy in policies:
        try:
            result = run_simulation(
                cfg, program, technique="ptb", ptb_policy=policy,
                max_cycles=args.max_cycles,
            )
        except SanitizerViolation as exc:
            print(f"smoke[{policy}]: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(
            f"smoke[{policy}]: ok — {result.cycles} cycles, "
            f"{result.committed_instructions} instructions, sanitizers clean"
        )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.simcheck",
        description="Simulator-correctness checks: static passes + "
        "sanitized smoke run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for p in PASSES.values():
        cmd = sub.add_parser(p.name, help=p.help)
        p.add_args(cmd)
        cmd.add_argument(
            "--baseline",
            help="baseline JSON of accepted findings, fail only on "
            f"regressions (e.g. {p.baseline})",
        )
        cmd.add_argument(
            "--write-baseline", action="store_true",
            help="rewrite the baseline from current findings and exit 0",
        )
        cmd.add_argument(
            "--prune-baseline", action="store_true",
            help="drop baseline entries that no longer fire and report them",
        )
        cmd.add_argument(
            "--format", default="text",
            choices=("text", "json", "sarif") + (("table",) if p.table else ()),
            help="finding output format (default: text)",
        )
        cmd.set_defaults(func=_cmd_pass, verbose=False, report=None)

    allcmd = sub.add_parser(
        "all", help=f"run {'+'.join(PASSES)} with default baselines"
    )
    allcmd.add_argument(
        "path", type=_package_dir,
        help="package root to analyze (e.g. src/repro)",
    )
    allcmd.add_argument(
        "--reports-dir", default="reports",
        help="directory for pass reports and merged SARIF (default: reports)",
    )
    allcmd.add_argument(
        "--verbose", action="store_true", help="print per-pass analysis notes"
    )
    allcmd.set_defaults(func=_cmd_all)

    smoke = sub.add_parser(
        "smoke", help="short 2-core sim under every policy with sanitizers on"
    )
    smoke.add_argument("--cores", type=int, default=2)
    smoke.add_argument("--work", type=int, default=800)
    smoke.add_argument("--max-cycles", type=int, default=60_000)
    smoke.add_argument("--policies", default="toall,toone,dynamic")
    smoke.set_defaults(func=_cmd_smoke)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
