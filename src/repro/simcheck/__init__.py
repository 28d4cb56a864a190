"""Simulator-correctness tooling: AST lint rules + runtime sanitizers.

PTB's headline numbers (AoPB within ~3% of the budget) are only as
trustworthy as the simulator's bookkeeping: a lost power token, a MOESI
state violation or a nondeterministic iteration order silently corrupts
every figure.  This package provides two independent lines of defence:

* **Static passes** — an ``ast``-based linter with simulator-specific
  rules (SIM001-SIM006; :mod:`repro.simcheck.lint`,
  :mod:`repro.simcheck.rules`) plus two whole-program analyses
  sharing one discovery/effect engine: tick-order hazards and units
  (:mod:`repro.simcheck.flow`) and cache-key soundness + worker
  purity (:mod:`repro.simcheck.purity`).  All three gate CI through
  one pass registry: ``python -m repro.simcheck all src/repro``.

* **Runtime sanitizers** (:mod:`repro.simcheck.sanitizers`) — opt-in
  cross-cutting invariant checks (token conservation, MOESI single-owner,
  NoC progress, ROB ordering) enabled via ``CMPConfig.sanitize=True`` or
  ``REPRO_SANITIZE=1``; zero overhead when off.
"""

from .lint import (
    ConfigModel,
    Finding,
    LintRule,
    iter_rules,
    lint_paths,
    lint_source,
    register_rule,
)
from .sanitizers import (
    CoherenceSanitizer,
    NoCProgressSanitizer,
    PipelineSanitizer,
    SanitizerSuite,
    SanitizerViolation,
    TokenSanitizer,
    sanitize_enabled,
)

__all__ = [
    "ConfigModel",
    "Finding",
    "LintRule",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "register_rule",
    "CoherenceSanitizer",
    "NoCProgressSanitizer",
    "PipelineSanitizer",
    "SanitizerSuite",
    "SanitizerViolation",
    "TokenSanitizer",
    "sanitize_enabled",
]
