"""Power Token Balancing (PTB) — the paper's contribution.

Every cycle, each core reports how many power tokens it consumed
against its local per-cycle allotment.  Cores under their allotment
offer the difference (their *spare* tokens) to the centralized PTB
load-balancer; the balancer redistributes them to cores over their
allotment so those cores can keep running at full speed without the CMP
exceeding the global budget.  Tokens are a currency: only counts travel
over the dedicated wires, and nothing is banked — spares unused in a
cycle vanish (Section III.E.2: "tokens from previous cycles are not
stored in the balancer").

Distribution policies (Section III.E.1):

* **ToAll** — split the pool equally among all cores over budget.
* **ToOne** — give the whole pool to the single most over-budget core.
* **dynamic** — pick ToOne while lock-spinning dominates and ToAll
  while barrier-spinning dominates (Section IV.B).

Timing: the balancer round-trip (send + process + return) is 3 cycles
for 4 cores, 5 for 8, 10 for 16 (Xilinx ISE estimates in the paper), so
grants arriving at cycle ``t`` were computed from spares and requests
of cycle ``t - latency``.  A core that pledged spares runs under a
correspondingly *more restrictive* budget until the pledge lands, so
the global constraint holds while tokens are in flight.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..config import CMPConfig
from ..power.microarch import ISSUE_TECHNIQUES, Technique, select_technique
from ..power.model import EnergyModel
from ..units import Tokens, Watts
from .controller import LocalBudgetController


class PTBLoadBalancer:
    """The centralized token redistribution logic (pure, unit-testable)."""

    __slots__ = ("num_cores", "latency", "_pipe", "_pending",
                 "granted_total", "_sanitizer", "_telemetry")

    def __init__(self, num_cores: int, latency: int) -> None:
        if num_cores <= 0:
            raise ValueError("need at least one core")
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.num_cores = num_cores
        self.latency = latency
        # In-flight (spares, overs, priority) snapshots.
        self._pipe: Deque[Tuple[List[int], List[int], List[int]]] = deque()
        # Running per-core sum of the spare columns in ``_pipe``, kept
        # incrementally (integer tokens, so add/subtract is exact) to
        # make :meth:`pending_pledge` O(1) instead of O(latency).
        self._pending: List[int] = [0] * num_cores
        self.granted_total = 0
        #: Optional :class:`repro.simcheck.TokenSanitizer` hook.
        self._sanitizer = None
        #: Optional :class:`repro.telemetry.TelemetrySession` hook.
        self._telemetry = None

    @staticmethod
    def distribute(
        pool: Tokens,
        overs: List[Tokens],
        policy: str,
        priority: Optional[List[int]] = None,
    ) -> List[Tokens]:
        """Split ``pool`` spare tokens among over-budget cores.

        ``overs[i]`` is how many tokens core ``i`` is over its local
        budget (0 = not over).  Returns per-core grants.  Grants never
        exceed the pool (token conservation) but a single core may
        receive more than its overshoot (headroom for the next cycle).

        ``priority`` lists cores holding contended locks: under ToOne
        those threads gate the whole application, so the pool goes to
        them even before their power ramps over the budget ("priority to
        threads that enter a critical section", Section IV.B).
        """
        n = len(overs)
        grants = [0] * n
        if pool <= 0:
            return grants
        if policy == "toone":
            # Concentrate tokens on the most power-hungry core first: it
            # is served *fully* (with headroom) before anyone else sees a
            # token, then the remainder flows to the next-most-needy.  A
            # contended-lock holder outranks raw overshoot — it gates the
            # whole application's progress.
            order = [i for i in range(n) if overs[i] > 0]
            order.sort(key=overs.__getitem__, reverse=True)
            for p in reversed(priority or ()):
                if p in order:
                    order.remove(p)
                order.insert(0, p)
            for i in order:
                if pool <= 0:
                    break
                want = max(overs[i] * 2, 1)
                g = min(pool, want)
                grants[i] = g
                pool -= g
            return grants
        if policy == "toall":
            needy = [i for i in range(n) if overs[i] > 0]
            for p in priority or ():
                if p not in needy:
                    needy.append(p)
            if not needy:
                return grants
            share, rem = divmod(pool, len(needy))
            for j, i in enumerate(needy):
                grants[i] = share + (1 if j < rem else 0)
            return grants
        raise ValueError(f"unknown distribution policy {policy!r}")

    def cycle(
        self,
        spares: List[Tokens],
        overs: List[Tokens],
        policy: str,
        priority: Optional[List[int]] = None,
    ) -> List[Tokens]:
        """Advance one cycle: ingest this cycle's reports, emit grants.

        The returned grants correspond to the reports of ``latency``
        cycles ago (wire + processing delay).  With ``latency == 0`` the
        balancer is combinational (used by the ablation benchmarks).
        """
        self._pipe.append((list(spares), list(overs), list(priority or ())))
        pending = self._pending
        for i in range(self.num_cores):
            pending[i] += spares[i]
        if len(self._pipe) <= self.latency:
            grants = [0] * self.num_cores
        else:
            old_spares, old_overs, old_priority = self._pipe.popleft()
            pool = 0
            for i in range(self.num_cores):
                delivered = old_spares[i]
                pending[i] -= delivered
                pool += delivered
            grants = self.distribute(pool, old_overs, policy, old_priority)
            if self._sanitizer is not None:
                self._sanitizer.check_distribution(pool, grants)
            self.granted_total += sum(grants)
        if self._telemetry is not None:
            # Pledges are stamped at ingestion, grants at delivery.
            self._telemetry.on_balancer(spares, grants)
        return grants

    def pending_pledge(self, core: int) -> Tokens:
        """Tokens core ``core`` has reported spare and not yet delivered."""
        return self._pending[core]

    def copy_pending(self, out: List[Tokens]) -> None:
        """Snapshot every core's undelivered pledge into ``out`` in place
        (the controller's per-cycle buffer; avoids a fresh list per cycle)."""
        out[:] = self._pending


class PTBController(LocalBudgetController):
    """PTB on top of the 2-level technique (the paper's "PTB+2level").

    Control currency is tokens/cycle.  The local token allotment is the
    controllable slice of the local power budget:

        T_local = (global_budget / n - uncontrollable) / token_unit

    Each cycle the controller computes per-core spares and overshoots,
    runs them through the balancer, and triggers the second-level
    microarchitectural technique only on cores whose consumption exceeds
    their *augmented* budget (allotment + granted - pledged) while the
    CMP is over the global budget — with an optional relaxation factor
    (Section IV.C) that trades accuracy for energy.
    """

    def __init__(
        self,
        cfg: CMPConfig,
        energy: EnergyModel,
        global_budget: Watts,
        policy: Optional[str] = None,
    ) -> None:
        super().__init__(cfg, energy, global_budget, technique="2level")
        self.name = "ptb"
        self.uses_ptht = True
        self.policy = policy if policy is not None else cfg.ptb.policy
        if self.policy not in ("toall", "toone", "dynamic"):
            raise ValueError(f"unknown PTB policy {self.policy!r}")
        self.relax = cfg.ptb.relax_threshold
        latency = cfg.ptb.round_trip_latency(cfg.num_cores)
        self.balancer = PTBLoadBalancer(cfg.num_cores, latency)
        unctrl = energy.uncontrollable_power
        self.token_budget: Tokens = max(
            1.0, energy.eu_to_tokens(self.local_budget - unctrl)
        )
        self.global_token_budget: Tokens = self.token_budget * cfg.num_cores
        self._grants: List[Tokens] = [0] * cfg.num_cores
        self._last_spares: List[Tokens] = [0] * cfg.num_cores
        self._last_overs: List[Tokens] = [0] * cfg.num_cores
        # Per-cycle scratch reused across end_cycle calls, so the hot
        # path allocates no lists (four fresh ones per cycle otherwise).
        # ``_last_spares``/``_last_overs`` alias the report buffers after
        # end_cycle — observers read them before the next cycle
        # overwrites them, and the balancer snapshots its own copies into
        # the pipe.
        self._zeros: List[Tokens] = [0] * cfg.num_cores
        self._pledged_buf: List[Tokens] = [0] * cfg.num_cores
        self._spares_buf: List[Tokens] = [0] * cfg.num_cores
        self._overs_buf: List[Tokens] = [0] * cfg.num_cores
        #: Per-core effective token budget of the last completed cycle:
        #: allotment + delivered grants - every pledge still in flight.
        self.effective_budgets: List[Tokens] = (
            [self.token_budget] * cfg.num_cores
        )
        #: Optional :class:`repro.simcheck.TokenSanitizer` hook.
        self._sanitizer = None
        self.policy_switches = 0
        self._current_policy = (
            "toall" if self.policy == "dynamic" else self.policy
        )

    def _select_policy(self, sync_domain) -> str:
        """Dynamic selector: lock-spinning -> ToOne, barriers -> ToAll."""
        if self.policy != "dynamic":
            return self.policy
        if sync_domain is None:
            return "toall"
        locks = sync_domain.cores_waiting_on_locks()
        barriers = sync_domain.cores_waiting_on_barriers()
        chosen = "toone" if locks > barriers else "toall"
        if chosen != self._current_policy:
            self.policy_switches += 1
            self._current_policy = chosen
        return chosen

    def end_cycle(
        self,
        now: int,
        tokens: List[Tokens],
        powers: List[Watts],
        sync_domain=None,
    ) -> None:
        n = self.num_cores
        t_local = self.token_budget

        # --- DVFS level 1, identical to the naive controller ----------------
        total = 0.0
        for p in powers:
            total += p
        self._win_energy += total
        self._win_left -= 1
        if self._win_left <= 0:
            w = self.cfg.dvfs.window_cycles
            self._global_over_window = (self._win_energy / w) > self.global_budget
            self._win_energy = 0.0
            self._win_left = w
        dvfs_budget = (
            self.local_budget if self._global_over_window else float("inf")
        )

        # --- token bookkeeping ------------------------------------------------
        global_over = sum(tokens) > self.global_token_budget
        zeros = self._zeros
        spares = self._spares_buf
        spares[:] = zeros
        overs = self._overs_buf
        overs[:] = zeros
        grants = self._grants
        # Cores *approaching* their allotment request tokens too: the
        # balancer round trip is 3-10 cycles, so waiting until a core is
        # already over would leave every power ramp uncovered for a full
        # round trip.
        near_floor = int(t_local * 0.85)
        # A pledging core's usable allotment shrinks by *everything* it
        # has reported spare that the balancer has not delivered yet —
        # the pipe holds `latency` cycles of undelivered pledges, not
        # just the last cycle's.  Snapshot before this cycle's reports
        # enter the pipe.
        pledged = self._pledged_buf
        self.balancer.copy_pending(pledged)
        for i in range(n):
            usable = t_local - pledged[i] + grants[i]
            if tokens[i] >= near_floor:
                # Power-hungry (at or approaching the allotment):
                # request the gap between consumption and what is
                # actually usable.  In-flight pledges shrink `usable`,
                # so a ramping ex-donor asks for its own escrowed
                # tokens back instead of spending them a second time
                # while the balancer grants them to someone else.
                request = tokens[i] - min(int(usable), near_floor)
                if request > 0:
                    overs[i] = int(request)
            elif tokens[i] < t_local:
                # Spares flow whenever they exist (Figure 7's barrier
                # example): a spinner's unused allotment continuously
                # subsidises whoever is doing useful work.  Each cycle's
                # spare is drawn from that cycle's fresh allotment, so
                # pending pledges don't reduce the *flow* a steady
                # spinner offers — they reduce what it may *spend*.
                spare = int(t_local - tokens[i])
                if spare > 0:
                    spares[i] = spare

        if self._sanitizer is not None:
            self._sanitizer.check_reports(
                tokens, spares, overs, t_local, self.global_token_budget
            )

        policy = self._select_policy(sync_domain)
        priority = (
            sync_domain.contended_lock_holders()
            if sync_domain is not None
            else []
        )
        grants = self._grants = self.balancer.cycle(spares, overs, policy, priority)
        # Last cycle's reports, kept for observability (tests, sanitizers).
        self._last_spares = spares
        self._last_overs = overs

        # --- actuators for next cycle -----------------------------------------
        throttles = self._throttles
        relax = self.relax
        dvfs = self._dvfs
        execute = self.execute
        v_scales = self.v_scale
        effective_budgets = self.effective_budgets
        budget_lines = self.budget_lines
        local_budget = self.local_budget
        tokens_to_eu = self.energy.tokens_to_eu
        telemetry = self._telemetry
        fetch_allowed = self.fetch_allowed
        issue_widths = self.issue_width
        full_width = self.cfg.core.issue_width
        for i in range(n):
            ctl = dvfs[i]
            execute[i] = ctl.tick(powers[i], dvfs_budget)
            v_scales[i] = ctl.v_scale
            th = throttles[i]
            # Control plane: a pledging donor runs under a restricted
            # budget until its tokens land (paper Section III.E.2).
            # Restriction covers the full round trip: every snapshot
            # still in the pipe (pledged[i] was taken before this
            # cycle's reports entered it, so add spares[i]) including
            # the one delivered as this cycle's grants — the donor
            # stays restricted through the cycle its tokens are spent,
            # so sum(effective budgets) + pipe contents never exceeds
            # the global token budget.
            eff_budget = t_local + grants[i] - (pledged[i] + spares[i])
            effective_budgets[i] = eff_budget
            # Metric plane: the AoPB budget line rises with granted
            # tokens; a donor is simply under its local line, so the
            # pledge does not lower the line it is measured against.
            budget_lines[i] = local_budget + tokens_to_eu(grants[i])
            if global_over and eff_budget <= 0 and tokens[i] > 0:
                # The core pledged its whole allotment away (or more)
                # and is consuming anyway: in-flight tokens must not be
                # spendable by the donor and grantable to a receiver
                # simultaneously.  Graded against the nominal allotment
                # (eff_budget can't scale a deficit), so a lightly
                # spinning donor is nudged while a deeply overdrawn one
                # is gated.  No relax slack here: relaxation spares
                # performance-critical work, not escrow violations.
                overshoot = (tokens[i] - eff_budget) / t_local
                th.set(select_technique(overshoot))
                self.throttled_cycles += 1
            elif (global_over and eff_budget > 0
                    and tokens[i] > eff_budget * (1.0 + relax)):
                overshoot = (tokens[i] - eff_budget) / eff_budget
                th.set(select_technique(overshoot))
                self.throttled_cycles += 1
            else:
                th.set(Technique.NONE)
            th.tick()
            if telemetry is not None:
                telemetry.on_throttle(i, int(th.technique))
            fetch_allowed[i] = th.fetch_allowed
            issue_widths[i] = (
                th.issue_width(full_width)
                if th.technique in ISSUE_TECHNIQUES
                else None
            )
