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
from operator import add
from typing import Deque, List, Optional, Tuple

from ..config import CMPConfig
from ..power.microarch import Technique, select_technique
from ..power.model import EnergyModel
from ..units import Tokens, Watts
from .controller import LocalBudgetController


class PTBLoadBalancer:
    """The centralized token redistribution logic (pure, unit-testable)."""

    __slots__ = ("num_cores", "latency", "_pipe", "delivered", "_none",
                 "granted_total", "_sanitizer", "_telemetry")

    def __init__(self, num_cores: int, latency: int) -> None:
        if num_cores <= 0:
            raise ValueError("need at least one core")
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.num_cores = num_cores
        self.latency = latency
        # In-flight (spares, overs, priority) snapshots.  Pending pledges
        # are summed from them on demand: a controller needs them only on
        # cycles with a token request or a throttle decision.
        self._pipe: Deque[Tuple[List[int], List[int], List[int]]] = deque()
        self._none: List[int] = [0] * num_cores
        #: Spare column of the snapshot the last cycle delivered (zeros
        #: while the pipe fills).
        self.delivered: List[int] = self._none
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
        pipe = self._pipe
        pipe.append((list(spares), list(overs), list(priority or ())))
        if len(pipe) <= self.latency:
            grants = [0] * self.num_cores
            self.delivered = self._none
        else:
            old_spares, old_overs, old_priority = pipe.popleft()
            self.delivered = old_spares
            pool = sum(old_spares)
            if old_priority or any(old_overs):
                grants = self.distribute(pool, old_overs, policy, old_priority)
            else:
                # Nobody over budget and no priority core: nothing to
                # serve, whatever the pool.
                grants = [0] * self.num_cores
            if self._sanitizer is not None:
                self._sanitizer.check_distribution(pool, grants)
            self.granted_total += sum(grants)
        if self._telemetry is not None:
            # Pledges are stamped at ingestion, grants at delivery.
            self._telemetry.on_balancer(spares, grants)
        return grants

    def pending_pledge(self, core: int) -> Tokens:
        """Tokens core ``core`` has reported spare and not yet delivered."""
        return sum(entry[0][core] for entry in self._pipe)

    def pending_pledges(self) -> List[Tokens]:
        """Every core's undelivered pledge, as a new list."""
        if not self._pipe:
            return [0] * self.num_cores
        return list(map(sum, zip(*[entry[0] for entry in self._pipe])))


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
        # Cores *approaching* their allotment request tokens too: the
        # balancer round trip is 3-10 cycles, so waiting until a core is
        # already over would leave every power ramp uncovered for a full
        # round trip.
        self._near_floor = int(self.token_budget * 0.85)
        # int(token_budget - t) for an integer t below the floor: the
        # float subtraction is exact there, so it equals this minus t.
        self._whole_budget = int(self.token_budget)
        n = cfg.num_cores
        # Last cycle's delivered grants and reports (kept for the next
        # cycle's requests and for observers: tests, sanitizers).
        self._grants: List[Tokens] = [0] * n
        self._last_spares: List[Tokens] = [0] * n
        self._last_overs: List[Tokens] = [0] * n
        self._no_overs: List[Tokens] = [0] * n
        # The grants ``budget_lines`` were last derived from.
        self._line_grants: List[Tokens] = self._grants
        #: Optional :class:`repro.simcheck.TokenSanitizer` hook.
        self._sanitizer = None
        self.policy_switches = 0
        self._current_policy = (
            "toall" if self.policy == "dynamic" else self.policy
        )
        # Policy and priority depend only on the sync domain's state, so
        # they are recomputed only when its ``version`` moves.
        self._sync = None
        self._sync_version = -1
        self._cycle_policy = self._current_policy
        self._priority: List[int] = []

    @property
    def effective_budgets(self) -> List[Tokens]:
        """Per-core effective token budget of the last completed cycle.

        Allotment + delivered grants - every pledge still in flight:
        every snapshot still in the pipe, including the one delivered as
        this cycle's grants (the pledges in flight before the cycle plus
        its own spares).  A donor stays restricted through the cycle its
        tokens are spent, so sum(effective budgets) + pipe contents
        never exceeds the global token budget (paper Section III.E.2).
        """
        t_local = self.token_budget
        balancer = self.balancer
        # The pipe now holds this cycle's spares; the snapshot delivered
        # this cycle left it.
        restricted = map(add, balancer.pending_pledges(), balancer.delivered)
        return [t_local + g - r for g, r in zip(self._grants, restricted)]

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
        steady = self._steady()
        # --- DVFS level 1, identical to the naive controller ----------------
        self._level_one(powers)

        # --- token bookkeeping ------------------------------------------------
        t_local = self.token_budget
        near_floor = self._near_floor
        balancer = self.balancer
        grants = self._grants
        # Spares flow whenever they exist (Figure 7's barrier example): a
        # spinner's unused allotment continuously subsidises whoever is
        # doing useful work.  Each cycle's spare is drawn from that
        # cycle's fresh allotment, so pending pledges don't reduce the
        # *flow* a steady spinner offers — they reduce what it may
        # *spend*.  (near_floor < t_local, so every core below the
        # floor has a positive spare, int(t_local - tok).)
        whole = self._whole_budget
        spares = [whole - tok if tok < near_floor else 0 for tok in tokens]
        if max(tokens) < near_floor:
            overs = self._no_overs
        else:
            # A pledging core's usable allotment shrinks by *everything*
            # it has reported spare that the balancer has not delivered
            # yet — the pipe holds `latency` cycles of undelivered
            # pledges, not just the last cycle's.  Snapshot before this
            # cycle's reports enter the pipe.
            pledged = balancer.pending_pledges()
            overs = [0] * self.num_cores
            for i, tok in enumerate(tokens):
                if tok >= near_floor:
                    # Power-hungry (at or approaching the allotment):
                    # request the gap between consumption and what is
                    # actually usable.  In-flight pledges shrink
                    # `usable`, so a ramping ex-donor asks for its own
                    # escrowed tokens back instead of spending them a
                    # second time while the balancer grants them to
                    # someone else.
                    usable = t_local - pledged[i] + grants[i]
                    request = tok - min(int(usable), near_floor)
                    if request > 0:
                        overs[i] = int(request)

        if self._sanitizer is not None:
            self._sanitizer.check_reports(
                tokens, spares, overs, t_local, self.global_token_budget
            )

        if sync_domain is None:
            policy = self._select_policy(None)
            priority: List[int] = []
        else:
            version = sync_domain.version
            if sync_domain is not self._sync or version != self._sync_version:
                self._sync = sync_domain
                self._sync_version = version
                self._cycle_policy = self._select_policy(sync_domain)
                self._priority = sync_domain.contended_lock_holders()
            policy = self._cycle_policy
            priority = self._priority
        grants = self._grants = balancer.cycle(spares, overs, policy, priority)
        self._last_spares = spares
        self._last_overs = overs

        # Metric plane: the AoPB budget line rises with granted tokens;
        # a donor is simply under its local line, so the pledge does not
        # lower the line it is measured against.
        if grants != self._line_grants:
            local_budget = self.local_budget
            token_unit = self.energy.token_unit
            self.budget_lines[:] = [local_budget + g * token_unit for g in grants]
            self._line_grants = grants

        # --- actuators for next cycle -----------------------------------------
        throttles = self.throttles
        if sum(tokens) > self.global_token_budget:
            steady = False
            relax = self.relax
            techniques = [Technique.NONE] * self.num_cores
            fired = 0
            for i, eff_budget in enumerate(self.effective_budgets):
                # Control plane: a pledging donor runs under a restricted
                # budget until its tokens land (paper Section III.E.2).
                tok = tokens[i]
                if eff_budget <= 0 and tok > 0:
                    # The core pledged its whole allotment away (or
                    # more) and is consuming anyway: in-flight tokens
                    # must not be spendable by the donor and grantable
                    # to a receiver simultaneously.  Graded against the
                    # nominal allotment (eff_budget can't scale a
                    # deficit), so a lightly spinning donor is nudged
                    # while a deeply overdrawn one is gated.  No relax
                    # slack here: relaxation spares performance-critical
                    # work, not escrow violations.
                    techniques[i] = select_technique((tok - eff_budget) / t_local)
                    fired += 1
                elif eff_budget > 0 and tok > eff_budget * (1.0 + relax):
                    techniques[i] = select_technique(
                        (tok - eff_budget) / eff_budget
                    )
                    fired += 1
            self.throttled_cycles += fired
            throttles.apply(techniques)
        else:
            throttles.release()
        if not steady:
            self.unsteady_cycles += 1
