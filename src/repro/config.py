"""Simulated CMP configuration (paper Table 1).

Every architectural, power and control parameter of the simulated system
lives here.  The defaults reproduce Table 1 of the paper:

==========================  =======================================
Process technology          32 nm
Frequency                   3000 MHz
VDD                         0.9 V
Instruction window          128-entry ROB + 64-entry load/store queue
Decode / issue width        4 inst/cycle
Functional units            6 IntALU, 2 IntMult, 4 FPALU, 4 FPMult
Pipeline                    14 stages
Branch predictor            64 KB, 16-bit gshare
Coherence                   MOESI
Memory latency              300 cycles
L1 I / L1 D                 64 KB, 2-way, 1-cycle latency
L2                          1 MB/core, 4-way, unified, 12-cycle latency
Network                     2D mesh, 4-cycle links, 4-byte flits
==========================  =======================================

Configuration objects are immutable dataclasses so that a config can be
hashed and reused as a memoisation key by the experiment runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of a single cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    latency: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry parameters must be positive")
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})"
            )
        n_sets = self.num_sets
        if n_sets & (n_sets - 1):
            raise ValueError(f"number of sets must be a power of two, got {n_sets}")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    @property
    def index_bits(self) -> int:
        return self.num_sets.bit_length() - 1

    @property
    def offset_bits(self) -> int:
        return self.line_bytes.bit_length() - 1


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (paper Table 1, left column)."""

    rob_entries: int = 128
    lsq_entries: int = 64
    decode_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    int_alu: int = 6
    int_mult: int = 2
    fp_alu: int = 4
    fp_mult: int = 4
    pipeline_stages: int = 14
    # gshare: 64 KB of 2-bit counters -> 256K counters -> 18 bits of history
    # in a real table; the paper says "64KB, 16 bit Gshare".
    bp_history_bits: int = 16
    bp_table_bytes: int = 64 * 1024
    # Front-end depth between fetch and execute; a branch misprediction
    # flushes and refills this many stages.
    misprediction_penalty: int = 14

    def __post_init__(self) -> None:
        if self.rob_entries <= 0 or self.lsq_entries <= 0:
            raise ValueError("ROB/LSQ sizes must be positive")
        if min(self.decode_width, self.issue_width, self.commit_width) <= 0:
            raise ValueError("pipeline widths must be positive")


@dataclass(frozen=True)
class MemoryConfig:
    """Memory hierarchy parameters (paper Table 1, right column)."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, latency=1)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, latency=1)
    )
    l2_per_core: CacheConfig = field(
        default_factory=lambda: CacheConfig(1024 * 1024, 4, latency=12)
    )
    memory_latency: int = 300
    coherence_protocol: str = "MOESI"

    def __post_init__(self) -> None:
        if self.memory_latency <= 0:
            raise ValueError("memory latency must be positive")
        if self.coherence_protocol not in ("MOESI", "MESI", "MSI"):
            raise ValueError(f"unknown protocol {self.coherence_protocol!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """2D-mesh interconnect parameters (paper Table 1, bottom right)."""

    topology: str = "mesh2d"
    link_latency: int = 4
    flit_bytes: int = 4
    link_bandwidth_flits: int = 1
    router_latency: int = 1

    def __post_init__(self) -> None:
        if self.link_latency <= 0 or self.flit_bytes <= 0:
            raise ValueError("network parameters must be positive")


@dataclass(frozen=True)
class TechConfig:
    """Process/clock/voltage parameters (paper Table 1, top left)."""

    process_nm: int = 32
    frequency_mhz: int = 3000
    vdd: float = 0.9
    # Threshold voltage used by the leakage model (HotLeakage-style
    # exponential dependence).  Representative 32 nm high-performance value.
    vth: float = 0.32
    # Ambient / package temperature for the lumped thermal model (Kelvin).
    ambient_k: float = 318.0

    def __post_init__(self) -> None:
        if not (0 < self.vth < self.vdd):
            raise ValueError("need 0 < vth < vdd")
        if self.frequency_mhz <= 0:
            raise ValueError("frequency must be positive")

    @property
    def cycle_time_ns(self) -> float:
        return 1e3 / self.frequency_mhz


#: The five DVFS power modes evaluated in the paper (Section III.C):
#: (voltage scale, frequency scale) pairs, from fastest to slowest.
DVFS_MODES: Tuple[Tuple[float, float], ...] = (
    (1.00, 1.00),
    (0.95, 0.95),
    (0.90, 0.90),
    (0.90, 0.75),
    (0.90, 0.65),
)

#: DFS uses the same frequency points but never lowers the voltage.
DFS_MODES: Tuple[Tuple[float, float], ...] = tuple(
    (1.0, f) for _, f in DVFS_MODES
)


@dataclass(frozen=True)
class DVFSConfig:
    """DVFS controller parameters.

    The paper selects Kim's on-chip regulator implementation [8] as a
    best-case scenario with a fast 30-50 mV/ns transition.  At 0.9 V and
    3 GHz, a 45 mV step (one mode) completes in ~1-1.5 ns, i.e. a handful
    of cycles; we charge ``transition_cycles_per_step`` cycles per mode
    step during which the core keeps running at the *old* mode's speed
    but pays the *higher* of the two modes' power.
    """

    modes: Tuple[Tuple[float, float], ...] = DVFS_MODES
    window_cycles: int = 256
    transition_cycles_per_step: int = 10

    def __post_init__(self) -> None:
        if self.window_cycles <= 0:
            raise ValueError("window must be positive")
        if len(self.modes) < 2:
            raise ValueError("need at least two power modes")
        for v, f in self.modes:
            if not (0 < v <= 1 and 0 < f <= 1):
                raise ValueError(f"mode scales must be in (0,1]: {(v, f)}")


@dataclass(frozen=True)
class PTBConfig:
    """Power Token Balancing parameters (paper Section III.E.2).

    Latencies were estimated by the authors with Xilinx ISE:

    * 4-core CMP : 1 cycle send + 1 process + 1 return  = 3 cycles
    * 8-core CMP : 2 + 1 + 2                            = 5 cycles
    * 16-core CMP: 4 + 2 + 4                            = 10 cycles

    The dedicated token wires add ~1% to average application power, which
    the power model charges whenever PTB is enabled.
    """

    policy: str = "toall"  # "toall" | "toone" | "dynamic"
    #: Extra AoPB slack before local mechanisms trigger (0.0 = strict PTB,
    #: 0.2 = the paper's "relaxed +20%" variant in Section IV.C).
    relax_threshold: float = 0.0
    #: Power overhead of the balancer and its wires (fraction of core power).
    power_overhead: float = 0.01
    #: Cores per balancer cluster for >16-core scalability (Section III.E.2).
    cluster_size: int = 16
    #: Override the send+process+return latency (None = paper values).
    latency_override: int | None = None

    def __post_init__(self) -> None:
        if self.policy not in ("toall", "toone", "dynamic"):
            raise ValueError(f"unknown PTB policy {self.policy!r}")
        if self.relax_threshold < 0:
            raise ValueError("relax threshold must be >= 0")
        if self.cluster_size <= 0:
            raise ValueError("cluster size must be positive")

    def round_trip_latency(self, num_cores: int) -> int:
        """Send + process + return latency of the balancer in cycles."""
        if self.latency_override is not None:
            return self.latency_override
        cluster = min(num_cores, self.cluster_size)
        if cluster <= 4:
            return 3
        if cluster <= 8:
            return 5
        return 10


@dataclass(frozen=True)
class PowerConfig:
    """Knobs of the per-structure energy model (see ``repro.power``)."""

    #: 8K-entry Power Token History Table, as in the paper (Section III.B).
    ptht_entries: int = 8192
    #: Number of K-means base-power instruction groups (paper uses 8).
    token_classes: int = 8
    #: Fraction of dynamic power still burned by a clock-gated idle
    #: structure (imperfect gating).
    gating_residue: float = 0.10
    #: Leakage power as a fraction of per-core peak dynamic power at
    #: nominal VDD and ambient temperature (typical for 32 nm HP).
    leakage_fraction: float = 0.20
    #: EMA coefficient of the power-sensor filter.  Package/grid
    #: capacitance integrates instantaneous switching energy over a few
    #: cycles, so both the controllers and the AoPB metric see the
    #: filtered curve (Figure 1/6 show smooth per-cycle power).
    sensor_alpha: float = 0.08


@dataclass(frozen=True)
class CMPConfig:
    """Complete simulated-system configuration (paper Table 1)."""

    num_cores: int = 16
    core: CoreConfig = field(default_factory=CoreConfig)
    mem: MemoryConfig = field(default_factory=MemoryConfig)
    net: NetworkConfig = field(default_factory=NetworkConfig)
    tech: TechConfig = field(default_factory=TechConfig)
    dvfs: DVFSConfig = field(default_factory=DVFSConfig)
    ptb: PTBConfig = field(default_factory=PTBConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    #: Run the :mod:`repro.simcheck` invariant sanitizers during
    #: simulation (also enabled by the ``REPRO_SANITIZE=1`` env var).
    sanitize: bool = False
    #: Record :mod:`repro.telemetry` events/metrics during simulation
    #: (also enabled by the ``REPRO_TELEMETRY=1`` env var).  Off by
    #: default: probes are ``None`` and cost one attribute test.
    telemetry: bool = False
    #: Fast-forward in :class:`repro.sim.engine.FastEngine`, the one
    #: cycle loop: ``"reference"`` steps every core every cycle,
    #: ``"fast"`` fast-forwards frozen and periodic spans (byte-identical
    #: results, much faster on spin-heavy workloads), ``"auto"`` defers
    #: to the ``REPRO_ENGINE`` env var and defaults to ``"reference"``.
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ValueError("need at least one core")
        if self.engine not in ("auto", "reference", "fast"):
            raise ValueError(
                f"engine must be 'auto', 'reference' or 'fast', "
                f"got {self.engine!r}"
            )

    @property
    def mesh_dims(self) -> Tuple[int, int]:
        """Width x height of the squarest 2D mesh holding all cores."""
        w = int(math.isqrt(self.num_cores))
        while self.num_cores % w:
            w -= 1
        h = self.num_cores // w
        return (max(w, h), min(w, h))

    def with_cores(self, n: int) -> "CMPConfig":
        """Return a copy of this config with ``n`` cores."""
        return replace(self, num_cores=n)

    def with_ptb(self, **kwargs) -> "CMPConfig":
        """Return a copy with PTB parameters overridden."""
        return replace(self, ptb=replace(self.ptb, **kwargs))

    def with_telemetry(self, enabled: bool = True) -> "CMPConfig":
        """Return a copy with telemetry recording switched on/off."""
        return replace(self, telemetry=enabled)

    def with_engine(self, engine: str) -> "CMPConfig":
        """Return a copy with the cycle-engine selection overridden."""
        return replace(self, engine=engine)

    def describe(self) -> str:
        """Render the configuration as a Table 1-style text table."""
        c, m, n, t = self.core, self.mem, self.net, self.tech
        rows = [
            ("Process Technology", f"{t.process_nm} nanometres"),
            ("Frequency", f"{t.frequency_mhz} MHz"),
            ("VDD", f"{t.vdd} V"),
            ("Instruction Window",
             f"{c.rob_entries} entries + {c.lsq_entries} Load Store Queue"),
            ("Decode Width", f"{c.decode_width} inst/cycle"),
            ("Issue Width", f"{c.issue_width} inst/cycle"),
            ("Functional Units",
             f"{c.int_alu} Int Alu; {c.int_mult} Int Mult; "
             f"{c.fp_alu} FP Alu; {c.fp_mult} FP Mult"),
            ("Pipeline", f"{c.pipeline_stages} stages"),
            ("Branch Predictor",
             f"{c.bp_table_bytes // 1024}KB, {c.bp_history_bits} bit Gshare"),
            ("Coherence Protocol", m.coherence_protocol),
            ("Memory Latency", f"{m.memory_latency} Cycles"),
            ("L1 I-cache",
             f"{m.l1i.size_bytes // 1024}KB, {m.l1i.assoc}-way, "
             f"{m.l1i.latency} cycle lat."),
            ("L1 D-cache",
             f"{m.l1d.size_bytes // 1024}KB, {m.l1d.assoc}-way, "
             f"{m.l1d.latency} cycle lat."),
            ("L2 cache",
             f"{m.l2_per_core.size_bytes // (1024 * 1024)}MB/core, "
             f"{m.l2_per_core.assoc}-way, unified, "
             f"{m.l2_per_core.latency} cycles latency"),
            ("Topology", "2D mesh"),
            ("Link Latency", f"{n.link_latency} cycles"),
            ("Flit size", f"{n.flit_bytes} bytes"),
            ("Link Bandwidth", f"{n.link_bandwidth_flits} flit / cycle"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


DEFAULT_CONFIG = CMPConfig()
