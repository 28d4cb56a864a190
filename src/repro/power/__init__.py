"""Power modelling: structure energies, tokens/PTHT, DVFS, throttles, thermal."""

from .cacti import StructureEnergies, cache_access_energy, sram_access_energy
from .dvfs import DVFSBank
from .microarch import Technique, ThrottleBank, select_technique
from .model import (
    CLOCK_POWER_EU,
    LEAKAGE_NOMINAL_EU,
    TOKEN_UNIT_EU,
    CycleEvents,
    EnergyModel,
)
from .thermal import ThermalModel
from .tokens import PowerTokenHistoryTable, TokenAccountant

__all__ = [
    "StructureEnergies",
    "cache_access_energy",
    "sram_access_energy",
    "DVFSBank",
    "Technique",
    "ThrottleBank",
    "select_technique",
    "CLOCK_POWER_EU",
    "LEAKAGE_NOMINAL_EU",
    "TOKEN_UNIT_EU",
    "CycleEvents",
    "EnergyModel",
    "ThermalModel",
    "PowerTokenHistoryTable",
    "TokenAccountant",
]
