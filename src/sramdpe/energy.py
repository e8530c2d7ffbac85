"""Parametric energy/latency comparison: analog dot-product vs digital MAC.

All numbers are per-event parameters from a JSON file; the shipped defaults
are order-of-magnitude estimates for a 45nm-class design (the converter
energy follows 10-bit SAR ADC surveys of that era), chosen so the qualitative
ordering -- sequential digital above the analog engine, peripheral conversion
dominating the analog budget -- holds. They are estimates, not measurements.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class EnergyParams:
    e_adc: float = 15e-12          # per conversion
    e_dac: float = 1e-12           # per input drive
    e_array_access: float = 2e-12  # per row-activation round
    e_mac_digital: float = 4e-12   # per multiply-accumulate
    e_mem_read: float = 5e-12      # per word read
    t_adc: float = 10e-9
    t_mac: float = 2e-9
    n_adcs: int = 16

    def __post_init__(self):
        vals = (self.e_adc, self.e_dac, self.e_array_access,
                self.e_mac_digital, self.e_mem_read, self.t_adc, self.t_mac)
        if any(v < 0 for v in vals) or self.n_adcs < 1:
            raise InvalidInputError("energy parameters must be nonnegative")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EnergyParams":
        data = json.loads(text)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise InvalidInputError(f"unknown energy parameters: {sorted(unknown)}")
        return cls(**data)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


@dataclass(frozen=True)
class WorkloadSpec:
    rows: int = 16
    words: int = 16

    def __post_init__(self):
        if self.rows < 0 or self.words < 0:
            raise InvalidInputError("workload dimensions must be >= 0")


@dataclass
class EnergyReport:
    total_energy: float
    time: float
    breakdown: dict[str, float]

    def share(self, *keys) -> float:
        if self.total_energy == 0:
            return 0.0
        return sum(self.breakdown[k] for k in keys) / self.total_energy


def dpe_energy(w: WorkloadSpec, p: EnergyParams, column_currents,
               v_dd: float = 0.65) -> EnergyReport:
    """Analog engine: DACs drive rows, ADCs convert words in parallel rounds.

    The ``n_adcs`` converters take ceil(words / n_adcs) rounds of ``t_adc``;
    the analog static term integrates the solved column currents over those
    rounds at the array supply.
    """
    currents = np.asarray(column_currents, dtype=float)
    window = -(-w.words // p.n_adcs) * p.t_adc
    analog = float(np.sum(np.abs(currents))) * v_dd * window
    breakdown = {
        "dac": w.rows * p.e_dac,
        "adc": w.words * p.e_adc,
        "analog_static": analog,
        "array_access": p.e_array_access,
    }
    return EnergyReport(
        total_energy=sum(breakdown.values()),
        time=window,
        breakdown=breakdown,
    )


def digital_energy(w: WorkloadSpec, p: EnergyParams) -> EnergyReport:
    """Sequential baseline: row-by-row reads followed by MACs."""
    ops = w.rows * w.words
    breakdown = {
        "memory_read": ops * p.e_mem_read,
        "mac": ops * p.e_mac_digital,
    }
    return EnergyReport(
        total_energy=sum(breakdown.values()),
        time=ops * p.t_mac,
        breakdown=breakdown,
    )
