"""sramdpe: behavioral simulator for an 8T-SRAM analog dot-product engine.

Submodules
----------
device      behavioral NMOS model and the two-transistor read-stack solver
crossbar    array data model, drive schemes, parasitic-free evaluation
network     nonlinear DC operating-point solver with line parasitics
variation   threshold-voltage Monte Carlo and the std-vs-current noise fit
nn          quantized network inference through the simulated crossbar
energy      analog-engine vs digital-sequential energy comparison
dataset     bundled desk-scale digit set
matio       portable matrix / dataset file formats
config      experiment config schema
cli         experiment runner (``sramdpe <command>``)

The tests' reference implementations (the scalar read-stack API, the dense
Newton oracle) are in ``tests/oracles.py``, not in the package.
"""

__version__ = "0.1.0"

from .crossbar import (
    ColumnCurrents,
    DriveMode,
    Excitation,
    InputEncoding,
    WeightMatrix,
    ideal_column_currents,
    pack_weights,
)
from .device import DeviceParams
from .network import (
    BothEnds,
    IdealOpamp,
    OperatingPointSolution,
    ParasiticSpec,
    SenseResistor,
    SingleEnd,
    TappedEvery,
    build_network,
    line_resistance_errors,
    row_scaling_curve,
    solve_operating_point,
    solve_operating_points,
)
from .nn import (
    CrossbarContext,
    EvalMode,
    QuantizedNetwork,
    infer,
    quantize_weights,
    train_reference,
)
from .variation import (
    StdVsCurrentFit,
    VariationSpec,
    fit_std_vs_current,
    monte_carlo_stats,
)

__all__ = [
    "BothEnds", "ColumnCurrents", "CrossbarContext",
    "DeviceParams", "DriveMode", "EvalMode", "Excitation", "IdealOpamp",
    "InputEncoding", "OperatingPointSolution", "ParasiticSpec",
    "QuantizedNetwork", "SenseResistor", "SingleEnd", "StdVsCurrentFit",
    "TappedEvery", "VariationSpec", "WeightMatrix", "build_network",
    "fit_std_vs_current", "ideal_column_currents", "infer",
    "line_resistance_errors", "monte_carlo_stats", "pack_weights",
    "quantize_weights", "row_scaling_curve", "solve_operating_point",
    "solve_operating_points", "train_reference",
]
