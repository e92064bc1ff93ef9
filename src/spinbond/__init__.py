"""Voter dynamics with signed, stochastically refreshing edges.

Forward simulator, signed coalescing-walker dual, exact finite-state
solvers, and Monte Carlo estimators, plus a CLI for scripted experiments.
"""

from .cylinders import CylinderEvent, parse_cylinder_label, single_constraint_events
from .dual import (
    CoalescenceReport,
    DualEvents,
    DualState,
    DualTrajectory,
    coupled_run,
    duality_weight,
    simulate_dual,
)
from .errors import CensoringError, ConfigError, SpinBondError, StateSpaceCapError
from .forward import (
    EventTable,
    ForwardTrajectory,
    ModelParams,
    SpinBondState,
    edge_flip_rate,
    sample_product_state,
    simulate_forward,
)
from .graphs import (
    AdoptionKernel,
    Graph,
    build_graph,
    builtin_graph,
    kernel_from_rates,
    read_graph_file,
    read_kernel_file,
    uniform_kernel,
    validate_kernel,
    write_graph_file,
    write_kernel_file,
)
from .rng import RngStream

__all__ = [
    "AdoptionKernel",
    "CensoringError",
    "CoalescenceReport",
    "ConfigError",
    "CylinderEvent",
    "DualEvents",
    "DualState",
    "DualTrajectory",
    "EventTable",
    "ForwardTrajectory",
    "Graph",
    "ModelParams",
    "RngStream",
    "SpinBondError",
    "SpinBondState",
    "StateSpaceCapError",
    "build_graph",
    "builtin_graph",
    "coupled_run",
    "duality_weight",
    "edge_flip_rate",
    "kernel_from_rates",
    "parse_cylinder_label",
    "single_constraint_events",
    "read_graph_file",
    "read_kernel_file",
    "sample_product_state",
    "simulate_dual",
    "simulate_forward",
    "uniform_kernel",
    "validate_kernel",
    "write_graph_file",
    "write_kernel_file",
]

__version__ = "0.1.0"
