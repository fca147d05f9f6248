"""Statevector circuit simulation and the gradient-variance scaling experiment."""

from .simulator import (
    Gate,
    GateKind,
    Circuit,
    StateVector,
    apply_gate,
    run_circuit,
    circuit_unitary,
    graph_state,
    expectation_parity,
)
from .circuits import AnsatzKind, build_ansatz, default_layer_count, probe_slot
from .gradients import gradient, gradient_finite_difference, mse_loss, predictions
from .experiment import (
    ExperimentConfig,
    VarianceRow,
    generate_dataset,
    run_variance_experiment,
)

__all__ = [
    "Gate",
    "GateKind",
    "Circuit",
    "StateVector",
    "apply_gate",
    "run_circuit",
    "circuit_unitary",
    "graph_state",
    "expectation_parity",
    "AnsatzKind",
    "build_ansatz",
    "default_layer_count",
    "probe_slot",
    "gradient",
    "gradient_finite_difference",
    "mse_loss",
    "predictions",
    "ExperimentConfig",
    "VarianceRow",
    "generate_dataset",
    "run_variance_experiment",
]
