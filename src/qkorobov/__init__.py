"""Sparse-grid interpolation compiled to QSP+LCU circuits, simulated exactly."""

from .simulator import (
    Circuit,
    Gate,
    ResourceReport,
    Statevector,
    circuit_unitary,
    expectation_z_first,
    resource_report,
    run_circuit,
)
from .qsp import (
    bind_signal,
    chebyshev_blocks,
    chebyshev_circuit,
    chebyshev_first_kind,
    chebyshev_second_kind,
    signal_encoding,
)
from .sparsegrid import (
    GridIndex,
    SurplusMap,
    chebyshev_expansion,
    enumerate_levels,
    grid_count,
    hat,
    index_set,
    integral_coefficient,
    surplus_coefficients,
)
from .lcu import (
    LcuPlan,
    assemble_lcu,
    direct_amplitude,
    evaluate_via_circuit,
    hadamard_test,
    hadamard_test_circuit,
    hadamard_test_report,
    plan_from_terms,
    prepare_state_unitary,
    run_hadamard_test,
)
from .analysis import (
    ConvergenceRow,
    ConvergenceStudy,
    KorobovTestFunction,
    ResourceEstimate,
    coefficient_bound_audit,
    convergence_study,
    corpus,
    corpus_function,
    depth_envelope_study,
    dual_oracle_gap,
    lambert_w,
    lp_error,
    resource_estimate,
)

__version__ = "0.1.0"
