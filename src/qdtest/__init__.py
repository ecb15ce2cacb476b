"""Quantum testers for distribution closeness and k-wise uniformity, simulated
exactly on a dense state-vector engine with per-oracle query counting."""

from .amplitude import (AEDistribution, grover_iterate, phase_distribution,
                        phase_points, phase_pmf, qpe_joint_state, zero_budget)
from .distributions import (BITSTRING, RANGE, Distribution, DistributionError,
                            load, point_mass, random_distribution, uniform)
from .oracles import (GARBAGE_STYLES, PurifiedOracle, closeness_instance,
                      closeness_unitary, encoder_layout, haar_unitary,
                      kwise_encoder, kwise_instance, make_purified_oracle,
                      probability_encoder, subset_superposition)
from .statevec import (ControlledOp, CopyOp, MatrixOp, QuantumOp, QueryLedger,
                       ReflectionOp, RegisterError, RegisterLayout, SequenceOp,
                       SignOp, StateVector, apply, dense_matrix_of, hadamard,
                       inverse, new_basis_state, pauli_x, projector_norm_sq,
                       register_marginal)
from .testers import (AEPlan, TestVerdict, closeness_plan, estimator_plan,
                      kwise_plan, l1_plan, run_plan)

__version__ = "0.1.0"
