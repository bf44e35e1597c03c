"""Finite-dimensional toolkit for state-dependent channel/state duality.

Density operators paired with channels defined on their support correspond
one-to-one with bipartite states whose first marginal is the transposed
input; this package computes the correspondence in both directions, checks
its operational consequences, and decomposes channel fixed points into the
tensor-product blocks behind no-broadcasting and entanglement monogamy.
"""

from .classical import (
    Distribution,
    JointDistribution,
    StochasticMatrix,
    classical_iso_roundtrip,
    compose,
    conditional,
    evolve,
    marginals,
)
from .correlations import (
    JointTable,
    SampleReport,
    joint_parallel,
    joint_sequential,
    sample,
    verify_equivalence,
)
from .duality import (
    BipartiteState,
    IsoPair,
    eigenbasis,
    iso_forward,
    iso_reverse,
    verify_measure_commute,
    verify_roundtrip,
    verify_trace_commute,
)
from .errors import (
    NotPSDError,
    PreconditionError,
    QdualityError,
    ShapeError,
    SupportError,
    UnsupportedStructureError,
    ValidationError,
    ZeroProbabilityError,
)
from .fixedpoints import (
    FixedBlock,
    FixedSpace,
    decompose_fixed_algebra,
    fixed_point_space,
    invariant_state,
)
from .qobjects import (
    DensityOperator,
    Ensemble,
    KrausChannel,
    Povm,
    born,
    computational_povm,
    identity_channel,
    m_measure,
    m_prepare,
    max_entangled,
    povm_from_ensemble,
    pure_state,
    unitary_channel,
)
from .witnesses import (
    BroadcastWitness,
    broadcast_obstruction,
    cloning_demo,
    monogamy_demo,
    universal_from_channels,
    universal_from_states,
)

__version__ = "0.1.0"
