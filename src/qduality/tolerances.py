"""Every numerical threshold of the package, named once by the decision it guards.

Each name is defined here and nowhere else; the line above it says what it
decides.  A check that wants its value close to 1 compares it with
1 - TOL, spelled that way where it is made.
"""

# --- matrices and states (linalg, qobjects) ---

# a matrix is Hermitian: max |M - M†| at most this times 1 + max |M|
HERM_TOL = 1e-10
# a matrix is PSD: no eigenvalue below minus this (times max(1, largest |eigenvalue|))
PSD_TOL = 1e-10
# a state has unit trace; a distribution, joint table, stochastic column or set of
# ensemble weights (classical.checked_distribution) sums to 1, no entry below minus this
TRACE_TOL = 1e-10
# an eigenvalue lies in the support when it exceeds this over the dimension times
# the largest, so those counted as zero weigh at most this times the largest and a
# state cut to its support keeps its unit trace within TRACE_TOL
RANK_TAIL_FACTOR = TRACE_TOL / 2
# sum K†K is (at most) the identity, on the whole space or on supp rho; a POVM is complete
TP_TOL = 1e-10
# a probability counts as zero
ZERO_PROB = 1e-12
# a Schmidt coefficient counts, relative to the largest
SCHMIDT_TOL = 1e-8
# an ensemble averages to the state it is said to prepare: max-abs difference
ENSEMBLE_AVERAGE_TOL = 1e-9

# --- sampled joint statistics (cli) ---

# `sample`: the sampled frequencies lie within this total-variation distance of the table
SAMPLE_TV_TOL = 0.02

# --- fixed points (fixedpoints, cli) ---

# a singular value of identity - S counts as zero, so its vector is a fixed point
NULL_TOL = 1e-9
# an operator is fixed by a channel: max |E(X) - X|
FIX_TOL = 1e-9
# a singular value of a stack of Hermitian matrices counts, relative to the largest
SPAN_TOL = 1e-8
# sorted eigenvalues or singular values split into clusters at a relative gap above this
CLUSTER_TOL = 1e-6
# a computed block is factored, and the fixed algebra block diagonal in the blocks
BLOCK_TOL = 1e-8
# a state built inside the computed blocks is fixed by the channels: max |E(X) - X|
EMBEDDED_FIX_TOL = 1e-8

# --- broadcasting, monogamy and cloning witnesses (witnesses, cli) ---

# two states, or two block components, commute: max |AB - BA|
COMMUTE_TOL = 1e-8
# a state puts no weight on a fixed block (block_components)
BLOCK_WEIGHT_TOL = 1e-10
# two pure states are neither orthogonal nor equal: their overlap lies in (TOL, 1 - TOL)
OVERLAP_TOL = 1e-8
# _nonorthogonal_pair: a pair's score ties with the largest, within this relative distance
SCORE_TIE_TOL = 1e-9
# an ensemble member is pure
PURE_TOL = 1e-8
# a dual state is pure: the demos' block factors (`factor_purity`), universal_from_states' tau
DUAL_PURE_TOL = 1e-10
# a state lies in one fixed block: its weight there is at least 1 - TOL
CAPTURED_TOL = 1e-8

# --- universal broadcasting (witnesses) ---

# a Choi state, or a dual state, is |Phi+><Phi+|
MAX_ENTANGLED_TOL = 1e-10
# universal_from_states: tau's A-marginal is I/dA, max-abs
MIXED_MARGINAL_TOL = 1e-9
# universal_from_states: the channel is the unitary one its correction undoes
UNITARY_CHANNEL_TOL = 1e-9

# --- CLI verdicts on computed results (cli) ---

# a computed tau's A-marginal is the transposed input state (I/dA for a Choi state)
MARGINAL_TOL = 1e-10
# a round trip gives back its input: `iso`/`std-iso reverse` (--tol), `verify roundtrip`
ROUNDTRIP_TOL = 1e-9
# `verify equivalence`: the parallel and sequential joint tables agree
EQUIVALENCE_TOL = 1e-10
# `verify measure-commute`: both paths of the diagram agree
DIAGRAM_TOL = 1e-9
# a `verify` suite's worst deviation is rounding, at most this times dA dB (16 ulps
# of 1 per dimension of the joint space): its report says `worstTrialResolved: false`
WORST_TRIAL_FLOOR_PER_DIM = 16 * 2.0**-52

# the default --tol of each `verify` suite
VERIFY_TOL = {
    "roundtrip": ROUNDTRIP_TOL,
    "equivalence": EQUIVALENCE_TOL,
    "measure-commute": DIAGRAM_TOL,
}
