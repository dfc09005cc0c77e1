"""ditlab: logical information theory, classical and quantum.

Partitions of a finite set carry a logic (join, meet, implication, a
tautology notion) and a measure of information: the probability that two
independent draws are distinguished.  This package implements that
partition logic, the resulting logical entropy with its joint, conditional
and mutual forms, the term-by-term transform connecting it to Shannon
entropy, the density-matrix picture in which measurement visibly creates
entropy by zeroing off-diagonal terms, and the quantum extension to
observables, states and density-matrix pairs.

The submodules are layered: :mod:`ditlab.partitions` (combinatorial core),
:mod:`ditlab.logic` (formula language), :mod:`ditlab.classical` (entropy
functionals), :mod:`ditlab.density` (matrix representations) and
:mod:`ditlab.quantum` (observables and quantum entropies), with
:mod:`ditlab.cli` on top.
"""

from . import classical, density, errors, logic, partitions, quantum
from .classical import (
    EntropyProfile,
    JointDist,
    ProbDist,
    cross_entropy_partitions,
    dist_cross_entropy,
    dist_entropy,
    entropy_profile,
    hamming_distance,
    logical_entropy,
    shannon_entropy,
    shannon_profile,
    shannon_profile_from_transform,
    twoset_profile,
)
from .density import (
    ClassicalDensity,
    classical_decohered_sumsq,
    decohered_sumsq,
    dm_logical_entropy,
    luders,
    projectors_from_partition,
    rho_event,
    rho_partition,
    validate_density,
    validate_state,
    von_neumann,
)
from .logic import (
    TautologyVerdict,
    VerdictStatus,
    check_tautology,
    evaluate,
    parse,
    to_text,
)
from .partitions import (
    PairSet,
    Partition,
    Universe,
    bottom,
    common_dits,
    ditset,
    enumerate_partitions,
    implication,
    inditset,
    join,
    make_partition,
    meet,
    refines,
    top,
)
from .quantum import (
    Observable,
    QuantumProfile,
    commuting_profile,
    degeneracy_check,
    density_pair_profile,
    h_observable_state,
    hilbert_schmidt_distance,
    measure,
    noncommuting_profile,
    noncommuting_profile_dense,
    quantum_cross_entropy,
    quantum_fundamental_check,
    quantum_hamming,
)

__version__ = "0.1.0"
