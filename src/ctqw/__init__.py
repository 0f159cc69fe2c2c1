"""Continuous-time quantum walk analysis on weighted graphs.

Builds weighted graphs, computes grouped spectral decompositions, and
detects / certifies quantum transport events: fractional revival, perfect
state transfer, periodicity and uniform mixing.
"""

from ctqw.graphs import (
    EquitablePartition,
    WeightedGraph,
    cartesian_product,
    coarsest_equitable_refinement,
    cocktail_party,
    complete,
    cycle,
    double_cone,
    empty,
    hypercube,
    path,
    quotient,
    star,
    union_overlay,
    x_theta,
)
from ctqw.numtheory import (
    EigenvalueClassification,
    NotClassifiable,
    RationalApprox,
    classify,
    lattice_step,
    ratio_condition,
    rationalize,
)
from ctqw.spectral import PairProfile, SpectralDecomposition, decompose, pair_profile
from ctqw.walks import (
    DetectionConfig,
    FrCertificate,
    certify_pair,
    certify_pairs,
    check_periodic,
    check_pst,
    check_symmetry,
    check_uniform_mixing,
    detect_at,
    matrix_exp_oracle,
    scan_fr,
    transition_matrix,
)

__version__ = "0.1.0"
