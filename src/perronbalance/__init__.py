"""Certified extremal analysis of the Perron-vector balance ratio.

The balance ratio of a connected graph is the squared 1-norm over the
squared 2-norm of its Perron vector.  This package computes certified
enclosures of the ratio with exact rational arithmetic and mechanically
re-establishes which graphs and trees minimize it: the 4-clique with a
pendant path among connected graphs, and the 5-star with a pendant path
among trees.
"""

from .algebra import (
    IntPoly,
    RationalFunction,
    RationalInterval,
    ResolventData,
    SqrtRat,
    isolate_largest_root,
    sturm_count,
    substitute_t,
)
from .graphs import (
    Graph,
    RootedKernel,
    active_vertices,
    attach_fork,
    attach_path,
    bfs_layers,
    canonical_form,
    enumerate_connected_graphs,
    enumerate_graph_kernels,
    enumerate_tree_kernels,
    enumerate_trees,
    has_strictly_dominating_vertex,
    parse_graph6,
    write_graph6,
)
from .spectral import (
    BETA_STAR,
    BETA_TR,
    beta_d,
    gamma_enclosure,
    gamma_family_closed_form,
    lambda_enclosure,
    min_gamma_table,
    perron_enclosure,
)
from .bounds import KernelContext, check_pair, verify_extension
from .kernels import (
    ProofCertificate,
    StageReport,
    branch_point_check,
    graph_kernel_stage,
    prove_conjecture,
    tree_kernel_stage,
    two_step_verify,
)
from .tails import (
    TailContext,
    check_gamma_lower,
    check_gamma_upper,
    infinite_tail_eigendata,
    lambda_sandwich_audit,
)

__version__ = "0.1.0"
