"""Exact degree-based topological indices over simple undirected graphs.

The package computes the full catalog of kernel/functional index combinations
(448 registry names plus 14 standalone indices) in exact rational arithmetic,
generates the standard graph families, and differentially verifies every
published closed form against direct evaluation.
"""

from .errors import TopoidxError
from .exact import ExpPoly, Rat, rat, rat_pow
from .graph import (
    Graph,
    bfs_distances,
    generate_family,
    read_graph,
    write_graph,
)
from .indices import Descriptor, all_index_names, evaluate, lookup, registry_names
from .oracles import oracle_eval, oracle_ids, run_verification

__all__ = [
    "Descriptor",
    "ExpPoly",
    "Graph",
    "Rat",
    "TopoidxError",
    "all_index_names",
    "bfs_distances",
    "evaluate",
    "generate_family",
    "lookup",
    "oracle_eval",
    "oracle_ids",
    "rat",
    "rat_pow",
    "read_graph",
    "registry_names",
    "run_verification",
    "write_graph",
]

__version__ = "0.1.0"
