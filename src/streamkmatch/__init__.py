"""Streaming maximum-weight k-matching toolkit.

Small-space streaming algorithms for finding a maximum-weight matching
of exactly k edges: an insert-only matcher with constant work per
arrival, a fully dynamic matcher built on a grid of edge samplers, the
hashing and sampling substrate behind them, an exact solver, and
adversarial stream generators.
"""

from .core import (
    DELETE,
    Edge,
    INSERT,
    InfeasibleSize,
    InvalidParameter,
    MalformedStream,
    Matching,
    MODE_DYNAMIC,
    MODE_INSERT_ONLY,
    Stream,
    StreamElement,
    delete,
    edge,
    edge_at_index,
    edge_index,
    insert,
    materialize,
    matching_of,
    read_stream,
    stream_to_text,
)
from .dynamic_matcher import (
    FAIL,
    DynamicMatcher,
    L0Sampler,
    Sample,
    round_weight,
)
from .generators import (
    bipartite_matching_size,
    gen_index_hard,
    gen_partial_max_hard,
    gen_random_stream,
)
from .hashing import (
    FIELD_PRIME,
    HashScheme,
    KWiseHash,
    UniversalHash,
    build_hash_scheme,
    distinguishes,
    random_kwise,
    random_universal,
    scheme_dimensions,
    scheme_eval,
)
from .insert_matcher import InsertMatcher, step_budget
from .reducer import (
    C_RED,
    ReducerState,
    new_vertex_partition,
    reduce,
)
from .solver import (
    BRUTE_FORCE_EDGE_LIMIT,
    NO_K_MATCHING,
    brute_force_oracle,
    max_weight_k_matching,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
