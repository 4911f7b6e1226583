"""Cyclically symmetric binary deterministic interference channels.

A toolkit for the K-pair neighbor-interference (Wyner-type) channel over the
binary field: exact rational region catalog with per-region symmetric rates,
bit-pipe assignment schemes with twin blocks, a successive peeling decoder,
and independent verification oracles (rank criterion, exhaustive search).
"""

from .channel import (
    BadShapeError,
    ChannelParams,
    deinterleave,
    interleave,
    interleave_expand,
    make_channel,
    transmit,
)
from .decode import (
    DecodeTrace,
    InconsistentSignalError,
    PlacedBlock,
    ReceiverView,
    peel_bits,
    peel_structure,
    receiver_view,
)
from .exactmath import (
    Affine2,
    HalfPlane,
    NotACountError,
    Rat,
    affine_eval,
    format_rat,
    parse_rat,
    polygon_contains,
)
from .gf2 import DimensionMismatchError, NotBinaryError
from .oracle import SearchBudgetError, exhaustive_search, rank_decodable
from .regions import (
    ClassifyResult,
    OutOfSquareError,
    RegionSpec,
    TableInvalidError,
    boundary_consistency,
    classify,
    converse_bound,
    dsym_at,
    load_region_table,
)
from .scheme import (
    AssignmentMatrix,
    BlockRole,
    Layout,
    NonIntegralBlocksError,
    NoValidLayoutError,
    OutsideRegionError,
    PipeCountError,
    build_assignment,
    check_validity,
    infer_roles,
    instantiate,
    layout_for,
    load_frozen_layouts,
    minimal_n,
)

__version__ = "0.1.0"
