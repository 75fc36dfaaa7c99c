"""Exact-arithmetic lab for a nested Cantor-set family, its set-valued
bonding map, and finite approximations of the generalized inverse limit."""

from .exact import ClosedInterval, IntervalSet, rat
from .cantor import (
    CantorFamily,
    GapAttachedCantor,
    IntermediateCantor,
    Membership,
    MiddleThirds,
    build_family,
)
from .bonding import FBracket, SetValuedMap, eval_F, eval_f, make_map
from .dynamics import (
    Cycle,
    StepCertificate,
    certify_step,
    iterate_f,
    make_cycle,
    verify_orbit,
)
from .invlimit import (
    ArcSystem,
    BoxCover,
    Thread,
    ZERO_THREAD,
    make_thread,
    mahavier_cover,
    tail_index,
    verify_arc_chain,
)
from .errors import BoxCountError, BracketSearchError, CacheError, GillabError

__version__ = "0.1.0"

__all__ = [
    "ArcSystem", "BoxCountError", "BoxCover", "BracketSearchError",
    "CacheError", "CantorFamily", "ClosedInterval", "Cycle", "FBracket",
    "GapAttachedCantor", "GillabError", "IntermediateCantor", "IntervalSet",
    "Membership", "MiddleThirds", "SetValuedMap", "StepCertificate",
    "Thread", "ZERO_THREAD", "build_family", "certify_step", "eval_F", "eval_f",
    "iterate_f", "mahavier_cover", "make_cycle", "make_map",
    "make_thread", "rat", "tail_index", "verify_arc_chain", "verify_orbit",
]
