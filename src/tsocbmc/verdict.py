"""Shared result types for the reachability engines."""
from __future__ import annotations

import os
import sys
from typing import Any, Optional

from ._record import factory, record

REACHABLE = "reachable"
UNREACHABLE = "unreachable"
UNREACHABLE_WITHIN_BOUNDS = "unreachable_within_bounds"
BOUND_EXHAUSTED = "bound_exhausted"


@record(frozen=False)
class Stats:
    states_explored: int = 0
    # distinct control states whose successors were computed; in the TSO
    # oracle, the (thread, local part, memory) triples whose moves were
    # filled into the move table
    control_states: int = 0
    # the largest finished BFS level, the root level never counted, in
    # check_reach, the TSO oracle and dlcs_reach_bounded alike
    peak_frontier: int = 0
    rank_tuples: int = 0      # distinct rank tuples the search interned
    # check_reach's move and switch table fills, one per distinct key (see
    # AbMachine.table_keys); 0 in the oracle searches
    move_keys: int = 0
    # memo misses, one filled memo entry each: an UNKNOWN entry a rank
    # kernel computed, or one rel_apply call for a list the kernels do not
    # take (a list with a fresh value, or any list past 256 columns; see
    # the relabs module docstring), kept in check_reach's own dict
    rel_apply_calls: int = 0
    wall_ms: float = 0.0
    # the cap that ended the search: "max_states" or "max_mb", or "depth"
    # when a bounded search (the TSO oracle, dlcs_reach_bounded) runs out of
    # depth with states left to explore
    stop_reason: str = ""


@record(frozen=False)
class Verdict:
    reachable: bool
    status: str
    witness: Optional[Any] = None
    stats: Stats = factory(Stats)


def _rss_mb() -> float:
    """Current resident set size, which the searches' max_mb caps.  Where
    /proc/self/statm is missing this falls back to the lifetime peak, which
    only ever grows, and which macOS gives in bytes, not KiB."""
    try:
        with open("/proc/self/statm", "rb") as f:
            pages = int(f.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        import resource
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak / (2**20 if sys.platform == "darwin" else 1024)
