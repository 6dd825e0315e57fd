"""Down-set enumeration kernels over bitmask posets (see ideals_py).

Callers look these names up on the package at call time, so a wrapper
bound here is seen by every caller.
"""

from __future__ import annotations

from .ideals_py import all_ideals, count_ideals_of_size, ideals_of_size

__all__ = ["all_ideals", "count_ideals_of_size", "ideals_of_size"]
