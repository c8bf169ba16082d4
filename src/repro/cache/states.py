"""MSI line states shared by all cache levels.

The paper's system uses an invalidation-based three-state (MSI) protocol in
the processor caches and a full-map directory at the home memories [7].
Switch caches only ever hold clean shared data, so they reuse ``SHARED``.

Integer codes
-------------
Every ``LineState`` member carries a small-int ``code`` (``I=0, S=1, E=2,
M=3``) so the struct-of-arrays cache kernel (:mod:`repro.cache.array`) can
store states as plain ints.  The encoding is ordered so the two hot
predicates become single comparisons::

    readable  <=>  code > 0            (anything but INVALID)
    writable  <=>  code >= CODE_EXCLUSIVE   (EXCLUSIVE or MODIFIED)
    owned     <=>  code >= CODE_EXCLUSIVE   (same set as writable)

``LINE_STATE_BY_CODE`` is the hoisted decode table back to the enum for
the object-facing views and victim tuples.

``REPRO_STATE`` selects the state-kernel implementation machine-wide:
``coded`` (default; bitmask directories + struct-of-arrays cache sets) or
``obj`` (the original per-object model, kept byte-for-byte as a
differential-debugging escape hatch).
"""

from __future__ import annotations

import enum
import os
from typing import Tuple

from ..errors import ConfigError

#: environment variable selecting the state-kernel model
STATE_ENV = "REPRO_STATE"

#: valid values for REPRO_STATE
STATE_MODELS = ("coded", "obj")


def state_model() -> str:
    """The configured state-kernel model (``coded`` unless overridden)."""
    model = os.environ.get(STATE_ENV, "coded")
    if model not in STATE_MODELS:
        raise ConfigError(
            f"unknown {STATE_ENV}={model!r}; expected one of {STATE_MODELS}"
        )
    return model


class LineState(enum.Enum):
    """Coherence state of one cache line.

    ``EXCLUSIVE`` exists only when the machine runs the MESI protocol
    extension (``SystemConfig.protocol = "mesi"``): a clean sole copy
    that may be written without a coherence transaction (silent E -> M).
    """

    code: int  # small-int encoding (assigned below; I=0, S=1, E=2, M=3)

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"

    def readable(self) -> bool:
        """Whether a read can be satisfied from this state."""
        return self is not LineState.INVALID

    def writable(self) -> bool:
        """Whether a write can be performed without a coherence action.

        EXCLUSIVE counts: the write silently promotes the line to M.
        """
        return self in (LineState.MODIFIED, LineState.EXCLUSIVE)

    def owned(self) -> bool:
        """Whether this copy is the block's sole (owner) copy."""
        return self in (LineState.MODIFIED, LineState.EXCLUSIVE)


for _code, _member in enumerate(LineState):
    _member.code = _code

#: decode table: LINE_STATE_BY_CODE[code] is the enum member
LINE_STATE_BY_CODE: Tuple[LineState, ...] = tuple(LineState)

#: hoisted code constants for the comparison predicates
CODE_INVALID = LineState.INVALID.code
CODE_SHARED = LineState.SHARED.code
CODE_EXCLUSIVE = LineState.EXCLUSIVE.code
CODE_MODIFIED = LineState.MODIFIED.code


class DirState(enum.Enum):
    """Directory-entry state at a home node (full-map, three states [7])."""

    UNOWNED = "U"
    SHARED = "S"
    MODIFIED = "M"
