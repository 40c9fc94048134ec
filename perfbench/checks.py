"""Correctness checks, counted per cause and never fatal.

An operation *fails* when it gets no correct answer:

* it raised (``DegradedError`` or anything else);
* a lookup of an acknowledged file returned nothing, or bytes that
  differ from the content the seed regenerates or from the hash the
  file certificate carries;
* an insert was acknowledged with fewer than k distinct holders, or
  (simulator) with store receipts that do not verify.

A refusal for lack of space is a correct PAST answer: it is counted in
``insert_reject_pct``, not as a failure.  ``correct`` turns false only
when data other than the file's content comes back; every other cause
is an availability or durability failure and is counted in ``failed``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, List, Optional

# Causes, in report order.
DEGRADED = "degraded"            # DegradedError: every retry timed out
ROOT_STALL = "root-stall"        # degraded insert whose root refused locally
SHORT_ACK = "short-ack"          # success acknowledged with < k holders
LOOKUP_MISSING = "lookup-missing"
LOOKUP_CORRUPT = "lookup-corrupt"
BAD_RECEIPTS = "bad-receipts"
INSERT_ERROR = "insert-error"    # an insert result that is neither ok nor refusal
CAUSES = (DEGRADED, ROOT_STALL, SHORT_ACK, LOOKUP_MISSING, LOOKUP_CORRUPT,
          BAD_RECEIPTS, INSERT_ERROR)


def error(exc: BaseException) -> str:
    """The cause for any other exception: named by its type."""
    return f"error:{type(exc).__name__}"


def check_holders(holders: Iterable[int], k: int) -> Optional[str]:
    """An acknowledged insert must name k distinct holders."""
    return SHORT_ACK if len(set(holders)) < k else None


def check_lookup(data: Optional[bytes], certified_hash: Optional[int],
                 acked_hash: int, expected: bytes) -> Optional[str]:
    """A lookup of an acknowledged file must return exactly its bytes.

    *data* is what came back (None: not found), *certified_hash* the
    content hash in the returned certificate, *acked_hash* the one in the
    certificate the insert was acknowledged under, *expected* the content
    regenerated from the seed.  Equal bytes under the acknowledged hash
    mean the returned bytes hash to the certificate's value, without the
    benchmark hashing anything itself.
    """
    if data is None:
        return LOOKUP_MISSING
    if data != expected or certified_hash != acked_hash:
        return LOOKUP_CORRUPT
    return None


class Tally:
    """Attempted/failed counts with the failure breakdown by cause."""

    def __init__(self) -> None:
        self.attempted = 0
        self.causes: Counter = Counter()
        self.inserts = 0
        self.refused = 0

    def op(self, cause: Optional[str] = None) -> None:
        self.attempted += 1
        if cause is not None:
            self.causes[cause] += 1

    def recause(self, old: str, new: str) -> None:
        """Reclassify one counted failure once its cause is known."""
        self.causes[old] -= 1
        self.causes[new] += 1

    @property
    def failed(self) -> int:
        return sum(self.causes.values())

    @property
    def correct(self) -> bool:
        return self.causes[LOOKUP_CORRUPT] == 0

    def failed_pct(self) -> float:
        return 100.0 * self.failed / self.attempted if self.attempted else 0.0

    def reject_pct(self) -> float:
        return 100.0 * self.refused / self.inserts if self.inserts else 0.0

    def breakdown(self) -> dict:
        """Failures by cause: the known causes in order, then errors."""
        order = list(CAUSES) + sorted(set(self.causes) - set(CAUSES))
        return {cause: self.causes[cause] for cause in order if self.causes[cause]}


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of *samples* (need not be sorted)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
