"""Exception hierarchy for the PAST storage layer.

Every failure mode a client can observe is a distinct exception type, so
applications (and tests) can react precisely.  All inherit from
:class:`PastError`.
"""

from __future__ import annotations


class PastError(Exception):
    """Base class for all PAST storage-layer errors."""


class QuotaExceededError(PastError):
    """The user's smartcard quota cannot cover size x replication factor."""


class DuplicateFileError(PastError):
    """A file with this fileId already exists; files are immutable and a
    fileId cannot be inserted twice (section 1)."""


class InsertRejectedError(PastError):
    """The system could not create k replicas even after replica and file
    diversion; the insert is rejected (section 2.3)."""


class LookupFailedError(PastError):
    """No live node holding the file could be reached."""


class DegradedError(PastError):
    """An operation exhausted its retry budget and degraded instead of
    hanging: the caller gets a typed failure carrying what was attempted,
    so it can surface the outage or fall back (fault-injection layer).

    ``history`` is the full attempt record (a tuple of
    :class:`~repro.faults.policy.AttemptRecord`): per attempt, the span
    id inside the operation's trace, the backoff slept before it, and
    whether/under which seed it rerouted.  ``trace_id`` names the trace
    those spans belong to, so a degraded live operation can be
    reconstructed hop by hop from the trace export."""

    def __init__(
        self,
        operation: str,
        attempts: int,
        detail: str = "",
        history: tuple = (),
        trace_id: str = "",
    ) -> None:
        self.operation = operation
        self.attempts = attempts
        self.detail = detail
        self.history = tuple(history)
        self.trace_id = trace_id
        message = f"{operation} degraded after {attempts} attempt(s)"
        if detail:
            message += f": {detail}"
        if trace_id:
            message += f" [trace {trace_id}]"
        if self.history:
            message += " (" + "; ".join(
                record.describe() for record in self.history
            ) + ")"
        super().__init__(message)


class ReclaimDeniedError(PastError):
    """The reclaim certificate's signer does not match the file's owner;
    only the owner may reclaim a file's storage (section 2.1)."""


class CertificateError(PastError):
    """A certificate or receipt failed verification (bad signature,
    mismatched field, or uncertified smartcard)."""
