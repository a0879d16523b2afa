"""Exception hierarchy for the FreqyWM reproduction package.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
applications embedding the library can catch a single base class. More
specific subclasses communicate which stage of the watermarking pipeline
failed and carry enough context to act on the failure programmatically.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """Raised when a user supplied configuration value is invalid.

    Examples include a non-positive modulus ``z``, a distortion budget
    outside ``[0, 100]`` or detection thresholds that cannot be satisfied.
    """


class HistogramError(ReproError):
    """Raised when a token histogram cannot be built or is malformed."""


class EligibilityError(ReproError):
    """Raised when eligible-pair generation receives inconsistent inputs."""


class MatchingError(ReproError):
    """Raised when the pair-selection stage (MWM / knapsack / heuristics)
    cannot produce a valid matching."""


class GenerationError(ReproError):
    """Raised when watermark generation cannot complete.

    The most common cause is a dataset with (near-)uniform token
    frequencies where no eligible pair exists within the ranking
    constraint, which the paper explicitly calls out as unsupported.
    """


class DetectionError(ReproError):
    """Raised when watermark detection receives invalid secrets or data."""


class AttackError(ReproError):
    """Raised when an attack simulation is configured inconsistently."""


class DatasetError(ReproError):
    """Raised by the dataset substrates (loaders and generators)."""


class DisputeError(ReproError):
    """Raised by the ownership-dispute (judge / registry) protocol."""


class BaselineError(ReproError):
    """Raised by the WM-OBT / WM-RVS baseline implementations."""


class ServiceError(ReproError):
    """Raised by the resident detection service layer.

    Covers malformed wire requests, references to unregistered secrets,
    and submissions against a service that is not running.
    """


class SchedulerError(ReproError):
    """Raised by the pluggable task scheduler (:mod:`repro.exec`).

    Covers unknown scheduler/task-function names, unreachable remote
    workers, and execution plans that cannot be dispatched.
    """


class BlobError(SchedulerError):
    """Raised by the content-addressed data plane (:mod:`repro.exec.blobs`).

    Covers malformed blob frames, digest mismatches and shared-memory
    transport failures. Blob errors are infrastructure errors, not task
    errors: schedulers may retry the affected task over the inline
    payload path before surfacing them.
    """


class BlobNotFoundError(BlobError):
    """A blob digest was requested that this store no longer holds.

    Raised when a ``get`` misses the in-process LRU (the digest was
    evicted, or never put), and — over the wire — when a worker's
    ``blob-request`` names a digest the client side evicted.
    Carries the ``digest`` so callers can re-ship or fall back inline.
    """

    def __init__(self, message: str, *, digest: str = ""):
        super().__init__(message)
        self.digest = digest


class WorkerCrashError(SchedulerError):
    """A scheduler worker died while running a task, retries exhausted.

    Carries the ``fingerprint`` of the lost task and the number of
    ``attempts`` made, so callers can resubmit the exact task elsewhere.
    Schedulers retry a crashed task a bounded number of times before
    raising this — one crash is an incident, repeated crashes on the
    same task are evidence the task itself kills its host.
    """

    def __init__(self, message: str, *, fingerprint: str = "", attempts: int = 0):
        super().__init__(message)
        self.fingerprint = fingerprint
        self.attempts = attempts
