"""One frozen configuration object for every parallel execution path.

:class:`ExecutionPolicy` is the single way to say *how* a batch runs —
how many workers, which chunking, and which scheduler (the default
in-machine ``"local"`` one, which forks its workers, or ``"remote"``
dispatch to ``freqywm worker`` processes at the given addresses).
Every parallel entry point (:func:`repro.core.batch.detect_many`,
:func:`~repro.core.batch.detect_files`,
:func:`~repro.core.batch.embed_many`, :func:`~repro.core.batch.embed_files`,
:func:`~repro.core.batch.detect_many_secrets` and the experiment executor)
takes ``policy=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.obs.trace import parse_telemetry


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a batched workload is executed.

    Attributes
    ----------
    workers:
        Worker count. Under the local scheduler ``None`` (the default)
        and ``1`` run in-process; ``> 1`` shards across that many worker
        processes. The remote scheduler always shards, with one logical
        worker per address.
    chunk_size:
        Items per dispatched chunk; ``None`` derives a size from the
        batch via :func:`repro.exec.chunking.derive_chunk_size`.
    scheduler:
        Scheduler name — ``"local"`` (default: inline, or forked
        ``freqywm worker`` children of this process) or ``"remote"``
        (dispatch over the JSON-lines wire to ``freqywm worker``
        processes).
    addresses:
        Remote worker addresses (``"unix:/path.sock"``, ``"host:port"``)
        for the ``"remote"`` scheduler; must be empty for ``"local"``.
    telemetry:
        Telemetry features to enable for this run, as the same comma
        list ``FREQYWM_TELEMETRY`` takes (``"spans,metrics"``,
        ``"all"``, ...). ``None`` defers to the environment; the
        experiment executor applies the value process-wide via
        :func:`repro.obs.trace.configure_telemetry`.
    """

    workers: Optional[int] = None
    chunk_size: Optional[int] = None
    scheduler: str = "local"
    addresses: Tuple[str, ...] = field(default_factory=tuple)
    telemetry: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if not self.scheduler or not isinstance(self.scheduler, str):
            raise ConfigurationError(
                f"scheduler must be a non-empty name, got {self.scheduler!r}"
            )
        # Accept any sequence of addresses but store a hashable tuple.
        object.__setattr__(
            self, "addresses", tuple(str(address) for address in self.addresses)
        )
        if self.scheduler == "local" and self.addresses:
            raise ConfigurationError(
                "the local scheduler takes no worker addresses; use "
                "scheduler='remote' to dispatch to them"
            )
        if self.scheduler == "remote" and not self.addresses:
            raise ConfigurationError(
                "the remote scheduler needs at least one worker address"
            )
        # Reject typos at construction, not at run time deep in a sweep.
        parse_telemetry(self.telemetry)

    def merged(self, **overrides: object) -> "ExecutionPolicy":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


__all__ = ["ExecutionPolicy"]
