"""Pluggable task execution: one API from in-process to distributed.

The :mod:`repro.exec` package is the execution substrate the batch
functions and the experiment executor stand on:

* :mod:`repro.exec.policy` — the frozen
  :class:`~repro.exec.policy.ExecutionPolicy`, the single way callers
  configure parallelism (workers, chunking, scheduler name and worker
  addresses);
* :mod:`repro.exec.scheduler` — the
  :class:`~repro.exec.scheduler.Scheduler` API,
  :class:`~repro.exec.scheduler.TaskSpec`, the task/initializer name
  registries, and the default in-machine
  :class:`~repro.exec.scheduler.LocalScheduler`, which runs inline or
  forks its workers;
* :mod:`repro.exec.remote` — the
  :class:`~repro.exec.remote.RemoteScheduler` dispatching tasks over
  the JSON-lines wire to ``freqywm worker`` processes, and to a local
  scheduler's forked children;
* :mod:`repro.exec.worker` — the worker server itself, run by
  ``freqywm worker`` and by each forked child;
* :mod:`repro.exec.blobs` — the zero-copy data plane: the
  content-addressed :class:`~repro.exec.blobs.BlobStore`, the
  :class:`~repro.exec.blobs.BlobRef` payload indirection, and the
  out-of-band pickling helpers large payloads travel through;
* :mod:`repro.exec.chunking` — the shared chunk-size heuristic.

``docs/scheduler.md`` is the narrative documentation.
"""

from repro.exec.blobs import (
    BlobRef,
    BlobStore,
    default_blob_store,
    maybe_blob,
    resolve_refs,
)
from repro.exec.chunking import (
    DETECTION_CHUNKS_PER_WORKER,
    DETECTION_MAX_CHUNK,
    chunk_spans,
    derive_chunk_size,
    split_chunks,
)
from repro.exec.policy import ExecutionPolicy
from repro.exec.scheduler import (
    LocalScheduler,
    Scheduler,
    SchedulerStats,
    TaskSpec,
    create_scheduler,
    default_worker_count,
    load_builtin_tasks,
    register_initializer,
    register_task_function,
    run_task,
)

__all__ = [
    "DETECTION_CHUNKS_PER_WORKER",
    "DETECTION_MAX_CHUNK",
    "BlobRef",
    "BlobStore",
    "ExecutionPolicy",
    "LocalScheduler",
    "Scheduler",
    "SchedulerStats",
    "TaskSpec",
    "chunk_spans",
    "create_scheduler",
    "default_blob_store",
    "default_worker_count",
    "derive_chunk_size",
    "load_builtin_tasks",
    "maybe_blob",
    "register_initializer",
    "register_task_function",
    "resolve_refs",
    "run_task",
    "split_chunks",
]
