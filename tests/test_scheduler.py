"""The pluggable scheduler: ordering, state reuse, and the fault paths.

Three layers, matching ``docs/scheduler.md``:

* **LocalScheduler** — in-process fast path, submission-order results
  under induced out-of-order completion, worker-local state reuse,
  spawn-failure fallback, the crash contract (a worker killed mid-task
  is replaced, its task retried exactly once, then surfaces as
  :class:`~repro.exceptions.WorkerCrashError` with the task's
  fingerprint; no other task is charged), and the lifecycle of the
  forked children (none is left after ``close()`` or EOF).
* **Addresses** — worker address parsing.
* **RemoteScheduler** — real ``freqywm worker`` subprocesses over Unix
  sockets: ordered gather across two workers, typed remote errors, a
  heartbeat timeout marking an unresponsive worker dead *without* losing
  its in-flight task, and the all-workers-dead terminal error.
* **One run thread** — neither a remote nor a sharded local run starts a
  thread; a task error is raised as soon as it is read, and a worker
  left running a sibling task serves the next run.

Task functions live in ``tests/scheduler_tasks.py`` so spawned workers
can ``--import`` the same registrations.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import scheduler_tasks
from repro.core.batch import detect_many
from repro.core.generator import generate_watermark
from repro.datasets.loaders import save_token_file
from repro.datasets.synthetic import generate_power_law_tokens
from repro.exceptions import DetectionError, SchedulerError, WorkerCrashError
from repro.exec import remote
from repro.exec.blobs import dumps_oob
from repro.exec.policy import ExecutionPolicy
from repro.exec.remote import RemoteScheduler, parse_address
from repro.exec.scheduler import (
    LocalScheduler,
    TaskSpec,
    create_scheduler,
    register_task_function,
    run_task,
)
from repro.obs.report import load_spans
from repro.service.wire import HEARTBEAT_FUNCTION, TaskRequest, encode_line


def _echo_specs(values):
    return [
        TaskSpec(fingerprint=f"echo-{index}", function="schedtest.echo", payload=value)
        for index, value in enumerate(values)
    ]


# --------------------------------------------------------------------------- #
# LocalScheduler
# --------------------------------------------------------------------------- #


class TestLocalInline:
    def test_workers_one_runs_inline_and_in_order(self):
        streamed = []
        with LocalScheduler(workers=1) as scheduler:
            results = scheduler.run(
                _echo_specs([10, 20, 30]),
                on_result=lambda index, value: streamed.append((index, value)),
            )
        assert results == [10, 20, 30]
        assert streamed == [(0, 10), (1, 20), (2, 30)]
        assert scheduler._children is None  # nothing was ever forked

    def test_single_task_never_spawns_a_pool(self):
        with LocalScheduler(workers=4) as scheduler:
            assert scheduler.run(_echo_specs(["only"])) == ["only"]
            assert scheduler._children is None

    def test_empty_batch(self):
        with LocalScheduler(workers=2) as scheduler:
            assert scheduler.run([]) == []

    def test_inline_state_is_reused_not_rebuilt(self):
        spec = TaskSpec(
            fingerprint="state-1",
            function="schedtest.with_state",
            payload="p",
            initializer="schedtest.state",
            init_key="key-a",
            init_args=("a",),
        )
        with LocalScheduler(workers=1, inline_state={"key-a": "prebuilt"}) as s:
            assert s.run([spec]) == [("prebuilt", "p")]
        # Without prebuilt state the initializer runs once and is cached.
        with LocalScheduler(workers=1) as s:
            first, second = s.run([spec, spec])
            assert first == second
            assert first[0].startswith("state:a:")

    def test_workers_validation(self):
        with pytest.raises(SchedulerError, match="workers"):
            LocalScheduler(workers=0)
        with pytest.raises(SchedulerError, match="max_retries"):
            LocalScheduler(workers=1, max_retries=-1)


class TestLocalPool:
    def test_results_in_submission_order_under_out_of_order_completion(self):
        specs = [
            TaskSpec(
                fingerprint=f"sleepy-{index}",
                function="schedtest.sleepy",
                payload=(0.5 if index == 0 else 0.0, index),
            )
            for index in range(4)
        ]
        streamed = []
        with LocalScheduler(workers=2) as scheduler:
            results = scheduler.run(
                specs, on_result=lambda index, value: streamed.append(index)
            )
        assert results == [0, 1, 2, 3]
        # The slow first task completes last, so streaming order differs
        # from submission order — exactly what the ordered gather hides.
        assert streamed[-1] == 0
        assert sorted(streamed) == [0, 1, 2, 3]

    def test_worker_killed_mid_task_is_retried_once_and_succeeds(self, tmp_path):
        sentinel = tmp_path / "crashed-once"
        specs = [
            TaskSpec(
                fingerprint="die-once",
                function="schedtest.die_once",
                payload=str(sentinel),
            )
        ] + _echo_specs(["a", "b", "c"])
        with LocalScheduler(workers=2) as scheduler:
            results = scheduler.run(specs)
        assert results == ["survived", "a", "b", "c"]
        assert sentinel.exists()

    def test_persistent_crasher_raises_worker_crash_error(self):
        specs = _echo_specs(["x"]) + [
            TaskSpec(fingerprint="always-dies", function="schedtest.die")
        ]
        with LocalScheduler(workers=2) as scheduler:
            with pytest.raises(WorkerCrashError) as excinfo:
                scheduler.run(specs)
        assert excinfo.value.fingerprint == "always-dies"
        assert excinfo.value.attempts == 2  # first try + exactly one retry

    def test_task_exceptions_propagate_as_is(self):
        specs = _echo_specs(["x"]) + [
            TaskSpec(fingerprint="boom", function="schedtest.fail", payload="kaput")
        ]
        with LocalScheduler(workers=2) as scheduler:
            with pytest.raises(DetectionError, match="kaput"):
                scheduler.run(specs)

    def test_a_task_error_does_not_wait_for_a_running_sibling(self):
        specs = [
            TaskSpec(fingerprint="slow", function="schedtest.sleepy", payload=(2.0, "slow")),
            TaskSpec(fingerprint="boom", function="schedtest.fail", payload="kaput"),
        ]
        with LocalScheduler(workers=2) as scheduler:
            started = time.monotonic()
            with pytest.raises(DetectionError, match="kaput"):
                scheduler.run(specs)
            assert time.monotonic() - started < 1.0
            # The first child is still sleeping, so the next run gives
            # "late" to the second. "a" and "b" wait for the first child,
            # whose stale "slow" result is read and skipped by request
            # id, and finish before "late".
            streamed = []
            late = TaskSpec(
                fingerprint="late", function="schedtest.sleepy", payload=(3.0, "late")
            )
            results = scheduler.run(
                [late] + _echo_specs(["a", "b"]),
                on_result=lambda index, value: streamed.append(index),
            )
        assert results == ["late", "a", "b"]
        assert streamed == [1, 2, 0]

    def test_spawn_failure_falls_back_inline_via_hook(self, monkeypatch):
        def failing_fork():
            raise OSError("no forking here")

        monkeypatch.setattr(os, "fork", failing_fork)
        failures = []
        with LocalScheduler(workers=4, on_spawn_failure=failures.append) as s:
            assert s.run(_echo_specs([1, 2, 3])) == [1, 2, 3]
            assert s.workers == 1
        assert len(failures) == 1
        assert "no forking here" in str(failures[0])


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestLocalChildren:
    """Crash attribution and the lifecycle of the forked children."""

    def test_two_crashes_are_replaced_and_the_sleeper_is_not_blamed(
        self, tmp_path
    ):
        specs = [
            TaskSpec(
                fingerprint=f"die-once-{index}",
                function="schedtest.die_once",
                payload=str(tmp_path / f"crashed-{index}"),
            )
            for index in range(2)
        ] + [
            TaskSpec(
                fingerprint="sleeper",
                function="schedtest.sleepy",
                payload=(0.3, "slept"),
            )
        ]
        with LocalScheduler(workers=2) as scheduler:
            assert scheduler.run(specs) == ["survived", "survived", "slept"]
            # Both dead children were replaced: the pool is whole again.
            assert scheduler.run(_echo_specs(["a", "b"])) == ["a", "b"]
            assert len(scheduler._children._pids) == 2

    def test_a_child_killed_between_runs_is_replaced(self):
        with LocalScheduler(workers=2) as scheduler:
            assert scheduler.run(_echo_specs([1, 2])) == [1, 2]
            victim = next(iter(scheduler._children._pids.values()))
            os.kill(victim, signal.SIGKILL)
            assert scheduler.run(_echo_specs([3, 4, 5])) == [3, 4, 5]
            assert victim not in scheduler._children._pids.values()
            assert len(scheduler._children._pids) == 2

    def test_no_child_is_left_after_close(self):
        with LocalScheduler(workers=2) as scheduler:
            assert scheduler.run(_echo_specs([1, 2, 3])) == [1, 2, 3]
            assert len(scheduler._children._pids) == 2
        assert scheduler._children is None
        assert _no_child_left()

    def test_no_child_is_left_after_a_worker_crash_error(self):
        specs = _echo_specs(["x"]) + [
            TaskSpec(fingerprint="always-dies", function="schedtest.die")
        ]
        with LocalScheduler(workers=2) as scheduler:
            with pytest.raises(WorkerCrashError):
                scheduler.run(specs)
        assert _no_child_left()

    def test_children_exit_when_the_driver_ends_close(self):
        scheduler = LocalScheduler(workers=2)
        assert scheduler.run(_echo_specs([1, 2])) == [1, 2]
        children = scheduler._children
        pids = dict(children._pids)
        for channel in children._channels.values():
            channel.close()
        deadline = time.monotonic() + 10.0
        exited = {}
        while len(exited) < len(pids) and time.monotonic() < deadline:
            for name, pid in pids.items():
                if name not in exited:
                    done, status = os.waitpid(pid, os.WNOHANG)
                    if done:
                        exited[name] = status
            time.sleep(0.01)
        assert exited == {name: 0 for name in pids}  # clean exits at EOF
        children._pids.clear()  # reaped here, so close() has none to kill
        scheduler.close()
        assert _no_child_left()


class TestRegistry:
    def test_rebinding_a_name_to_a_different_callable_raises(self):
        with pytest.raises(SchedulerError, match="already registered"):
            register_task_function("schedtest.echo", scheduler_tasks.fail)
        # Re-registering the same callable is a no-op.
        register_task_function("schedtest.echo", scheduler_tasks.echo)

    def test_unknown_function_raises(self):
        with pytest.raises(SchedulerError, match="unknown task function"):
            run_task(TaskSpec(fingerprint="f", function="schedtest.nope"))

    def test_task_spec_validation(self):
        with pytest.raises(SchedulerError, match="non-empty"):
            TaskSpec(fingerprint="f", function="")
        with pytest.raises(SchedulerError, match="init_key"):
            TaskSpec(fingerprint="f", function="schedtest.echo", initializer="i")

    def test_create_scheduler_rejects_unknown_names(self):
        from repro.exec.policy import ExecutionPolicy

        policy = ExecutionPolicy().merged(scheduler="mainframe")
        with pytest.raises(SchedulerError, match="unknown scheduler"):
            create_scheduler(policy)


# --------------------------------------------------------------------------- #
# Wire codec
# --------------------------------------------------------------------------- #


class TestAddressesAndCodec:
    def test_parse_unix_and_tcp_addresses(self):
        assert parse_address("unix:/tmp/w.sock") == ("unix", "/tmp/w.sock")
        assert parse_address("tcp:localhost:9999") == ("tcp", ("localhost", 9999))
        assert parse_address("127.0.0.1:80") == ("tcp", ("127.0.0.1", 80))

    @pytest.mark.parametrize("bad", ["", "unix:", "host:", "host:not-a-port", ":9"])
    def test_malformed_addresses_are_rejected(self, bad):
        with pytest.raises(SchedulerError):
            parse_address(bad)


# --------------------------------------------------------------------------- #
# RemoteScheduler against real freqywm worker subprocesses
# --------------------------------------------------------------------------- #


@pytest.fixture()
def two_workers(tmp_path):
    """Two live ``freqywm worker`` processes on Unix sockets."""
    sock_a = tmp_path / "worker-a.sock"
    sock_b = tmp_path / "worker-b.sock"
    with scheduler_tasks.spawn_worker(sock_a):
        with scheduler_tasks.spawn_worker(sock_b):
            yield (f"unix:{sock_a}", f"unix:{sock_b}")


@pytest.fixture()
def unresponsive_worker(tmp_path):
    """A fake worker that accepts connections and reads but never replies."""
    path = tmp_path / "black-hole.sock"
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(path))
    listener.listen(4)
    stop = threading.Event()
    connections = []

    def serve():
        listener.settimeout(0.1)
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            conn.settimeout(0.1)
            connections.append(conn)
        for conn in connections:
            conn.close()
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield f"unix:{path}"
    stop.set()
    thread.join(timeout=5)


class TestRemoteScheduler:
    def test_requires_at_least_one_address(self):
        with pytest.raises(SchedulerError, match="at least one"):
            RemoteScheduler([])

    def test_ordered_gather_across_two_workers(self, two_workers):
        specs = [
            TaskSpec(
                fingerprint=f"sleepy-{index}",
                function="schedtest.sleepy",
                payload=(0.3 if index == 0 else 0.0, index),
            )
            for index in range(6)
        ]
        streamed = []
        with RemoteScheduler(two_workers) as scheduler:
            assert scheduler.workers == 2
            results = scheduler.run(
                specs, on_result=lambda index, value: streamed.append(index)
            )
        assert results == [0, 1, 2, 3, 4, 5]
        assert sorted(streamed) == [0, 1, 2, 3, 4, 5]
        assert streamed[-1] == 0  # the slow task finished last

    def test_worker_local_state_is_built_once_per_worker(self, two_workers):
        specs = [
            TaskSpec(
                fingerprint=f"state-{index}",
                function="schedtest.with_state",
                payload=index,
                initializer="schedtest.state",
                init_key="shared-key",
                init_args=("shared",),
            )
            for index in range(8)
        ]
        with RemoteScheduler(two_workers) as scheduler:
            results = scheduler.run(specs)
        states = {state for state, _payload in results}
        # One cached state per worker process, never one per task.
        assert 1 <= len(states) <= 2
        assert all(state.startswith("state:shared:") for state in states)

    def test_remote_task_errors_come_back_typed(self, two_workers):
        spec = TaskSpec(
            fingerprint="boom", function="schedtest.fail", payload="remote kaput"
        )
        with RemoteScheduler(two_workers[:1]) as scheduler:
            with pytest.raises(DetectionError, match="remote kaput"):
                scheduler.run([spec])

    def test_heartbeat_timeout_marks_worker_dead_without_losing_tasks(
        self, two_workers, unresponsive_worker
    ):
        # One real worker + one black hole. The black hole accepts the
        # connection and a task line, then stays silent; after the
        # heartbeat timeout its in-flight task must be resubmitted to
        # the surviving worker, not lost.
        addresses = [unresponsive_worker, two_workers[0]]
        specs = _echo_specs(list(range(6)))
        scheduler = RemoteScheduler(
            addresses, heartbeat_interval=0.05, heartbeat_timeout=0.4
        )
        with scheduler:
            results = scheduler.run(specs)
        assert results == list(range(6))
        assert unresponsive_worker in scheduler._dead

    def test_all_workers_dead_raises_scheduler_error(self, unresponsive_worker):
        scheduler = RemoteScheduler(
            [unresponsive_worker], heartbeat_interval=0.05, heartbeat_timeout=0.3
        )
        with scheduler:
            with pytest.raises(SchedulerError, match="remote workers"):
                scheduler.run(_echo_specs([1, 2]))

    def test_unreachable_address_is_skipped_when_another_worker_lives(
        self, two_workers, tmp_path
    ):
        addresses = [f"unix:{tmp_path / 'nonexistent.sock'}", two_workers[1]]
        with RemoteScheduler(addresses) as scheduler:
            assert scheduler.run(_echo_specs(["a", "b"])) == ["a", "b"]

    def test_a_worker_left_running_after_an_early_failure_serves_a_fresh_scheduler(
        self, two_workers
    ):
        specs = [
            TaskSpec(fingerprint="slow", function="schedtest.sleepy", payload=(1.5, "slow")),
            TaskSpec(fingerprint="boom", function="schedtest.fail", payload="kaput"),
        ]
        with RemoteScheduler(two_workers) as scheduler:
            started = time.monotonic()
            with pytest.raises(DetectionError, match="kaput"):
                scheduler.run(specs)
            assert time.monotonic() - started < 1.0
        # The first worker finishes "slow" for a connection that is gone,
        # then serves the next scheduler's tasks.
        with RemoteScheduler(two_workers) as fresh:
            assert fresh.run(_echo_specs(list(range(5)))) == list(range(5))


def _long_task():
    return TaskSpec(fingerprint="long", function="schedtest.sleepy", payload=(1.0, "done"))


class TestMidTaskHeartbeats:
    """A worker busy with a task 3x longer than the heartbeat timeout
    answers every probe, so it is never taken for dead."""

    def test_a_worker_process_answers_probes_mid_task(self, two_workers):
        scheduler = RemoteScheduler(
            two_workers[:1], heartbeat_interval=0.05, heartbeat_timeout=0.3, max_retries=0
        )
        with scheduler:
            assert scheduler.run([_long_task()]) == ["done"]
        assert not scheduler._dead

    def test_a_forked_child_answers_probes_mid_task(self):
        with LocalScheduler(workers=2, max_retries=0) as scheduler:
            assert scheduler.run(_echo_specs([0, 1])) == [0, 1]  # forks the children
            children = scheduler._children
            children.heartbeat_interval, children.heartbeat_timeout = 0.05, 0.3
            assert scheduler.run([_long_task()] + _echo_specs(["a"])) == ["done", "a"]
            assert not children._dead


# --------------------------------------------------------------------------- #
# One run thread
# --------------------------------------------------------------------------- #


@pytest.fixture()
def no_thread_starts(monkeypatch):
    """Make every ``Thread.start`` in this process fail while the block runs."""

    @contextlib.contextmanager
    def forbid():
        def refuse(self):
            raise AssertionError(f"a scheduler run started thread {self.name!r}")

        with monkeypatch.context() as patch:
            patch.setattr(threading.Thread, "start", refuse)
            yield

    return forbid


class TestOneRunThread:
    """Every worker channel is served from the thread that called ``run``."""

    def test_a_remote_run_starts_no_thread(self, two_workers, no_thread_starts):
        specs = [
            TaskSpec(
                fingerprint=f"sleepy-{index}",
                function="schedtest.sleepy",
                payload=(0.05 if index % 3 == 0 else 0.0, index),
            )
            for index in range(6)
        ]
        with RemoteScheduler(two_workers) as scheduler:
            with no_thread_starts():
                assert scheduler.run(specs) == list(range(6))

    def test_a_sharded_local_run_starts_no_thread(self, no_thread_starts):
        with LocalScheduler(workers=2) as scheduler:
            # The children fork (and later start their own task threads)
            # outside the patched block.
            assert scheduler.run(_echo_specs([0, 1])) == [0, 1]
            with no_thread_starts():
                assert scheduler.run(_echo_specs(list(range(6)))) == list(range(6))


# --------------------------------------------------------------------------- #
# Connections kept between schedulers
# --------------------------------------------------------------------------- #


@pytest.fixture()
def connects(monkeypatch):
    """Every address a socket of this process connects to during the test."""
    made = []
    connect = socket.socket.connect

    def counting(sock, address):
        made.append(address)
        return connect(sock, address)

    monkeypatch.setattr(socket.socket, "connect", counting)
    return made


@pytest.fixture(scope="module")
def watermark():
    tokens = generate_power_law_tokens(0.7, n_tokens=60, sample_size=8_000, rng=5)
    return generate_watermark(tokens, budget_percent=2.0, modulus_cap=31, rng=7)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


class TestKeptConnections:
    """A closed scheduler leaves each idle connection for the next one."""

    def test_two_detect_many_calls_connect_to_each_worker_once(
        self, two_workers, watermark, connects
    ):
        policy = ExecutionPolicy(scheduler="remote", addresses=two_workers)
        suspects = [watermark.watermarked_histogram, watermark.original_histogram] * 4
        expected = [result.accepted for result in detect_many(suspects, watermark.secret)]
        for _ in range(2):
            report = detect_many(suspects, watermark.secret, policy=policy)
            assert [result.accepted for result in report] == expected
        assert sorted(connects) == sorted(parse_address(a)[1] for a in two_workers)

    def test_a_worker_restarted_at_its_address_is_reconnected_without_a_retry(
        self, tmp_path, connects
    ):
        path = tmp_path / "worker.sock"
        address = f"unix:{path}"
        with scheduler_tasks.spawn_worker(path):
            with RemoteScheduler([address]) as scheduler:
                assert scheduler.run(_echo_specs([1, 2])) == [1, 2]
        assert address in remote._POOL  # kept, and its worker is gone now
        warnings = _Records()
        logger = logging.getLogger("repro.exec.remote")
        logger.addHandler(warnings)
        try:
            with scheduler_tasks.spawn_worker(path):
                with RemoteScheduler([address], max_retries=0) as scheduler:
                    assert scheduler.run(_echo_specs([3, 4])) == [3, 4]
                    assert not scheduler._dead
        finally:
            logger.removeHandler(warnings)
        assert warnings.records == []
        assert connects == [str(path), str(path)]

    def test_threads_sharing_the_pool_never_share_a_connection(self, two_workers):
        """Eight threads, each running its own schedulers back to back,
        take kept connections under a tight switch interval: a connection
        two threads drove at once would mix their results."""
        failures, interval = [], sys.getswitchinterval()

        def sweep(thread):
            for run in range(15):
                values = [f"{thread}-{run}-{index}" for index in range(3)]
                try:
                    with RemoteScheduler(two_workers) as scheduler:
                        if scheduler.run(_echo_specs(values)) != values:
                            failures.append(values)
                except Exception as error:  # noqa: BLE001 - collected for the assert
                    failures.append(error)

        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=sweep, args=(index,)) for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert {remote._POOL[address].address for address in two_workers} == set(two_workers)

    def test_a_forked_child_never_writes_on_a_kept_connection(self, two_workers, connects):
        address = two_workers[0]
        with RemoteScheduler([address]) as scheduler:
            assert scheduler.run(_echo_specs(["a", "b"])) == ["a", "b"]
        kept = remote._POOL[address]
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child leaves through os._exit
            status = 1
            try:
                # The child's copy is closed, so nothing can be written on
                # it; the child's own scheduler connects afresh.
                if kept.closed and address not in remote._POOL:
                    with RemoteScheduler([address]) as child:
                        status = 0 if child.run(_echo_specs(["c", "d"])) == ["c", "d"] else 2
            finally:
                os._exit(status)
        assert os.waitpid(pid, 0)[1] == 0
        with RemoteScheduler([address]) as scheduler:
            assert scheduler.run(_echo_specs(["e", "f"])) == ["e", "f"]
            assert scheduler._channels[address] is kept
        assert connects == [parse_address(address)[1]]


# --------------------------------------------------------------------------- #
# Worker exit
# --------------------------------------------------------------------------- #


def _sleeper_then_probe(seconds):
    """A ``schedtest.sleepy`` task line with its frames, then a heartbeat line."""
    frames = dumps_oob((seconds, "slept")).frames()
    task = TaskRequest(
        request_id="sleeper",
        function="schedtest.sleepy",
        fingerprint="sleeper",
        frames=tuple(len(frame) for frame in frames),
        payload_frames=len(frames),
    )
    probe = TaskRequest(request_id="probe", function=HEARTBEAT_FUNCTION)
    return b"".join(
        [(encode_line(task) + "\n").encode()]
        + [bytes(frame) for frame in frames]
        + [(encode_line(probe) + "\n").encode()]
    )


@contextlib.contextmanager
def _busy_connection(path):
    """A connection whose worker has taken a 30 s task (its probe answered)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.connect(str(path))
        conn.sendall(_sleeper_then_probe(30.0))
        with conn.makefile("rb") as reader:
            assert b'"probe"' in reader.readline()
            yield


class TestWorkerExit:
    """A worker leaves promptly, and cleanly, whatever its connections hold."""

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["term", "int"])
    @pytest.mark.parametrize("busy", [False, True], ids=["idle-kept", "mid-task"])
    def test_a_signal_stops_a_worker_within_five_seconds(self, tmp_path, signum, busy):
        path = tmp_path / "worker.sock"
        address = f"unix:{path}"
        with scheduler_tasks.spawn_worker(path) as process:
            with RemoteScheduler([address]) as scheduler:
                assert scheduler.run(_echo_specs([1, 2])) == [1, 2]
            assert not remote._POOL[address].closed  # an idle, open connection
            with _busy_connection(path) if busy else contextlib.nullcontext():
                started = time.monotonic()
                process.send_signal(signum)
                assert process.wait(timeout=5) == 0
                assert time.monotonic() - started < 5
            assert f"worker summary: served={3 if busy else 2} " in process.stderr.read()
        assert not path.exists()

    def test_a_forked_child_exits_at_eof_mid_task(self):
        parent_end, child_end = socket.socketpair()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child leaves through os._exit
            parent_end.close()
            remote._serve_forked(child_end)
        child_end.close()
        with parent_end, parent_end.makefile("rb") as reader:
            parent_end.sendall(_sleeper_then_probe(30.0))
            assert b'"probe"' in reader.readline()
        deadline = time.monotonic() + 5
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done and time.monotonic() < deadline:
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done and status == 0


# --------------------------------------------------------------------------- #
# Worker span file
# --------------------------------------------------------------------------- #


class TestWorkerSpanFile:
    def test_a_task_span_both_processes_write_is_reported_once(self, tmp_path, watermark):
        """A worker and a driver with spans on, in one directory, each
        append the worker's task spans to ``telemetry/spans.jsonl``."""
        watermark.secret.save(tmp_path / "secret.json")
        (tmp_path / "suspects").mkdir()
        for name in ("a", "b", "c"):
            save_token_file(watermark.watermarked_tokens, tmp_path / "suspects" / f"{name}.txt")
        path = tmp_path / "w.sock"
        env = dict(os.environ, FREQYWM_TELEMETRY="spans")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")]
            + [part for part in env.get("PYTHONPATH", "").split(os.pathsep) if part]
        )
        cli = [sys.executable, "-m", "repro.cli"]
        with scheduler_tasks.spawn_worker(path, telemetry="spans"):  # runs in tmp_path
            detect = [*cli, "detect", "suspects", "secret.json"]
            subprocess.run(
                [*detect, "--scheduler", "remote", "--address", f"unix:{path}"],
                cwd=tmp_path, env=env, check=True, capture_output=True,
            )
        lines = (tmp_path / "telemetry" / "spans.jsonl").read_text().splitlines()
        written = [span for span in map(json.loads, lines) if span["name"] == "task:detect.files"]
        ids = {span["span"] for span in written}
        assert written and len(written) == 2 * len(ids)  # by the worker and the driver
        spans = load_spans(str(tmp_path))
        (run,) = [span for span in spans if span["name"] == "scheduler.run"]
        tasks = [span for span in spans if span["name"] == "task:detect.files"]
        assert {span["span"] for span in tasks} == ids and len(tasks) == len(ids)
        assert all(span["parent"] == run["span"] for span in tasks)
        report = subprocess.run(
            [*cli, "trace", "report", "."], cwd=tmp_path, env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        (row,) = [line for line in report.splitlines() if line.startswith("task:detect.files ")]
        assert int(row.split()[1]) == len(ids)
