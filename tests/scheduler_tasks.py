"""Task functions shared by the scheduler tests and spawned workers.

Kept out of the test modules so a ``freqywm worker`` subprocess can load
the same registrations with ``--import scheduler_tasks`` (the tests put
this directory on the worker's ``PYTHONPATH``). Every name is prefixed
``schedtest.`` to stay clear of the built-in task registry.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

from repro.exceptions import DetectionError
from repro.exec.scheduler import register_initializer, register_task_function


def echo(_state, payload):
    """Return the payload unchanged."""
    return payload


def sleepy_echo(_state, payload):
    """Sleep ``payload[0]`` seconds, then return ``payload[1]``."""
    delay, value = payload
    time.sleep(delay)
    return value


def die(_state, _payload):
    """Kill the executing worker process outright (crash simulation)."""
    os.kill(os.getpid(), signal.SIGKILL)


def die_once(_state, payload):
    """Crash on the first call (sentinel file absent), succeed on retry."""
    sentinel = str(payload)
    if os.path.exists(sentinel):
        return "survived"
    with open(sentinel, "w"):
        pass
    os.kill(os.getpid(), signal.SIGKILL)


def fail(_state, payload):
    """Raise a typed library error with the payload as its message."""
    raise DetectionError(str(payload))


def with_state(state, payload):
    """Return the worker-local state alongside the payload."""
    return (state, payload)


def make_state(tag):
    """Initializer: a string stamped with the building process's pid."""
    return f"state:{tag}:{os.getpid()}"


register_task_function("schedtest.echo", echo)
register_task_function("schedtest.sleepy", sleepy_echo)
register_task_function("schedtest.die", die)
register_task_function("schedtest.die_once", die_once)
register_task_function("schedtest.fail", fail)
register_task_function("schedtest.with_state", with_state)
register_initializer("schedtest.state", make_state)


@contextmanager
def spawn_worker(socket_path, telemetry=None):
    """Run ``freqywm worker --socket socket_path`` until the block exits.

    Waits for the ``listening on ...`` readiness line on stderr before
    yielding, and terminates the process afterwards. The worker imports
    this module, so the ``schedtest.*`` registrations above are served.
    ``telemetry`` (a ``FREQYWM_TELEMETRY`` value) turns the worker's own
    telemetry on. The worker runs in the socket's directory, where a
    worker with spans on writes its ``telemetry/spans.jsonl``.
    """
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir, tests_dir] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    if telemetry is not None:
        env["FREQYWM_TELEMETRY"] = telemetry
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--socket",
            str(socket_path),
            "--import",
            "scheduler_tasks",
        ],
        env=env,
        cwd=os.path.dirname(os.path.abspath(socket_path)),
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = process.stderr.readline()
        assert "listening on" in line, f"worker failed to start: {line!r}"
        yield process
    finally:
        process.terminate()
        process.wait(timeout=10)
