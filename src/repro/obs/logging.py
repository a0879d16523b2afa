"""One logging setup for every ``repro`` module.

Before this module existed each subsystem called ``logging.getLogger``
on its own and inherited whatever handler/format the embedding
application happened to install — six modules, six formats, no way to
turn the whole reproduction up to debug with one switch. Now every
module asks :func:`get_logger` for its logger and the CLI (or any
embedder) calls :func:`configure` once; the ``FREQYWM_LOG`` environment
variable picks the level and format without touching code::

    FREQYWM_LOG=debug            # human-readable lines at DEBUG
    FREQYWM_LOG=info:json        # one JSON object per record
    FREQYWM_LOG=warning:plain    # explicit plain format

Structured events — a worker's shutdown summary, a sharded batch's
spawn failure — go through :func:`log_record`, which renders the same
``key=value`` pairs in plain mode and a proper JSON object in json
mode, so log scrapers never parse prose.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from typing import Optional

from repro.exceptions import ConfigurationError

#: Environment variable controlling level and format: ``LEVEL[:FORMAT]``.
LOG_ENV = "FREQYWM_LOG"

#: The root logger every repro module hangs off.
ROOT_LOGGER = "repro"

_PLAIN_FORMAT = "%(asctime)s %(levelname)s %(name)s %(message)s"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}

_FORMATS = ("plain", "json")

_CONFIGURED = False


class JsonFormatter(logging.Formatter):
    """Render each record as one JSON object per line."""

    def format(self, record: logging.LogRecord) -> str:
        """Serialise ``record`` (message, level, logger, extras) to JSON."""
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if isinstance(fields, dict):
            payload.update(fields)
        if record.exc_info and record.exc_info[0] is not None:
            payload["error_type"] = record.exc_info[0].__name__
        return json.dumps(payload, default=str, sort_keys=True)


class PlainFormatter(logging.Formatter):
    """Human-readable lines; structured fields appended as key=value."""

    def __init__(self) -> None:
        super().__init__(_PLAIN_FORMAT)

    def format(self, record: logging.LogRecord) -> str:
        """Render ``record``, appending any structured fields."""
        base = super().format(record)
        fields = getattr(record, "fields", None)
        if isinstance(fields, dict) and fields:
            tail = " ".join(
                f"{key}={value}" for key, value in sorted(fields.items())
            )
            return f"{base} {tail}"
        return base


def parse_log_env(value: Optional[str]) -> tuple:
    """Parse ``LEVEL[:FORMAT]`` into ``(level, format_name)``.

    ``None``/empty means the default ``(logging.WARNING, "plain")``.
    Unknown levels or formats raise :class:`ConfigurationError` so a
    typo in ``FREQYWM_LOG`` fails loudly instead of silencing logs.
    """
    if not value:
        return logging.WARNING, "plain"
    level_part, _, format_part = value.strip().lower().partition(":")
    if level_part not in _LEVELS:
        raise ConfigurationError(
            f"{LOG_ENV} level {level_part!r} not in {sorted(_LEVELS)}"
        )
    format_name = format_part or "plain"
    if format_name not in _FORMATS:
        raise ConfigurationError(
            f"{LOG_ENV} format {format_name!r} not in {list(_FORMATS)}"
        )
    return _LEVELS[level_part], format_name


def configure(
    level: Optional[int] = None,
    format_name: Optional[str] = None,
    stream=None,
    force: bool = False,
) -> logging.Logger:
    """Install one handler on the ``repro`` root logger.

    Arguments override ``FREQYWM_LOG``; both default to the environment.
    Idempotent: a second call is a no-op unless ``force`` is set (which
    replaces the previously installed handler — used by tests and by
    the CLI when a ``--log`` flag should beat the environment).
    Returns the configured root logger.
    """
    global _CONFIGURED
    root = logging.getLogger(ROOT_LOGGER)
    if _CONFIGURED and not force:
        return root
    env_level, env_format = parse_log_env(os.environ.get(LOG_ENV))
    effective_level = env_level if level is None else level
    effective_format = env_format if format_name is None else format_name
    if effective_format not in _FORMATS:
        raise ConfigurationError(
            f"log format {effective_format!r} not in {list(_FORMATS)}"
        )
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(
        JsonFormatter() if effective_format == "json" else PlainFormatter()
    )
    for existing in list(root.handlers):
        if getattr(existing, "_repro_obs", False):
            root.removeHandler(existing)
    handler._repro_obs = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(effective_level)
    root.propagate = False
    _CONFIGURED = True
    return root


def get_logger(name: str) -> logging.Logger:
    """A child of the ``repro`` root logger for module ``name``.

    Accepts either a bare suffix (``"exec.scheduler"``) or a full
    dunder-name (``"repro.exec.scheduler"``); both land under the same
    root so :func:`configure` governs them all.
    """
    if name == ROOT_LOGGER:
        return logging.getLogger(ROOT_LOGGER)
    if name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def log_record(
    logger: logging.Logger, level: int, event: str, **fields: object
) -> None:
    """Emit a structured record: an event name plus key=value fields.

    In json mode the fields become top-level JSON keys; in plain mode
    they are appended as sorted ``key=value`` pairs. Use this for
    machine-relevant events (worker summaries, spawn failures) instead
    of interpolating values into prose.
    """
    if logger.isEnabledFor(level):
        logger.log(level, event, extra={"fields": fields})


def reset() -> None:
    """Drop installed handlers and configuration state (tests only).

    Also restores propagation to the logging root so pytest's ``caplog``
    (which listens there) sees records again after a test configured us.
    """
    global _CONFIGURED
    root = logging.getLogger(ROOT_LOGGER)
    for existing in list(root.handlers):
        if getattr(existing, "_repro_obs", False):
            root.removeHandler(existing)
    root.propagate = True
    _CONFIGURED = False


__all__ = [
    "LOG_ENV",
    "ROOT_LOGGER",
    "JsonFormatter",
    "PlainFormatter",
    "configure",
    "get_logger",
    "log_record",
    "parse_log_env",
    "reset",
]
