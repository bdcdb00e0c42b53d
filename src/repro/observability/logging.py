"""Structured logging for the CLI and harness workers.

The CLI's side-channel notices ("trace: 1,234 events -> t.json") used
to be ad-hoc ``print(..., file=sys.stderr)`` calls.  This module
replaces them with one leveled, structured layer:

* text mode (default): ``level=info event="trace written" path=t.json``
  — stable ``key=value`` pairs, greppable, still human-readable;
* JSON mode (``--log-json``): one JSON object per line, for machine
  consumers (CI annotations, log shippers);
* worker prefixes: under ``--jobs N`` each harness worker stamps its
  cell index onto every line (``worker=w03``), so interleaved stderr
  from a process pool stays attributable.

Everything goes to **stderr** — stdout carries only the measurement
output (tables, reports), preserving the byte-identity guarantees the
golden tests pin.  Logging is host-side bookkeeping: it never touches
simulated cycle accounting.

The configuration is process-global (``configure``) and picklable as a
plain tuple so :mod:`repro.harness.parallel` can re-apply it inside
spawn-started workers (fork-started workers inherit it for free).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Tuple

#: Level names in severity order.
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30,
                          "error": 40}
LEVEL_NAMES = tuple(sorted(LEVELS, key=LEVELS.get))

#: Process-global config: (threshold, json_mode, worker_prefix).
_state = {"threshold": LEVELS["info"], "json": False, "worker": ""}


def configure(level: str = "info", json_mode: bool = False,
              worker: str = "") -> None:
    """Set the process-global logging configuration."""
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r} "
                         f"(valid: {', '.join(LEVEL_NAMES)})")
    _state["threshold"] = LEVELS[level]
    _state["json"] = bool(json_mode)
    _state["worker"] = worker


def snapshot() -> Tuple[str, bool]:
    """Picklable ``(level, json_mode)`` of the current configuration,
    for shipping to spawn-started worker processes."""
    threshold = _state["threshold"]
    level = next(name for name in LEVEL_NAMES
                 if LEVELS[name] == threshold)
    return level, _state["json"]


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, bool) or value is None:
        return str(value).lower()
    text = str(value)
    if text == "" or any(c in text for c in ' "='):
        return json.dumps(text)
    return text


class Logger:
    """A named emitter of structured log lines."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def enabled_for(self, level: str) -> bool:
        return LEVELS[level] >= _state["threshold"]

    def log(self, level: str, event: str, **fields) -> None:
        if not self.enabled_for(level):
            return
        stream = sys.stderr
        if _state["json"]:
            record = {"level": level, "logger": self.name,
                      "event": event}
            if _state["worker"]:
                record["worker"] = _state["worker"]
            record.update(fields)
            line = json.dumps(record, sort_keys=True, default=str)
        else:
            parts = [f"level={level}", f"logger={self.name}",
                     f"event={_format_value(event)}"]
            if _state["worker"]:
                parts.insert(0, f"worker={_state['worker']}")
            parts.extend(f"{key}={_format_value(value)}"
                         for key, value in fields.items())
            line = " ".join(parts)
        try:
            stream.write(line + "\n")
        except (OSError, ValueError):
            pass  # a closed/broken stderr must never kill a run

    def debug(self, event: str, **fields) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log("error", event, **fields)


_loggers: Dict[str, Logger] = {}


def get_logger(name: str) -> Logger:
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = Logger(name)
    return logger
