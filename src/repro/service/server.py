"""``repro serve``: a JSON-lines front end over the warm-VM pool.

The server listens on a local unix socket (``--socket PATH``) or TCP
port (``--port N``) and speaks one JSON object per line:

* ``{"workload": "db", "scale": 1, "id": 7}`` — run a request; the
  response is the request outcome (429-style rejections come back as
  ``{"status": 429, ...}`` without closing the connection);
* ``{"op": "stats"}`` — pool counters;
* ``{"op": "shutdown"}`` — graceful stop (also SIGINT/SIGTERM).

A malformed line — not JSON, not an object, a ``scale`` or ``id`` that
is not an integer, a ``scale`` above :data:`MAX_SCALE`, or longer than
:data:`MAX_LINE_BYTES` — gets a
``{"status": 400, ...}`` reply naming the problem, and the connection
keeps serving (an over-long line is discarded up to its newline).

A busy port or an existing socket path is refused up front with a
clear error (:class:`~repro.errors.ServiceError`) instead of a bind
traceback.  On shutdown — graceful or interrupted — the caller
receives the final pool stats for the run ledger.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import reprlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import AdmissionError, ServiceError
from repro.observability import logging as obs_logging
from repro.observability.metrics import MetricsRegistry
from repro.service.pool import ServiceConfig, VMPool, WorkloadRequest

log = obs_logging.get_logger("serve")

#: Longest request line the server reads (the asyncio stream limit).
MAX_LINE_BYTES = 64 * 1024

#: Largest ``scale`` a request may ask for.  A workload's run time
#: grows faster than its scale (db: 0.13 s at 1, 29 s at 32), and a
#: running VM cannot be interrupted, so an unbounded scale lets one
#: request line pin a host core for hours.
MAX_SCALE = 64

#: :func:`_read_line`'s result for a line longer than the limit.
_OVERSIZED = object()


@dataclass
class ServeConfig:
    """Where to listen and what pool to run."""

    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: Optional[int] = None
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Workloads to pre-warm in every worker before accepting traffic.
    preheat: List[str] = field(default_factory=list)
    scale: int = 1

    def endpoint(self) -> str:
        if self.socket_path:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"


async def _read_line(reader: asyncio.StreamReader):
    """The next line; ``None`` at end of stream; :data:`_OVERSIZED`
    for a line over the stream limit, consumed through its newline so
    the next read starts at the next line."""
    oversized = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:  # end of stream
            if oversized:
                return _OVERSIZED
            return exc.partial or None
        except asyncio.LimitOverrunError as exc:
            # no newline within the limit: drop what was scanned, keep
            # reading to the end of the line
            await reader.readexactly(exc.consumed)
            oversized = True
            continue
        return _OVERSIZED if oversized else line


async def _handle_client(pool: VMPool, stop: asyncio.Event,
                         reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
    try:
        while not stop.is_set():
            line = await _read_line(reader)
            if line is None:
                break
            response = await _respond(pool, stop, line)
            writer.write((json.dumps(response, sort_keys=True)
                          + "\n").encode("utf-8"))
            await writer.drain()
            if response.get("op") == "shutdown":
                break
    finally:
        writer.close()


async def _respond(pool: VMPool, stop: asyncio.Event, line) -> Dict:
    try:
        if line is _OVERSIZED:
            raise ValueError(f"line longer than {MAX_LINE_BYTES} bytes")
        message = json.loads(line)
        if not isinstance(message, dict):
            raise ValueError("request must be a JSON object")
    except ValueError as exc:
        return {"status": 400, "ok": False, "error": f"bad request: {exc}"}
    return await _dispatch(pool, stop, message)


async def _dispatch(pool: VMPool, stop: asyncio.Event,
                    message: Dict) -> Dict:
    op = message.get("op")
    if op == "stats":
        return {"op": "stats", "status": 200, "stats": pool.stats()}
    if op == "shutdown":
        stop.set()
        return {"op": "shutdown", "status": 200}
    if op is not None:
        return {"status": 400, "ok": False,
                "error": f"unknown op {op!r} (valid: stats, shutdown)"}
    workload = message.get("workload")
    if not isinstance(workload, str):
        return {"status": 400, "ok": False,
                "error": "request needs a 'workload' string"}
    fields = {}
    for name, default in (("scale", 1), ("id", 0)):
        value = message.get(name, default)
        try:
            fields[name] = int(value)
        except (TypeError, ValueError, OverflowError):
            return {"status": 400, "ok": False,
                    "error": f"request field {name!r} must be an integer, "
                             f"got {reprlib.repr(value)}"}
    if fields["scale"] > MAX_SCALE:
        return {"status": 400, "ok": False,
                "error": f"request field 'scale' must be at most "
                         f"{MAX_SCALE}, got {fields['scale']}"}
    request = WorkloadRequest(workload, scale=fields["scale"],
                              request_id=fields["id"])
    try:
        outcome = await pool.submit(request)
    except AdmissionError as exc:
        return {"status": exc.status, "ok": False, "error": str(exc),
                "queue_depth": exc.queue_depth,
                "queue_limit": exc.queue_limit}
    return dict(outcome.to_json(), status=outcome.status)


async def _start_listener(config: ServeConfig, handler):
    """Bind, translating the busy-endpoint errors into clear
    :class:`ServiceError` messages."""
    if config.socket_path:
        if os.path.exists(config.socket_path):
            raise ServiceError(
                f"socket path {config.socket_path!r} already exists "
                f"(another server running? remove the file if stale)")
        try:
            return await asyncio.start_unix_server(
                handler, path=config.socket_path, limit=MAX_LINE_BYTES)
        except OSError as exc:
            raise ServiceError(
                f"cannot bind socket {config.socket_path!r}: {exc}")
    if config.port is None:
        raise ServiceError("serve needs --socket PATH or --port N")
    try:
        return await asyncio.start_server(
            handler, host=config.host, port=config.port,
            limit=MAX_LINE_BYTES)
    except OSError as exc:
        if exc.errno == errno.EADDRINUSE:
            raise ServiceError(
                f"port {config.port} on {config.host} is already in "
                f"use; pick another --port or stop the other server")
        raise ServiceError(
            f"cannot bind {config.host}:{config.port}: {exc}")


async def _serve_async(config: ServeConfig, metrics: MetricsRegistry,
                       state: Dict) -> None:
    pool = VMPool(config.service, metrics=metrics)
    stop = asyncio.Event()
    server = await _start_listener(
        config,
        lambda reader, writer: _handle_client(pool, stop, reader,
                                              writer))
    await pool.start()
    try:
        if config.preheat:
            warmed = await pool.preheat(config.preheat,
                                        scale=config.scale)
            log.info("pool preheated", vms=warmed,
                     workloads=",".join(config.preheat))
        state["listening"] = config.endpoint()
        log.info("serving", endpoint=config.endpoint(),
                 workers=config.service.workers,
                 queue_limit=config.service.queue_limit)
        print(f"serving on {config.endpoint()} "
              f"({config.service.workers} workers); "
              f"Ctrl-C to stop", flush=True)
        await stop.wait()
        log.info("shutdown requested")
    finally:
        server.close()
        await server.wait_closed()
        state["stats"] = pool.stats()
        await pool.stop()
        if config.socket_path and os.path.exists(config.socket_path):
            os.unlink(config.socket_path)


def run_server(config: ServeConfig,
               metrics: Optional[MetricsRegistry] = None) -> Dict:
    """Serve until shutdown/interrupt; returns final state (listening
    endpoint, pool stats, interrupted flag) for the run ledger."""
    metrics = metrics if metrics is not None else MetricsRegistry()
    state: Dict = {"interrupted": False}
    try:
        asyncio.run(_serve_async(config, metrics, state))
    except KeyboardInterrupt:
        state["interrupted"] = True
        log.warning("interrupted; flushing final stats")
        if config.socket_path and os.path.exists(config.socket_path):
            os.unlink(config.socket_path)
    return state
