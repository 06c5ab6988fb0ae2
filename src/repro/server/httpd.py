"""Asyncio HTTP/1.1 front end for the diff daemon.

Stdlib-only (no aiohttp in the toolchain): a small, strict HTTP/1.1
request loop over ``asyncio.start_server`` streams.  One request per
connection (``Connection: close``) keeps the parser trivial and is
plenty for the workloads the smoke gate drives (curl, urllib, dozens of
concurrent clients).

Routes::

    GET  /healthz            liveness + store/request counters
    GET  /metrics            Prometheus text exposition (daemon + workers)
    GET  /trace[?format=F]   drain collected spans (chrome | otlp)
    GET  /trees              list stored fingerprints
    POST /trees              {"source", "filename"?}        -> fingerprint
    POST /diff               {"before", "after", "raw"?}    -> script
    POST /apply              {"tree", "script", "commit"?}  -> new fingerprint
    POST /apply-batch        {"tree", "scripts", "commit"?, "parallel"?,
                              "oracle"?}  -> fingerprint + schedule + verdicts
    POST /lint               {"script"}                     -> lint report
    POST /verify             {"tree"}                       -> violations
    POST /merge              {"left", "right"}              -> merged script
    POST /shutdown           respond, then drain and stop

``POST /diff`` with ``"raw": true`` responds with the bare truechange
JSON document (trailing newline included) — byte-identical to the
stdout of ``repro diff --json``, which is what the CI differential gate
compares against.

Graceful shutdown (``POST /shutdown``, SIGTERM, SIGINT): the listener
closes first (new connections are refused), every in-flight request
runs to completion and flushes its response, then the daemon returns.
A drain that exceeds ``drain_timeout_s`` gives up waiting rather than
hanging the host's supervisor.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional
from urllib.parse import parse_qs, urlparse

from repro.observability import (
    OBS,
    chrome_trace,
    metrics as _metrics,
    otlp_spans,
    take_spans,
)

from .service import ReproService, ServiceError

#: Hard cap on request body size (64 MiB source files are not diffs).
MAX_BODY = 64 * 1024 * 1024
MAX_HEAD = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Transport-level statuses -> the same stable string codes
#: :data:`~repro.server.service.ERROR_STATUS` uses, so every error body —
#: service-level or transport-level — is one envelope:
#: ``{"error": {"code": "<string>", "message": "..."}}``.
_ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    408: "timeout",
    409: "conflict",
    413: "payload_too_large",
    500: "internal",
    503: "unavailable",
}


class _HTTPError(Exception):
    def __init__(self, status: int, message: str, retry_after: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class ReproHTTPServer:
    """The daemon: one service instance behind an asyncio listener."""

    def __init__(
        self,
        service: ReproService,
        host: str = "127.0.0.1",
        port: int = 8337,
        drain_timeout_s: float = 30.0,
        max_inflight: int = 0,
        request_timeout_s: Optional[float] = None,
        header_timeout_s: float = 30.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.drain_timeout_s = drain_timeout_s
        #: admission bound on concurrently *executing* POST operations
        #: (0 = unbounded); excess requests are shed with 503 +
        #: ``Retry-After`` instead of queueing on the executor.
        self.max_inflight = max_inflight
        #: deadline for one operation's execution (None = no deadline)
        self.request_timeout_s = (
            request_timeout_s if request_timeout_s and request_timeout_s > 0 else None
        )
        #: slow-loris cap: one fixed window for the request head, and an
        #: *idle* bound on the body (each arriving chunk resets the
        #: clock, so a large upload on a slow-but-moving link survives)
        self.header_timeout_s = header_timeout_s
        self._active = 0
        self._server: Optional[asyncio.AbstractServer] = None
        #: request handlers run on this executor; sized for pool-backed
        #: daemons whose handler threads mostly block on worker futures.
        workers = service.pool.workers if service.pool is not None else 0
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, workers * 2), thread_name_prefix="repro-serve"
        )
        self._inflight: set[asyncio.Task] = set()
        self._closing = False
        self._done = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`shutdown` completes (however triggered)."""
        await self._done.wait()

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, release the pool."""
        if self._closing:
            await self._done.wait()
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._inflight:
            await asyncio.wait(
                set(self._inflight), timeout=self.drain_timeout_s
            )
        self._executor.shutdown(wait=True)
        self.service.close()
        self._done.set()

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    # ------------------------------------------------------------------
    # connection handling

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._inflight.add(task)
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            if task is not None:
                self._inflight.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, target, body = await self._read_request(reader)
        except _HTTPError as exc:
            await self._respond_error(writer, exc.status, exc.message)
            return
        if self._closing:
            await self._respond_error(writer, 503, "server is draining")
            return
        if OBS.enabled:
            _metrics().counter("repro.server.http.requests").inc()
        try:
            status, payload, raw = await self._route(method, target, body)
        except _HTTPError as exc:
            await self._respond_error(
                writer, exc.status, exc.message, retry_after=exc.retry_after
            )
            return
        except ServiceError as exc:
            await self._respond(
                writer,
                exc.status,
                json.dumps({"error": exc.as_dict()}) + "\n",
                retry_after=1 if exc.status == 503 else None,
            )
            return
        body_text = raw if raw is not None else json.dumps(payload, sort_keys=True) + "\n"
        content_type = "text/plain; version=0.0.4; charset=utf-8" if isinstance(
            payload, str
        ) else "application/json"
        await self._respond(writer, status, body_text, content_type)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), self.header_timeout_s
            )
        except asyncio.TimeoutError:
            if OBS.enabled:
                _metrics().counter("repro.server.http.slow_clients").inc()
            raise _HTTPError(
                408, f"request head not received within {self.header_timeout_s:g}s"
            ) from None
        except asyncio.LimitOverrunError:
            raise _HTTPError(413, "request head too large") from None
        if len(head) > MAX_HEAD:
            raise _HTTPError(413, "request head too large")
        try:
            request_line, *header_lines = head.decode("latin-1").split("\r\n")
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            raise _HTTPError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = 0
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _HTTPError(400, "malformed Content-Length") from None
        if length < 0 or length > MAX_BODY:
            raise _HTTPError(413, f"request body too large ({length} bytes)")
        if length:
            # progress-based deadline: each chunk restarts the clock, so
            # only a *stalled* body is shed — a legitimate large upload
            # on a slow link keeps its 200 as long as bytes arrive
            buf = bytearray()
            try:
                while len(buf) < length:
                    chunk = await asyncio.wait_for(
                        reader.read(min(65536, length - len(buf))),
                        self.header_timeout_s,
                    )
                    if not chunk:
                        raise _HTTPError(400, "request body truncated by peer")
                    buf.extend(chunk)
            except asyncio.TimeoutError:
                if OBS.enabled:
                    _metrics().counter("repro.server.http.slow_clients").inc()
                raise _HTTPError(
                    408,
                    f"request body stalled (no data for {self.header_timeout_s:g}s)",
                ) from None
            body = bytes(buf)
        else:
            body = b""
        return method.upper(), target, body

    # ------------------------------------------------------------------
    # routing

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, Any, Optional[str]]:
        url = urlparse(target)
        path = url.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}

        if method == "GET":
            if path == "/healthz":
                return 200, await self._dispatch("health", {}), None
            if path == "/metrics":
                text = self.service.metrics_text()
                return 200, text, text
            if path == "/trace":
                # check the format before draining: a bad request must
                # not throw the buffered spans away
                fmt = query.get("format", "chrome")
                if fmt not in ("chrome", "otlp"):
                    raise _HTTPError(400, f"unknown trace format {fmt!r}")
                spans = take_spans()
                doc = chrome_trace(spans) if fmt == "chrome" else otlp_spans(spans)
                return 200, doc, json.dumps(doc) + "\n"
            if path == "/trees":
                return 200, await self._dispatch("list_trees", {}), None
            raise _HTTPError(404, f"no such resource: {path}")

        if method != "POST":
            raise _HTTPError(405, f"unsupported method {method}")

        if path == "/shutdown":
            asyncio.get_running_loop().create_task(self.shutdown())
            return 200, {"ok": True, "draining": self.inflight}, None

        ops = {
            "/trees": "put_tree",
            "/diff": "diff",
            "/apply": "apply",
            "/apply-batch": "apply_batch",
            "/lint": "lint",
            "/verify": "verify",
            "/merge": "merge",
        }
        op = ops.get(path)
        if op is None:
            raise _HTTPError(404, f"no such resource: {path}")
        try:
            params = json.loads(body.decode("utf8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(params, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        # bounded admission: shed instead of queueing unboundedly (POSTs
        # only — GETs are cheap reads and must stay observable under load)
        if self.max_inflight > 0 and self._active >= self.max_inflight:
            if OBS.enabled:
                _metrics().counter("repro.server.http.shed").inc()
            raise _HTTPError(
                503,
                f"server at capacity ({self._active} operations in flight)",
                retry_after=1,
            )
        result = await self._dispatch(op, params, counted=True)
        if op == "diff" and (params.get("raw") or query.get("raw")):
            return 200, result, result["script_json"] + "\n"
        return 200, result, None

    async def _dispatch(
        self, op: str, params: dict[str, Any], counted: bool = False
    ) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        fut = loop.run_in_executor(self._executor, self.service.handle, op, params)
        if not counted:
            return await fut
        # the admission slot is held until the executor thread actually
        # finishes (a deadline-exceeded handler cannot be cancelled, and
        # pretending its slot is free would defeat the shed bound)
        self._active += 1

        def _release(f: asyncio.Future) -> None:
            self._active -= 1
            if not f.cancelled():
                f.exception()  # consume: nobody awaits an abandoned future

        fut.add_done_callback(_release)
        if self.request_timeout_s is None:
            return await fut
        try:
            return await asyncio.wait_for(asyncio.shield(fut), self.request_timeout_s)
        except asyncio.TimeoutError:
            if OBS.enabled:
                _metrics().counter("repro.server.http.deadline_exceeded").inc()
            raise _HTTPError(
                503,
                f"request exceeded its {self.request_timeout_s:g}s deadline",
                retry_after=1,
            ) from None

    # ------------------------------------------------------------------
    # responses

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: str,
        content_type: str = "application/json",
        retry_after: Optional[int] = None,
    ) -> None:
        data = body.encode("utf8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
        )
        if retry_after is not None:
            head += f"Retry-After: {retry_after}\r\n"
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    async def _respond_error(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        message: str,
        retry_after: Optional[int] = None,
    ) -> None:
        body = (
            json.dumps(
                {"error": {"code": _ERROR_CODES.get(status, "internal"), "message": message}}
            )
            + "\n"
        )
        await self._respond(writer, status, body, retry_after=retry_after)


async def run_http_daemon(
    service: ReproService,
    host: str = "127.0.0.1",
    port: int = 8337,
    ready=None,
    install_signal_handlers: bool = True,
    max_inflight: int = 0,
    request_timeout_s: Optional[float] = None,
    header_timeout_s: float = 30.0,
) -> ReproHTTPServer:
    """Start the HTTP daemon and block until it has fully drained.

    ``ready(server)`` is called once the listener is bound (the CLI
    prints the resolved address; tests capture the ephemeral port).
    """
    server = ReproHTTPServer(
        service,
        host,
        port,
        max_inflight=max_inflight,
        request_timeout_s=request_timeout_s,
        header_timeout_s=header_timeout_s,
    )
    await server.start()
    if ready is not None:
        ready(server)
    if install_signal_handlers:
        import signal

        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, lambda: loop.create_task(server.shutdown())
                )
            except (NotImplementedError, RuntimeError):
                break  # non-POSIX loop; Ctrl-C still raises KeyboardInterrupt
    await server.serve_until_shutdown()
    return server
