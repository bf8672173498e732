"""Client library for the ``repro serve`` daemon.

Two clients over the same HTTP+JSON protocol (``docs/service.md``):

* :class:`ReproClient` — synchronous, built on :mod:`http.client`, with
  the full surface: submit / status / long-poll wait / result / cancel /
  list / health, plus **live event streaming** (``stream_lines`` yields
  the raw JSONL bytes — byte-identical to a local
  :class:`~repro.sim.tracing.JsonlTraceWriter` file — and
  ``stream_events`` decodes them into typed
  :class:`~repro.sim.tracing.TraceEvent` objects).  This is what the
  ``repro submit`` / ``repro jobs`` CLI commands use.
* :class:`AsyncReproClient` — a lean asyncio client over one persistent
  connection, used by the concurrency stress benchmark to hold thousands
  of simultaneous clients open from a single process.

Both are standard library only.
"""

from __future__ import annotations

import asyncio
import json
import http.client
import socket
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.resilience.retry import RetryPolicy
from repro.sim.tracing import TraceEvent, event_from_dict

#: Terminal job states mirrored from the server (kept dependency-light so
#: the client module imports without the server package).
TERMINAL_STATES = frozenset({"done", "failed", "cancelled", "dead"})

#: Default request retry policy: transport errors and 503 load-shedding
#: responses are retried with exponential backoff + deterministic jitter;
#: 4xx responses (including 429 quota rejections, which carry their own
#: application-level ``retry_after``) are returned to the caller
#: untouched.  Pass ``retry=`` to either client to tune or disable
#: (``RetryPolicy(max_attempts=1)`` restores fail-fast).
DEFAULT_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.1, max_delay_s=2.0)


class ReproClientError(ReproError):
    """Transport-level client failure (connect, protocol, timeout)."""


class RemoteJobError(ReproClientError):
    """The daemon answered with an error status.

    ``status`` is the HTTP code (400 malformed spec, 404 unknown job,
    409 result-not-ready, 429 quota) and ``payload`` the decoded JSON
    body (``payload["error"]`` carries the server's message).
    """

    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(f"HTTP {status}: {message or payload}")
        self.status = status
        self.payload = payload

    @property
    def retry_after(self) -> float:
        """Server-suggested backoff in seconds (0 when absent)."""
        if isinstance(self.payload, dict):
            value = self.payload.get("retry_after", 0)
            if isinstance(value, (int, float)):
                return float(value)
        return 0.0


def _raise_for_status(status: int, payload: object) -> Dict[str, object]:
    if status >= 400:
        raise RemoteJobError(status, payload if isinstance(payload, dict) else {})
    return payload  # type: ignore[return-value]


def _retry_after_of(header: Optional[str], payload: object) -> Optional[float]:
    """Server-suggested backoff from a 503: header first, payload fallback."""
    if header:
        try:
            return max(0.0, float(header))
        except ValueError:
            pass
    if isinstance(payload, dict):
        value = payload.get("retry_after")
        if isinstance(value, (int, float)):
            return max(0.0, float(value))
    return None


# ----------------------------------------------------------------------
# Synchronous client
# ----------------------------------------------------------------------
class ReproClient:
    """Synchronous client for one ``repro serve`` daemon.

    Reuses a single keep-alive connection for request/response calls and
    opens a dedicated connection per event stream (streams close their
    connection when the job's event feed ends).  ``client_id`` is the
    quota identity sent as ``X-Repro-Client``; it defaults to the
    daemon's view of your peer address.

    ``retry`` governs transient-failure handling (see
    :data:`DEFAULT_RETRY`): transport errors reconnect and retry with
    backoff, 503 responses honour the server's ``Retry-After`` (header
    or payload) with jitter on top so a shed herd does not re-stampede in
    lockstep.  ``faults`` is the chaos-test seam — the
    ``client.conn.drop`` point kills the connection just before a request
    goes out.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        client_id: Optional[str] = None,
        timeout: float = 120.0,
        retry: Optional[RetryPolicy] = None,
        faults=None,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.faults = faults
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing -------------------------------------------------------
    def _headers(self) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.client_id:
            headers["X-Repro-Client"] = self.client_id
        return headers

    def _new_connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, object]:
        body = None
        headers = self._headers()
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        schedule = self.retry.schedule()
        while True:
            try:
                if self.faults is not None and self.faults.should_fire(
                    "client.conn.drop"
                ):
                    self.close()
                    raise ConnectionResetError("injected: connection dropped")
                if self._conn is None:
                    self._conn = self._new_connection()
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                data = response.read()
            except (
                http.client.HTTPException,
                ConnectionError,
                socket.timeout,
                OSError,
            ) as exc:
                self.close()
                pause = schedule.next_pause()
                if pause is None:
                    raise ReproClientError(
                        f"{method} http://{self.host}:{self.port}{path} failed: {exc}"
                    ) from None
                time.sleep(pause)
                continue
            try:
                decoded = json.loads(data.decode("utf-8")) if data else {}
            except json.JSONDecodeError as exc:
                raise ReproClientError(f"daemon sent invalid JSON: {exc}") from None
            if response.will_close:
                self.close()
            if response.status == 503:
                # Load shedding: honour the server's Retry-After (header
                # first, payload fallback) with jitter; give the caller
                # the 503 only when the policy is exhausted.
                retry_after = _retry_after_of(response.getheader("Retry-After"), decoded)
                pause = schedule.next_pause(retry_after=retry_after)
                if pause is not None:
                    time.sleep(pause)
                    continue
            return response.status, decoded

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- API ------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        return _raise_for_status(*self._request("GET", "/healthz"))

    def submit(self, spec: Dict[str, object]) -> str:
        """Submit a job spec; returns the job id (raises on 400/429)."""
        payload = _raise_for_status(*self._request("POST", "/jobs", spec))
        return payload["id"]  # type: ignore[index,return-value]

    def status(self, job_id: str) -> Dict[str, object]:
        return _raise_for_status(*self._request("GET", f"/jobs/{job_id}"))

    def jobs(self) -> List[Dict[str, object]]:
        payload = _raise_for_status(*self._request("GET", "/jobs"))
        return payload["jobs"]  # type: ignore[index,return-value]

    def result(self, job_id: str) -> Dict[str, object]:
        """The result payload of a finished job (409 → :class:`RemoteJobError`)."""
        payload = _raise_for_status(*self._request("GET", f"/jobs/{job_id}/result"))
        return payload["result"]  # type: ignore[index,return-value]

    def cancel(self, job_id: str) -> Dict[str, object]:
        return _raise_for_status(*self._request("DELETE", f"/jobs/{job_id}"))

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, object]:
        """Block until the job reaches a terminal state; returns its status.

        Uses the server-side long-poll (``?wait=``) so waiting costs one
        cheap request per ~25 s rather than a polling storm.
        """
        import time

        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ReproClientError(
                    f"job {job_id!r} did not finish within {timeout}s"
                )
            chunk_wait = max(0.05, min(25.0, remaining))
            status = _raise_for_status(
                *self._request("GET", f"/jobs/{job_id}?wait={chunk_wait:g}")
            )
            if status["state"] in TERMINAL_STATES:
                return status

    def run(self, spec: Dict[str, object], timeout: float = 300.0) -> Dict[str, object]:
        """Submit, wait, and return the result payload (convenience).

        Raises :class:`RemoteJobError` if the job failed or was
        cancelled (the 409 from the result endpoint carries the state).
        """
        job_id = self.submit(spec)
        self.wait(job_id, timeout=timeout)
        return self.result(job_id)

    # -- event streaming ------------------------------------------------
    def stream_lines(self, job_id: str, start: int = 0) -> Iterator[bytes]:
        """Yield raw JSONL event lines (with trailing newline) live.

        The byte concatenation of the yielded lines is identical to the
        :class:`~repro.sim.tracing.JsonlTraceWriter` file of the same
        run — feed a captured stream to
        :func:`~repro.sim.tracing.trace_from_jsonl` to rebuild the full
        trace.  ``start`` resumes from a line offset, so a reconnecting
        client passes the number of lines it already has.
        """
        conn = self._new_connection()
        try:
            conn.request(
                "GET", f"/jobs/{job_id}/events?from={start}", headers=self._headers()
            )
            response = conn.getresponse()
            if response.status != 200:
                data = response.read()
                try:
                    payload = json.loads(data.decode("utf-8"))
                except json.JSONDecodeError:
                    payload = {"error": data.decode("utf-8", "replace")}
                raise RemoteJobError(response.status, payload)
            while True:
                line = response.readline()
                if not line:
                    break
                yield line
        finally:
            conn.close()

    def stream_events(self, job_id: str, start: int = 0) -> Iterator[TraceEvent]:
        """Yield typed :class:`TraceEvent` objects from the live stream."""
        for line in self.stream_lines(job_id, start=start):
            text = line.decode("utf-8").strip()
            if text:
                yield event_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Asyncio client (one persistent connection; used by the stress bench)
# ----------------------------------------------------------------------
class AsyncReproClient:
    """Minimal asyncio client: JSON request/response over one connection.

    Designed for fan-out: a benchmark holds one instance per simulated
    client, each with its own socket and quota identity, all multiplexed
    by the event loop.  Event streaming is intentionally left to the
    synchronous client — stress jobs are result-oriented.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        client_id: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        #: One connection carries one exchange at a time: overlapping
        #: calls would interleave requests and read each other's replies.
        #: Created on first use, inside the loop that runs the requests.
        self._lock: Optional[asyncio.Lock] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "AsyncReproClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, object]:
        if self._lock is None:
            self._lock = asyncio.Lock()
        async with self._lock:
            return await self._exchange(method, path, payload)

    async def _exchange(
        self, method: str, path: str, payload: Optional[dict]
    ) -> Tuple[int, object]:
        body = b""
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        schedule = self.retry.schedule()
        while True:
            try:
                if self._writer is None:
                    await self.connect()
                head = [
                    f"{method} {path} HTTP/1.1",
                    f"Host: {self.host}:{self.port}",
                    "Connection: keep-alive",
                    f"Content-Length: {len(body)}",
                ]
                if self.client_id:
                    head.append(f"X-Repro-Client: {self.client_id}")
                if payload is not None:
                    head.append("Content-Type: application/json")
                self._writer.write(
                    ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
                )
                await self._writer.drain()
                status, decoded = await self._read_response()
            except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
                await self.close()
                pause = schedule.next_pause()
                if pause is None:
                    raise ReproClientError(
                        f"{method} http://{self.host}:{self.port}{path} "
                        f"failed: {exc}"
                    ) from None
                await asyncio.sleep(pause)
                continue
            if status == 503:
                retry_after = None
                if isinstance(decoded, dict):
                    value = decoded.get("retry_after")
                    if isinstance(value, (int, float)):
                        retry_after = max(0.0, float(value))
                pause = schedule.next_pause(retry_after=retry_after)
                if pause is not None:
                    await asyncio.sleep(pause)
                    continue
            return status, decoded

    async def _read_response(self) -> Tuple[int, object]:
        status_line = await self._reader.readuntil(b"\n")
        parts = status_line.decode("latin-1").split()
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ReproClientError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            raw = await self._reader.readuntil(b"\n")
            stripped = raw.strip()
            if not stripped:
                break
            name, _, value = stripped.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        data = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        try:
            decoded = json.loads(data.decode("utf-8")) if data else {}
        except json.JSONDecodeError as exc:
            raise ReproClientError(f"daemon sent invalid JSON: {exc}") from None
        return status, decoded

    # -- API ------------------------------------------------------------
    async def healthz(self) -> Dict[str, object]:
        return _raise_for_status(*await self._request("GET", "/healthz"))

    async def submit(self, spec: Dict[str, object]) -> str:
        payload = _raise_for_status(*await self._request("POST", "/jobs", spec))
        return payload["id"]  # type: ignore[index,return-value]

    async def status(self, job_id: str) -> Dict[str, object]:
        return _raise_for_status(*await self._request("GET", f"/jobs/{job_id}"))

    async def result(self, job_id: str) -> Dict[str, object]:
        payload = _raise_for_status(
            *await self._request("GET", f"/jobs/{job_id}/result")
        )
        return payload["result"]  # type: ignore[index,return-value]

    async def cancel(self, job_id: str) -> Dict[str, object]:
        return _raise_for_status(*await self._request("DELETE", f"/jobs/{job_id}"))

    async def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, object]:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise ReproClientError(
                    f"job {job_id!r} did not finish within {timeout}s"
                )
            chunk_wait = max(0.05, min(25.0, remaining))
            status = _raise_for_status(
                *await self._request("GET", f"/jobs/{job_id}?wait={chunk_wait:g}")
            )
            if status["state"] in TERMINAL_STATES:
                return status
