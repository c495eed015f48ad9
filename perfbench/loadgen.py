"""A single-process asyncio load generator speaking minimal HTTP/1.1.

Each connection is one keep-alive socket carrying one request at a time, so
``len(connections)`` bounds the requests in flight.  Request bytes are built
before the timed region and responses are kept raw (parsed after it), so the
client does as little as possible while the clock runs.

Two loop shapes (see the choosing-metrics rules the benchmark follows):

* :func:`closed_loop` — each connection sends its next request only when the
  previous one returned: measures capacity.
* :func:`open_loop` — requests are released at scheduled due times whatever
  the server does; each is timed from its *due* time, so a stall is charged
  to every request it delays, and the generator's own lateness is recorded.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Iterable
from dataclasses import dataclass

#: A request that gets no answer within this many seconds is timed out: it
#: counts as failed and as missing every latency limit.
REQUEST_TIMEOUT_S = 10.0


@dataclass
class Record:
    """One attempted request.  Times are ``time.perf_counter()`` readings."""

    index: int
    due: float
    sent: float
    done: float
    status: int  # HTTP status; 0 = timed out or connection failed
    body: bytes

    @property
    def ok(self) -> bool:
        """Answered; a refusal (429/503), error or timeout is not."""
        return self.status == 200


def frame(path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive socket; reopened after a request fails on it."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        connection = cls(host, port)
        await connection._connect()
        return connection

    async def _connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def _exchange(self, data: bytes) -> tuple[int, bytes]:
        self.writer.write(data)
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(None, 2)[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def request(self, data: bytes) -> tuple[int, bytes]:
        """Send one framed request; ``(0, b"")`` on timeout or a broken socket."""
        try:
            if self.writer is None:
                await self._connect()
            return await asyncio.wait_for(self._exchange(data), REQUEST_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError, OSError, ValueError, IndexError):
            # The socket may still deliver the abandoned response: never
            # reuse it.
            await self.close()
            return 0, b""

    async def close(self) -> None:
        writer, self.reader, self.writer = self.writer, None, None
        if writer is None:
            return
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def open_connections(host: str, port: int, count: int) -> list[Connection]:
    return [await Connection.open(host, port) for _ in range(count)]


async def close_connections(connections: list[Connection]) -> None:
    for connection in connections:
        await connection.close()


async def closed_loop(
    connections: list[Connection],
    requests: Iterable[bytes],
    seconds: float,
    min_count: int = 0,
) -> list[Record]:
    """Keep every connection busy until ``seconds`` passed and at least
    ``min_count`` requests were sent; raises if ``requests`` runs out first.

    ``requests`` may be a lazy iterable: the loop draws only what it sends.
    """
    records: list[Record] = []
    cursor = enumerate(requests)
    drawn = 0
    until = time.perf_counter() + seconds

    async def client(connection: Connection) -> None:
        nonlocal drawn
        while True:
            if time.perf_counter() >= until and drawn >= min_count:
                return
            try:
                index, data = next(cursor)
            except StopIteration:
                if time.perf_counter() >= until and drawn >= min_count:
                    return
                raise RuntimeError("closed loop ran out of prepared requests") from None
            drawn += 1
            sent = time.perf_counter()
            status, body = await connection.request(data)
            records.append(Record(index, sent, sent, time.perf_counter(), status, body))

    await asyncio.gather(*(client(c) for c in connections))
    records.sort(key=lambda record: record.index)
    return records


async def open_loop(
    connections: list[Connection],
    requests: list[bytes],
    offsets: list[float],
) -> tuple[list[Record], list[float]]:
    """Release ``requests[i]`` at ``offsets[i]`` seconds after the start.

    Returns the records (timed from their due times by the caller) and the
    generator's lateness per request: how long after its due time the
    generator actually released it.  A released request waits for the next
    free connection; that wait is part of its latency, not of lateness.
    """
    if len(requests) < len(offsets):
        raise ValueError("fewer prepared requests than scheduled arrivals")
    queue: asyncio.Queue = asyncio.Queue()
    records: list[Record] = []
    late: list[float] = []
    start = time.perf_counter()

    async def feeder() -> None:
        for index, offset in enumerate(offsets):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            queue.put_nowait((index, due))
        for _ in connections:
            queue.put_nowait(None)

    async def client(connection: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due = item
            sent = time.perf_counter()
            status, body = await connection.request(requests[index])
            records.append(Record(index, due, sent, time.perf_counter(), status, body))

    await asyncio.gather(feeder(), *(client(c) for c in connections))
    records.sort(key=lambda record: record.index)
    return records, late
