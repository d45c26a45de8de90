"""Plain-TCP transport backend carrying the same frames as the simulator.

One node per process.  Sockets are read by per-connection threads that
reassemble frames and push them onto a single dispatch queue; timers push
callbacks onto the same queue.  The dispatch loop is the only thread that
touches protocol state, which preserves the state machines' serialization
contract.  Peers are identified by the sender id inside the reliability
envelope of the first data frame on a connection.  Received frames are
queued as the exact bytes that arrived, so each is checksummed once by the
reader and once by the reliability layer, and never re-encoded.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from typing import Callable

from .transport import MSG_TRANSPORT_ACK, CorruptFrame, FrameDecoder, unpack_envelope

# Not called here since the reader queues received frames as they are, but
# perfbench/tracing.py patches this name to time frame encoding over TCP.
from .transport import encode_frame  # noqa: F401

log = logging.getLogger(__name__)

DEFAULT_PORT = 7761


def parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host:
        return text, DEFAULT_PORT
    return host, int(port)


class TcpNode:
    """RawEndpoint over TCP; server mode listens, client mode dials one peer."""

    def __init__(
        self,
        name: str,
        bind: tuple[str, int] | None = None,
        server_addr: tuple[str, int] | None = None,
        server_id: str | None = None,
    ):
        if (bind is None) == (server_addr is None):
            raise ValueError("exactly one of bind / server_addr must be given")
        self.name = name
        self._queue: queue.Queue = queue.Queue()
        self._handler: Callable[[bytes], None] | None = None
        self._conns: dict[str, socket.socket] = {}
        self._server_id = server_id
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._listener: socket.socket | None = None

        if bind is not None:
            self._listener = socket.create_server(bind)
            self._listener.settimeout(0.2)
            self.port = self._listener.getsockname()[1]
            self._spawn(self._accept_loop)
        else:
            assert server_id is not None
            sock = socket.create_connection(server_addr, timeout=10.0)
            sock.settimeout(0.2)
            self._conns[server_id] = sock
            self._spawn(self._reader_loop, sock, server_id)

        self._dispatcher = threading.Thread(target=self._dispatch_loop, daemon=True)
        self._dispatcher.start()

    # -- RawEndpoint interface -------------------------------------------------

    def send(self, dst: str, data: bytes) -> None:
        sock = self._conns.get(dst)
        if sock is None:
            # No route (peer not yet connected or gone): behave like a drop,
            # the reliability layer's retries own recovery.
            return
        try:
            sock.sendall(data)
        except OSError:
            self._drop_conn(dst)

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> object:
        timer = threading.Timer(delay_ms / 1000.0, lambda: self._queue.put(("call", fn)))
        timer.daemon = True
        timer.start()
        return timer

    def cancel(self, handle: object) -> None:
        if isinstance(handle, threading.Timer):
            handle.cancel()

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0

    def set_receive_handler(self, fn: Callable[[bytes], None]) -> None:
        self._handler = fn

    # -- plumbing -----------------------------------------------------------------

    def _spawn(self, target, *args) -> None:
        thread = threading.Thread(target=target, args=args, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(0.2)
            self._spawn(self._reader_loop, conn, None)

    def _reader_loop(self, sock: socket.socket, peer: str | None) -> None:
        decoder = FrameDecoder()
        while not self._stop.is_set():
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                break
            if not chunk:
                break
            try:
                frames = decoder.feed(chunk)
            except CorruptFrame:
                log.warning("closing connection after corrupt frame from %s", peer)
                break
            for msg_type, payload, frame in frames:
                if peer is None and msg_type != MSG_TRANSPORT_ACK:
                    try:
                        peer, _, _ = unpack_envelope(payload)
                    except CorruptFrame:
                        pass
                    else:
                        self._conns[peer] = sock
                self._queue.put(("frame", frame))
        if peer is not None:
            self._drop_conn(peer)

    def _drop_conn(self, peer: str) -> None:
        sock = self._conns.pop(peer, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                kind, item = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            try:
                if kind == "frame" and self._handler is not None:
                    self._handler(item)
                elif kind == "call":
                    item()
            except Exception:
                log.exception("error in dispatch")

    def run_until(self, predicate: Callable[[], bool], timeout_s: float = 600.0) -> bool:
        """Block the calling thread until the predicate holds (polling)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return predicate()

    def close(self) -> None:
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for peer in list(self._conns):
            self._drop_conn(peer)
