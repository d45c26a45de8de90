"""Plain-TCP transport backend carrying the same frames as the simulator.

One node per process.  A client dials its server when it is made and,
while no server listens, again from its timer heap until one does.  The
thread that calls `TcpNode.run_until` is the event loop: it runs due timers
from a `transport.Timers` heap on monotonic milliseconds (the simulator's
heap on wall-clock time) and hands received frames to the receive handler,
so it alone touches protocol state.  Each connection has a reader thread
that polls, reads each frame into a buffer of its own
(transport.read_frames), checks it once and queues its (src, msg_type,
payload view) for the loop, so a node keeps reading while a send waits out
a slow peer.  A connection is routed by the sender id in the
envelope of its first data frame, which is then the src of every frame it
carries; a claim on a sender routed to a live connection is refused, and
frames before the first data frame are dropped.  A send writes a Frame's
header and parts with sendmsg, never joined, and resends what a partial
call left.
"""

from __future__ import annotations

import contextlib
import logging
import queue
import select
import socket
import struct
import threading
import time
from typing import Callable

from .errors import ConfigError
from .transport import MSG_TRANSPORT_ACK, CorruptFrame, Frame, Timers, read_frames, unpack_envelope

# Not called here, but perfbench/tracing.py patches this name, so the import stays.
from .transport import encode_frame  # noqa: F401

log = logging.getLogger(__name__)

DEFAULT_PORT = 7761
_POLL_S = 0.2  # how often the accept loop and idle readers look for close()
# A send that moves no byte for this long fails and drops the route, so a
# connected peer that stops reading cannot hold the event loop.
SEND_STALL_S = 5.0
# A client that finds no server listening dials again after 50 ms, then after
# twice the last wait, never waiting longer than this.
DIAL_BACKOFF_CAP_MS = 250.0


def parse_address(text: str) -> tuple[str, int]:
    """``host:port`` as ``(host, port)``; a bare host gets DEFAULT_PORT."""
    host, _, port = text.rpartition(":")
    if not host:
        return text, DEFAULT_PORT
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ConfigError(f"expected host:port with a port in 0-65535, got {text!r}")
    return host, int(port)


def _blocking(sock: socket.socket) -> socket.socket:
    """Blocking mode for a connection, with each send bounded by SEND_STALL_S,
    and no Nagle delay: a small frame such as an ack is not held back until
    the peer's delayed ACK (40 ms on Linux) arrives."""
    sock.settimeout(None)
    stall = divmod(round(SEND_STALL_S * 1e6), 1_000_000)  # struct timeval
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, struct.pack("ll", *stall))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


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
        self._frames: queue.Queue = queue.Queue()
        self._timers = Timers()
        self._handler: Callable[[str, int, memoryview], None] | None = None
        self._conns: dict[str, socket.socket] = {}
        self._stop = threading.Event()
        self._listener: socket.socket | None = None
        self.on_connect: Callable[[str], None] = lambda server_id: None  # once a dial connects

        if bind is not None:
            self._listener = socket.create_server(bind)
            self._listener.settimeout(_POLL_S)
            self.port = self._listener.getsockname()[1]
            self._spawn(self._accept_loop)
        else:
            assert server_id is not None
            self._dial(server_addr, server_id, 50.0)

    # -- RawEndpoint interface -------------------------------------------------

    def send(self, dst: str, data: Frame | bytes) -> None:
        sock = self._conns.get(dst)
        if sock is None:
            # No route (peer not yet connected or gone): behave like a drop,
            # the reliability layer's retries own recovery.
            return
        parts = (data.header, *data.parts) if isinstance(data, Frame) else (data,)
        views = [memoryview(part).cast("B") for part in parts]
        try:
            while views:  # sendmsg moves what the socket takes, so resend the rest
                sent = sock.sendmsg(views)
                while views and sent >= len(views[0]):
                    sent -= len(views.pop(0))
                if sent:
                    views[0] = views[0][sent:]
        except OSError:
            with contextlib.suppress(OSError):  # wakes the reader to drop the route
                sock.shutdown(socket.SHUT_RDWR)

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> object:
        return self._timers.schedule(self.now_ms() + delay_ms, fn)

    def cancel(self, handle: object) -> None:
        self._timers.cancel(handle)

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0

    def set_receive_handler(self, fn: Callable[[str, int, memoryview], None]) -> None:
        self._handler = fn

    # -- event loop ---------------------------------------------------------------

    def run_until(self, predicate: Callable[[], bool], timeout_s: float = 600.0) -> bool:
        """Run the event loop on the calling thread until the predicate holds.

        Each pass hands one frame to the receive handler or runs one due
        timer.  A due timer waits for the frames queued when it was found
        due, and no more: an ack already queued cancels its retransmit, and a
        flooding peer cannot starve deadlines.  With no timer due, a pass
        waits on the queue until the next timer or the deadline.  An
        exception from a handler or timer is logged and the loop goes on.
        False when the deadline passes first.
        """
        deadline = self.now_ms() + timeout_s * 1000.0
        backlog = None  # frames to hand on before the due timer runs
        while not predicate():
            now = self.now_ms()
            if now >= deadline:
                return False
            due = self._timers.next_time()
            try:
                if due > now:
                    backlog = None
                    frame = self._frames.get(timeout=(min(due, deadline) - now) / 1000.0)
                else:
                    if backlog is None:
                        backlog = self._frames.qsize()
                    if not backlog:
                        backlog = None
                        self._timers.pop()[1]()
                        continue
                    backlog -= 1
                    frame = self._frames.get_nowait()
                if self._handler is not None:
                    self._handler(*frame)
            except queue.Empty:
                pass
            except Exception:
                log.exception("error in dispatch")
        return True

    # -- plumbing -----------------------------------------------------------------

    def _dial(self, server_addr: tuple[str, int], server_id: str, retry_ms: float) -> None:
        """Connect to the server; on failure, try again from the timer heap,
        so the retries run on the event loop and end with run_until."""
        try:
            sock = _blocking(socket.create_connection(server_addr, timeout=10.0))
        except OSError as exc:
            log.info("dialing %s failed (%s); retrying in %.0f ms", server_addr, exc, retry_ms)
            next_ms = min(2 * retry_ms, DIAL_BACKOFF_CAP_MS)
            self.schedule(retry_ms, lambda: self._dial(server_addr, server_id, next_ms))
            return
        self._conns[server_id] = sock
        self._spawn(self._reader_loop, sock, server_id)
        self.on_connect(server_id)

    def _spawn(self, target, *args) -> None:
        threading.Thread(target=target, args=args, daemon=True).start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._spawn(self._reader_loop, _blocking(conn), None)

    def _recv_into(self, sock: socket.socket, poller, view: memoryview) -> int:
        """Receive into *view* once readable; 0 when the peer closes, the
        socket fails or the node stops."""
        while not self._stop.is_set():
            try:
                if poller.poll(_POLL_S * 1000):
                    return sock.recv_into(view)
            except OSError:
                return 0
        return 0

    def _reader_loop(self, sock: socket.socket, peer: str | None) -> None:
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        try:
            for msg_type, payload in read_frames(
                lambda view: self._recv_into(sock, poller, view)
            ):
                if peer is None:
                    if msg_type == MSG_TRANSPORT_ACK:
                        continue  # nothing was sent over an unrouted connection
                    try:
                        sender, _, _ = unpack_envelope(msg_type, payload)
                    except CorruptFrame:
                        continue
                    if self._conns.setdefault(sender, sock) is not sock:
                        log.warning("refusing a second connection claiming to be %s", sender)
                        break
                    peer = sender
                self._frames.put((peer, msg_type, payload))
        except CorruptFrame:
            log.warning("closing connection after a corrupt frame")
        self._drop_conn(peer, sock)

    def _drop_conn(self, peer: str | None, sock: socket.socket) -> None:
        # Only the socket's own reader calls this, and other threads only add
        # routes, so a route bound to another socket is never popped here.
        if peer is not None and self._conns.get(peer) is sock:
            del self._conns[peer]
        _close(sock)

    def close(self) -> None:
        self._stop.set()
        if self._listener is not None:
            _close(self._listener)
        for sock in list(self._conns.values()):
            _close(sock)
