"""Server process control and the closed-loop load generator.

The load comes from one process and one thread: a selector over at most
``nproc`` TCP connections with ``TCP_NODELAY``, each keeping a fixed number
of requests in flight and serving ``ROUND_LEN`` requests before the client
replaces it.  Requests are encoded before the clock
starts; responses are kept as raw bytes and checked after the window.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import time
from typing import Dict, List, Sequence, Tuple

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Requests a connection sends before the client replaces it.  The server
#: keeps every finished request of a connection until it closes, so its
#: heap, its garbage-collection pauses and its memory grow with requests
#: per connection; fixed-length rounds keep them the same on a fast host
#: and a slow one.
ROUND_LEN = 2048

#: Longest a server may take to bind, and to exit after SIGINT.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def _default_sigint() -> None:
    # A shell starts background jobs with SIGINT ignored, and an ignored
    # signal stays ignored across exec; the server needs it to shut down.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """A ``repro serve`` child process on a kernel-chosen port."""

    def __init__(self, argv: Sequence[str], cwd: str, env: Dict[str, str], workdir: str):
        self.port_file = os.path.join(workdir, f"port-{time.monotonic_ns()}")
        self.log_path = os.path.join(workdir, "server.log")
        argv = list(argv) + ["--port", "0", "--port-file", self.port_file]
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                argv,
                cwd=cwd,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
                preexec_fn=_default_sigint,
            )
        self.address = self._wait_for_port()

    def _wait_for_port(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}; see {self.log_path}")
            try:
                with open(self.port_file) as handle:
                    text = handle.read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                host, port = text.split()
                return host, int(port)
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"server did not bind within {START_TIMEOUT_S}s")

    def cpu_seconds(self) -> float:
        """User plus system CPU of the server so far, from /proc/<pid>/stat."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rpartition(")")[2].split()
        # Fields 14 and 15 of stat(5); the split starts at field 3.
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGINT (the server's clean shutdown), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.unlink(self.port_file)
        except FileNotFoundError:
            pass
        return self.proc.returncode


def _connect(address: Tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(address, timeout=60.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def encode_line(request_id: int, wire: dict) -> bytes:
    return (json.dumps(dict(wire, id=request_id)) + "\n").encode("utf-8")


def response_id(line: bytes) -> int:
    """The ``id`` of a raw response line without decoding the whole line.

    The server appends ``id`` as the envelope's last key; anything else
    falls back to a full decode.
    """
    pos = line.rfind(b'"id": ')
    if pos >= 0:
        try:
            return int(line[pos + 6 : line.rindex(b"}")])
        except ValueError:
            pass
    return json.loads(line)["id"]


def call(address: Tuple[str, int], lines: Sequence[bytes]) -> List[bytes]:
    """Send each line and wait for its answer before the next one."""
    answers = []
    with _connect(address) as sock:
        reader = sock.makefile("rb")
        for line in lines:
            sock.sendall(line)
            answers.append(reader.readline())
        reader.close()
    return answers


class _Conn:
    __slots__ = ("sock", "buf", "outstanding", "sent")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = b""
        self.outstanding = 0
        self.sent = 0


class Window:
    """What one measured window sent and received."""

    def __init__(self, size: int):
        self.sent_ns = [0] * size
        self.recv_ns = [0] * size
        self.lines: Dict[int, bytes] = {}
        self.attempted = 0
        self.start_ns = 0
        self.end_ns = 0
        self.client_cpu_s = 0.0
        self.exhausted = False

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def run_window(
    address: Tuple[str, int],
    encoded: Sequence[bytes],
    seconds: float,
    connections: int,
    depth: int,
    align: int = 1,
    round_len: int = ROUND_LEN,
) -> Window:
    """Closed loop: ``depth`` requests in flight on each connection.

    Request ``i`` is ``encoded[i]``; ids are handed out in order across
    connections, so the requests sent are always a prefix of the stream.
    A connection that has sent ``round_len`` requests waits for their
    answers, closes and is replaced by a new one.  Sending stops at the
    first multiple of ``align`` requests after the deadline; the window
    ends at the last answer.
    """
    window = Window(len(encoded))
    selector = selectors.DefaultSelector()
    next_id = 0
    clock = time.perf_counter_ns

    def finished(now: int) -> bool:
        return next_id >= len(encoded) or (now >= deadline and next_id % align == 0)

    def fill(conn: _Conn, now: int) -> None:
        nonlocal next_id
        if finished(now):
            window.exhausted = window.exhausted or (next_id >= len(encoded) and now < deadline)
            return
        want = min(depth - conn.outstanding, round_len - conn.sent, len(encoded) - next_id)
        if now >= deadline:
            want = min(want, -next_id % align)
        if want <= 0:
            return
        first = next_id
        next_id += want
        chunk = b"".join(encoded[first:next_id])
        stamp = clock()
        sent = window.sent_ns
        for i in range(first, next_id):
            sent[i] = stamp
        conn.sock.sendall(chunk)
        conn.outstanding += want
        conn.sent += want

    def open_conn() -> _Conn:
        conn = _Conn(_connect(address))
        selector.register(conn.sock, selectors.EVENT_READ, conn)
        return conn

    def close_conn(conn: _Conn) -> None:
        selector.unregister(conn.sock)
        conn.sock.close()

    conns = [open_conn() for _ in range(connections)]
    cpu_start = time.process_time()
    window.start_ns = clock()
    deadline = window.start_ns + int(seconds * 1e9)
    for conn in conns:
        fill(conn, window.start_ns)
    live = len(conns)
    while live:
        events = selector.select(timeout=30.0)
        if not events:
            raise RuntimeError("no answer from the server within 30s")
        for key, _ in events:
            conn = key.data
            data = conn.sock.recv(1 << 18)
            if not data:
                raise RuntimeError("server closed a connection mid-window")
            now = clock()
            parts = (conn.buf + data).split(b"\n")
            conn.buf = parts.pop()
            for line in parts:
                request_id = response_id(line)
                window.recv_ns[request_id] = now
                window.lines[request_id] = line
            window.end_ns = now
            conn.outstanding -= len(parts)
            if conn.outstanding == 0 and conn.sent >= round_len and not finished(now):
                close_conn(conn)
                conn = open_conn()
            fill(conn, now)
            if conn.outstanding == 0:
                close_conn(conn)
                live -= 1
    window.client_cpu_s = time.process_time() - cpu_start
    window.attempted = next_id
    selector.close()
    return window


def stats_snapshot(address: Tuple[str, int]) -> dict:
    """The live StatsRequest answer, decoded."""
    (line,) = call(address, [encode_line(0, {"kind": "stats", "database": "", "format": "json"})])
    envelope = json.loads(line)
    if not envelope.get("ok"):
        raise RuntimeError(f"stats request failed: {envelope.get('error')}")
    return envelope
