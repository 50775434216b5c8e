"""Shows why `vtld serve` answers a pipelined open-loop client at the gap
to the client's next request.

Usage, from the repository root after `bash perfbench/run.sh ...` built
the daemon:

    python3 perfbench/nagle_probe.py .bench_build/release/vtld

It starts a small daemon, waits for `ingest_done`, and runs two phases of
`status` requests due every 4 ms on one connection. Each phase sends ten
single requests and then two together, as an open loop sends them when
one answer is slow. In the first phase the client acknowledges as Linux does
by default (delayed ACKs). In the second it sets `TCP_QUICKACK` after
every read, so each answer is acknowledged at once. Mid-phase it prints
the daemon socket's `notsent` and `unacked` counts from `ss`, when `ss`
is installed. If an answer waits in the daemon's send queue while the
one before it is unacknowledged, and prompt ACKs remove the wait, the
delay is Nagle's algorithm on the daemon's socket meeting the client's
delayed ACKs.
"""

import re
import shutil
import socket
import subprocess
import sys
import threading
import time

GAP_S = 0.004
REQUESTS = 200
BURST_AT = 10
STATUS = b'{"cmd":"status"}\n'


def ask(addr, line):
    with socket.create_connection(addr) as s:
        s.sendall(line)
        return s.makefile("rb").readline()


def daemon_socket_state(port):
    if shutil.which("ss") is None:
        return "ss not installed"
    out = subprocess.run(
        ["ss", "-tino", "sport", "=", str(port)], capture_output=True, text=True
    ).stdout

    def field(name):
        m = re.search(name + r":(\d+)", out)
        return m.group(1) if m else "0"

    return f"daemon socket: notsent={field('notsent')} bytes unacked={field('unacked')} segments"


def phase(addr, quickack):
    s = socket.create_connection(addr)
    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    due, latencies = [], []

    def receive():
        while len(latencies) < REQUESTS:
            data = s.recv(1 << 16)
            if not data:
                return
            if quickack:
                s.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            now = time.perf_counter()
            for _ in range(data.count(b"\n")):
                latencies.append(now - due[len(latencies)])

    receiver = threading.Thread(target=receive)
    receiver.start()
    start = time.perf_counter()
    state = ""
    i = 0
    while len(due) < REQUESTS:
        at = start + i * GAP_S
        while time.perf_counter() < at:
            time.sleep(0.0002)
        burst = 2 if i == BURST_AT else 1
        due.extend([at] * burst)
        s.sendall(STATUS * burst)
        if i == REQUESTS // 2:
            time.sleep(0.001)
            state = daemon_socket_state(addr[1])
        i += 1
    receiver.join(timeout=5)
    s.close()
    settled = sorted(latencies[20:])
    return settled[len(settled) // 2] * 1e6, state


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: nagle_probe.py PATH_TO_VTLD")
    daemon = subprocess.Popen(
        [sys.argv[1], "serve", "--samples", "3000", "--addr", "127.0.0.1:0"],
        stderr=subprocess.PIPE,
    )
    try:
        banner = daemon.stderr.readline().decode()
        host, port = banner.split("listening on ")[1].split()[0].rsplit(":", 1)
        addr = (host, int(port))
        while b'"ingest_done":true' not in ask(addr, STATUS):
            time.sleep(0.01)
        for quickack in (False, True):
            p50, state = phase(addr, quickack)
            acks = "prompt ACKs (TCP_QUICKACK)" if quickack else "delayed ACKs (default)"
            print(f"{acks}: p50 {p50:.0f} us at {GAP_S * 1e3:.0f} ms gaps; {state}")
        ask(addr, b'{"cmd":"shutdown"}\n')
        daemon.wait(timeout=30)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    main()
