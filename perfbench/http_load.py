"""The daemon under test and the HTTP load generator that drives it.

One generator process uses at most two threads, each with one persistent
HTTP/1.1 connection, as the daemon advertises.
"""

from __future__ import annotations

import http.client
import itertools
import json
import select
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import measure
from tracing import REQUEST_HEADER

THREADS = 2


class Daemon:
    """A ``repro serve`` subprocess over one store (optionally the traced launcher)."""

    def __init__(self, root: Path, store: Path, spans: Optional[Path] = None) -> None:
        serve = ["serve", str(store), "--host", "127.0.0.1", "--port", "0"]
        if spans is None:
            command = [sys.executable, "-m", "repro"] + serve
        else:
            launcher = root / "perfbench" / "serve_traced.py"
            command = [sys.executable, str(launcher), str(spans)] + serve
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=measure.child_env(root),
            stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], 120)
        line = self.process.stdout.readline() if ready else ""
        if " on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        host_port = line.split(" on http://", 1)[1].split()[0]
        host, port = host_port.rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self) -> None:
        """Interrupt the daemon and wait for it to exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class Client:
    """One persistent HTTP/1.1 connection; reconnects after a transport error."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self.connection = http.client.HTTPConnection(*address, timeout=60)

    def send(self, method: str, path: str, body: Optional[dict] = None,
             request_id: Optional[str] = None) -> Tuple[int, bytes]:
        """One request; returns ``(status, body)`` with status 0 on transport failure."""
        headers = {} if request_id is None else {REQUEST_HEADER: request_id}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            self.connection.request(method, path, body=payload, headers=headers)
            response = self.connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            self.connection = http.client.HTTPConnection(*self.address, timeout=60)
            return 0, b""

    def close(self) -> None:
        self.connection.close()

    def json(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        """A request whose 200 JSON answer is required."""
        status, data = self.send(method, path, body)
        if status != 200:
            raise RuntimeError(f"{method} {path} answered {status}: {data[:200]!r}")
        return json.loads(data)


def query_path(query: str, no_result_cache: bool = False) -> str:
    """The ``/query`` URL path for one XPath."""
    path = "/query?q=" + urllib.parse.quote(query, safe="")
    return path + "&no_result_cache=1" if no_result_cache else path


@dataclass
class Read:
    """One completed read: request id, key, latency and the response."""

    request_id: str
    query: str
    latency: float
    status: int
    body: bytes


@dataclass
class Commit:
    """One completed ``/add`` or ``/remove``."""

    request_id: str
    op: str
    latency: float
    status: int
    body: bytes
    churn_index: int


@dataclass
class LoadOutcome:
    """Everything a load phase observed."""

    reads: List[Read] = field(default_factory=list)
    commits: List[Commit] = field(default_factory=list)
    wall: float = 0.0
    client_cpu_ratio: float = 0.0
    lateness: List[float] = field(default_factory=list)


def _run_threads(target, count: int = THREADS) -> None:
    threads = [threading.Thread(target=target, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(address, keys: Sequence[str], seconds: float, traced: bool) -> LoadOutcome:
    """Two callers, each sending its next read when the previous one returns."""
    outcome = LoadOutcome()
    paths = {key: query_path(key) for key in set(keys)}
    counter = itertools.count()
    cpu = measure.cpu_seconds()
    started = time.perf_counter()
    deadline = started + seconds
    finished_at = [started]

    def caller(_index: int) -> None:
        client = Client(address)
        try:
            while time.perf_counter() < deadline:
                n = next(counter)
                key = keys[n % len(keys)]
                request_id = f"r{n}"
                sent = time.perf_counter()
                status, body = client.send("GET", paths[key], request_id=request_id if traced else None)
                done = time.perf_counter()
                outcome.reads.append(Read(request_id, key, done - sent, status, body))
                finished_at.append(done)
        finally:
            client.close()

    _run_threads(caller)
    outcome.wall = max(finished_at) - started
    outcome.client_cpu_ratio = (measure.cpu_seconds() - cpu) / outcome.wall
    return outcome


def open_loop(address, reads: Sequence[Tuple[float, str]],
              writes: Sequence[Tuple[float, str, int]], churn_texts: Dict[int, str],
              traced: bool) -> LoadOutcome:
    """Send reads and writes at their due times (seconds from start).

    One thread with its own connection sends the reads ``(due, query)``;
    the other sends the writes ``(due, "add"|"remove", churn_index)``, a
    ``remove`` naming the document its ``add`` created.  Reads are timed
    from their due time, so a stall also charges the reads queued behind
    it.  Generator lateness is how far a thread that was idle before an
    event's due time overslept it.
    """
    outcome = LoadOutcome()
    paths = {query: query_path(query) for _, query in reads}
    cpu = measure.cpu_seconds()
    started = time.perf_counter()

    def wait_until(due: float) -> None:
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
            outcome.lateness.append(time.perf_counter() - due)

    def reader(client: Client) -> None:
        for n, (offset, query) in enumerate(reads):
            due = started + offset
            wait_until(due)
            request_id = f"r{n}"
            status, body = client.send("GET", paths[query],
                                       request_id=request_id if traced else None)
            outcome.reads.append(Read(request_id, query, time.perf_counter() - due, status, body))

    def writer(client: Client) -> None:
        doc_ids: Dict[int, int] = {}
        for n, (offset, op, churn_index) in enumerate(writes):
            wait_until(started + offset)
            if op == "add":
                payload = {"xml": churn_texts[churn_index], "name": f"churn-{churn_index}.xml"}
            else:
                payload = {"ref": doc_ids.get(churn_index, -1)}
            request_id = f"c{n}"
            sent = time.perf_counter()
            status, body = client.send("POST", "/" + op, payload,
                                       request_id=request_id if traced else None)
            latency = time.perf_counter() - sent
            if op == "add" and status == 200:
                doc_ids[churn_index] = json.loads(body)["doc_id"]
            outcome.commits.append(Commit(request_id, op, latency, status, body, churn_index))

    def sender(index: int) -> None:
        client = Client(address)
        try:
            (reader, writer)[index](client)
        finally:
            client.close()

    _run_threads(sender)
    outcome.wall = time.perf_counter() - started
    outcome.client_cpu_ratio = (measure.cpu_seconds() - cpu) / outcome.wall
    return outcome


def commit_probe(address, pairs: int, churn_texts: Dict[int, str], read_keys: Sequence[str],
                 traced: bool) -> LoadOutcome:
    """``pairs`` add-then-remove commits, each followed by one read.

    Each connection works through its own pairs, so one connection's reads
    can meet the other's commits, and the reads land on many versions.
    """
    outcome = LoadOutcome()
    per_thread = [[n for n in range(pairs) if n % THREADS == index] for index in range(THREADS)]
    paths = {key: query_path(key) for key in read_keys}

    def committer(index: int) -> None:
        client = Client(address)
        try:
            for n in per_thread[index]:
                doc_id = -1
                for step, op in enumerate(("add", "remove")):
                    payload = ({"xml": churn_texts[n], "name": f"probe-{n}.xml"}
                               if op == "add" else {"ref": doc_id})
                    request_id = f"c{n}{op}"
                    sent = time.perf_counter()
                    status, body = client.send("POST", "/" + op, payload,
                                               request_id=request_id if traced else None)
                    latency = time.perf_counter() - sent
                    if op == "add" and status == 200:
                        doc_id = json.loads(body)["doc_id"]
                    outcome.commits.append(Commit(request_id, op, latency, status, body, n))
                    key = read_keys[(2 * n + step) % len(read_keys)]
                    request_id = f"p{n}{op}"
                    sent = time.perf_counter()
                    status, body = client.send("GET", paths[key],
                                               request_id=request_id if traced else None)
                    outcome.reads.append(
                        Read(request_id, key, time.perf_counter() - sent, status, body))
        finally:
            client.close()

    _run_threads(committer)
    return outcome
