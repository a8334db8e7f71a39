"""The pass's `serve` step: a query server child the benchmark owns.

``pkgm serve`` cannot be told to reload, so the child is built from the
public calls ``model.load_checkpoint``, ``keyrel.read_keyrel_tsv``,
``servicing.QueryService``, ``servicing.serve`` and
``QueryService.load_snapshot``. It loads the pass's checkpoint into a
fresh snapshot when a quarter, half and three quarters of the requests
have gone out, so the number of swaps does not depend on speed. One
client sends a fixed list of requests over two connections, one request
in flight on each: 70% ``triple``, 20%
``relation`` and 10% ``bundle``/``all``, entities drawn with Zipf(1.1)
popularity over the entities that have key relations, relations uniform.
The mix, skew and swap rate are assumptions, not observed traffic. Every
response is checked afterwards against ``QueryService.handle`` run
in-process on the same checkpoint.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np

from harness import ROOT, Result, median, read_spans
from pkgm import keyrel, model, servicing

BENCH_DIR = Path(__file__).resolve().parent
MIX = (("triple", 0.7), ("relation", 0.2), ("bundle", 0.1))
ZIPF_EXPONENT = 1.1
CONNECTIONS = 2
DRAIN_TIMEOUT_S = 10.0
SWAPS = 3

# Client and server each get a CPU of their own when there are two; the
# client then polls its sockets instead of sleeping.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPU, SERVER_CPU = (_CPUS[0], _CPUS[1]) if len(_CPUS) >= 2 else (None, None)


def make_requests(entities: list[str], relations: list[str], n: int, seed: int) -> list[dict]:
    """``n`` requests from the mix, with Zipf-popular entities and uniform relations."""
    rng = np.random.default_rng(seed)
    by_rank = rng.permutation(len(entities))
    weights = np.arange(1, len(entities) + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    ops = rng.choice(len(MIX), size=n, p=[share for _, share in MIX])
    ents = by_rank[rng.choice(len(entities), size=n, p=weights / weights.sum())]
    rels = rng.integers(len(relations), size=n)
    out = []
    for op, e, r in zip(ops, ents, rels):
        if MIX[op][0] == "bundle":
            out.append({"op": "bundle", "e": entities[e], "variant": "all"})
        else:
            out.append({"op": MIX[op][0], "h": entities[e], "r": relations[r]})
    return out


# --- server child -------------------------------------------------------------

class ServerChild:
    """The server process this benchmark owns; always ended on exit."""

    def __init__(self, ckpt: Path, keyrels: Path, trace: bool, spans: Path):
        # the child's stderr (asyncio logs, tracebacks) goes beside its spans
        self.log = open(spans.with_name("server.log"), "a", encoding="utf-8")
        cmd = [sys.executable, str(BENCH_DIR / "server_child.py"),
               "--checkpoint", str(ckpt), "--keyrel", str(keyrels),
               "--trace", str(int(trace)), "--spans", str(spans)]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log, text=True)
        line = ""
        try:
            if SERVER_CPU is not None:
                os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
            line = self.proc.stdout.readline()
            self.port = json.loads(line)["port"]
        except (ValueError, KeyError, OSError):
            self.kill()
            raise RuntimeError(f"server child did not start: {line!r}")

    def swap(self) -> None:
        """Ask the child to reload its snapshot; it keeps serving meanwhile."""
        self.proc.stdin.write("swap\n")
        self.proc.stdin.flush()

    def stop(self) -> dict:
        """Ask the child to exit and return its report line."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server child did not stop")
        finally:
            self.log.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server child exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        self.log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.kill()


# --- client -------------------------------------------------------------------

def drive(server: ServerChild, lines: list[bytes]) -> dict:
    """Send every line, one request in flight per connection, and time each.

    The child swaps its snapshot ``SWAPS`` times, evenly through the list.
    One thread polls the sockets without sleeping when it has a CPU of its
    own, so times are taken within microseconds. Responses arrive in
    request order on each connection. Returns send and receive times (NaN
    when unanswered) and the raw responses; equal responses share one
    object, which bounds memory by the distinct answers.
    """
    n = len(lines)
    socks = [socket.create_connection(("127.0.0.1", server.port)) for _ in range(CONNECTIONS)]
    swap_at = {n * k // (SWAPS + 1) for k in range(1, SWAPS + 1)}
    for sock in socks:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
    queues = [deque() for _ in socks]
    outgoing = [bytearray() for _ in socks]
    incoming = [b""] * len(socks)
    open_socks = set(socks)
    sent = np.full(n, np.nan)
    recv = np.full(n, np.nan)
    responses: list[bytes | None] = [None] * n
    distinct: dict[bytes, bytes] = {}
    answered = 0

    cpus = os.sched_getaffinity(0)
    if CLIENT_CPU is not None:
        os.sched_setaffinity(0, {CLIENT_CPU})
    i = 0
    last_progress = time.perf_counter()
    try:
        while open_socks and answered < n:
            now = time.perf_counter()
            for c in range(CONNECTIONS):
                if i < n and not queues[c]:
                    if i in swap_at:
                        server.swap()
                    queues[c].append(i)
                    outgoing[c] += lines[i]
                    sent[i] = now
                    i += 1
            if now - last_progress > DRAIN_TIMEOUT_S:
                break
            timeout = 0.0 if CLIENT_CPU is not None else 0.01
            writers = [s for c, s in enumerate(socks) if outgoing[c] and s in open_socks]
            readable, writable, _ = select.select(list(open_socks), writers, [], timeout)
            for sock in writable:
                c = socks.index(sock)
                try:
                    del outgoing[c][:sock.send(outgoing[c])]
                except BlockingIOError:
                    pass
                except OSError:
                    open_socks.discard(sock)
            for sock in readable:
                c = socks.index(sock)
                try:
                    chunk = sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                except OSError:
                    chunk = b""
                if not chunk:
                    open_socks.discard(sock)
                    continue
                now = last_progress = time.perf_counter()
                buf = incoming[c] + chunk
                pos = 0
                while (idx := buf.find(b"\n", pos)) >= 0:
                    if not queues[c]:
                        open_socks.discard(sock)  # a response nobody asked for
                        break
                    j = queues[c].popleft()
                    recv[j] = now
                    line = buf[pos:idx]
                    responses[j] = distinct.setdefault(line, line)
                    answered += 1
                    pos = idx + 1
                incoming[c] = buf[pos:]
    finally:
        os.sched_setaffinity(0, cpus)
        for sock in socks:
            sock.close()
    return {"sent": sent, "recv": recv, "responses": responses,
            "dropped": len(open_socks) < len(socks)}


# --- checks -------------------------------------------------------------------

class Oracle:
    """In-process answers of the checkpoint the child serves, as float32 bytes."""

    def __init__(self, ckpt: Path, keyrels: Path):
        params, entity_vocab, relation_vocab = model.load_checkpoint(ckpt)
        table = keyrel.read_keyrel_tsv(keyrels, entity_vocab, relation_vocab)
        self.service = servicing.QueryService(params, table, entity_vocab, relation_vocab)
        self.expected: dict = {}
        self.seen_good: set = set()

    def check(self, request: dict, response: bytes) -> str:
        """'ok', 'error' or 'mismatch' for one response line."""
        key = tuple(sorted((k, v) for k, v in request.items() if k != "rid"))
        if (key, response) in self.seen_good:
            return "ok"
        if key not in self.expected:
            self.expected[key] = _vector_bytes(self.service.handle(dict(key)))
        try:
            got = _vector_bytes(json.loads(response))
        except ValueError:
            got = None
        if got is None:
            return "error"
        if got != self.expected[key]:
            return "mismatch"
        self.seen_good.add((key, response))
        return "ok"


def _vector_bytes(answer) -> bytes | None:
    if not isinstance(answer, dict) or "error" in answer:
        return None
    values = answer.get("vector", answer.get("vectors"))
    return np.asarray(values, dtype=np.float32).tobytes()


# --- the stage ----------------------------------------------------------------

class ServeStage:
    """Callable pass step: start the child, send the requests, stop the child.

    The last run is kept for ``check`` and ``layer_metrics``, which work
    outside the timed pass.
    """

    def __init__(self, requests: list[dict]):
        self.requests = requests
        self.plain = [(json.dumps(r) + "\n").encode() for r in requests]
        # traced runs carry a request id that QueryService.handle ignores
        self.traced = [(json.dumps({**r, "rid": i}) + "\n").encode()
                       for i, r in enumerate(requests)]
        self.last: dict = {}

    def __call__(self, out: Path, traced: bool) -> None:
        spans = out / "server_spans.jsonl"
        with ServerChild(out / "ckpt", out / "keyrels.tsv", traced, spans) as server:
            run = drive(server, self.traced if traced else self.plain)
            child = server.stop()
        self.last = {"run": run, "child": child, "spans": spans, "out": out}

    def check(self, res: Result) -> None:
        """Count failed requests; errors and wrong values are correctness problems."""
        run = self.last["run"]
        oracle = Oracle(self.last["out"] / "ckpt", self.last["out"] / "keyrels.tsv")
        verdicts = [oracle.check(request, response) if response is not None else "unanswered"
                    for request, response in zip(self.requests, run["responses"])]
        errors, mismatches = verdicts.count("error"), verdicts.count("mismatch")
        res.check(errors == 0, f"serve: {errors} error responses")
        res.check(mismatches == 0, f"serve: {mismatches} responses differ from handle()")
        res.check(not run["dropped"], "serve: a connection was dropped")
        res.check(len(self.last["child"]["reload_s"]) == SWAPS,
                  f"serve: the child made {len(self.last['child']['reload_s'])} of {SWAPS} swaps")
        res.attempted += len(verdicts)
        res.failed += len(verdicts) - verdicts.count("ok")
        self.last["failed"] = len(verdicts) - verdicts.count("ok")

    def detail(self) -> dict:
        run, child = self.last["run"], self.last["child"]
        lat = run["recv"] - run["sent"]
        lat = lat[~np.isnan(lat)]
        return {"requests": len(self.requests),
                "p50_ms": 1e3 * float(np.percentile(lat, 50)) if len(lat) else None,
                "p99_ms": 1e3 * float(np.percentile(lat, 99)) if len(lat) else None,
                "swaps": len(child["reload_s"]),
                "swap_s": median(child["reload_s"]) if child["reload_s"] else None}

    def child_spans(self, first_id: int) -> list[tuple]:
        """The child's spans, with ids moved past ``first_id`` to stay unique."""
        def shift(x):
            return None if x is None else x + first_id
        return [(shift(sid), name, start, end, shift(parent), rid, tag)
                for sid, name, start, end, parent, rid, tag in read_spans(self.last["spans"])]

    def layer_metrics(self, spans) -> dict:
        """Per-call server figures of the last (traced) run, from the child's spans."""
        run = self.last["run"]
        busy = np.zeros(len(self.requests))
        per_op: dict[str, list] = {op: [] for op, _ in MIX}
        decode, encode = [], []
        for _, name, start, end, _, rid, tag in spans:
            if rid is None or not 0 <= rid < len(busy):
                continue
            if name == "servicing.QueryService.handle":
                per_op.setdefault(tag, []).append(end - start)
            elif name == "servicing.decode":
                decode.append(end - start)
            elif name == "servicing.encode":
                encode.append(end - start)
            else:
                continue
            busy[rid] += end - start
        metrics = {}
        for op, durations in per_op.items():
            metrics[f"servicing.handle_ms.{op}"] = 1e3 * median(durations) if durations else 0.0
            metrics[f"servicing.handle_calls.{op}"] = float(len(durations))
        metrics["servicing.decode_ms"] = 1e3 * median(decode) if decode else 0.0
        metrics["servicing.encode_ms"] = 1e3 * median(encode) if encode else 0.0
        metrics["servicing.encode_share"] = sum(encode) / busy.sum() if busy.sum() else 0.0
        ok = ~np.isnan(run["recv"])
        wait = run["recv"][ok] - run["sent"][ok] - busy[ok]
        metrics["serve.wait_ms"] = 1e3 * float(np.median(wait)) if ok.any() else 0.0
        metrics["serve.sent"] = float(np.sum(~np.isnan(run["sent"])))
        metrics["serve.ok"] = float(len(self.requests) - self.last.get("failed", 0))
        metrics["serve.failed"] = float(self.last.get("failed", 0))
        metrics["serve.unanswered"] = float(np.sum(~ok))
        metrics["serve.response_bytes"] = float(
            sum(len(r) for r in run["responses"] if r is not None))
        return metrics
