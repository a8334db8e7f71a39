"""Query server child for the serve step of the kg_pipeline pass.

Built only from public pkgm calls: ``model.load_checkpoint``,
``keyrel.read_keyrel_tsv``, ``servicing.QueryService``, ``servicing.serve``
and ``QueryService.load_snapshot``.

Prints ``{"port": N}`` once listening. Each ``swap`` line on stdin loads
the checkpoint again into a fresh snapshot, timing the swap; any other
line, or the end of stdin, stops the server. It then prints one JSON line
with the wall time of every swap and, with ``--trace 1``, writes its
spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
import time

from harness import Tracer, import_pkgm

import_pkgm()
from pkgm import keyrel, model, servicing  # noqa: E402


def load(ckpt: str, keyrel_path: str):
    params, entity_vocab, relation_vocab = model.load_checkpoint(ckpt)
    table = keyrel.read_keyrel_tsv(keyrel_path, entity_vocab, relation_vocab)
    return params, table, entity_vocab, relation_vocab


class TimedJson:
    """Stands in for the ``json`` name inside pkgm.servicing and times it."""

    def __init__(self, tracer: Tracer, real):
        self._tracer = tracer
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def loads(self, *args, **kwargs):
        start = time.perf_counter()
        obj = self._real.loads(*args, **kwargs)
        rid = obj.get("rid") if isinstance(obj, dict) else None
        self._tracer.add_span("servicing.decode", start, time.perf_counter(), rid)
        return obj

    def dumps(self, *args, **kwargs):
        start = time.perf_counter()
        text = self._real.dumps(*args, **kwargs)
        self._tracer.add_span("servicing.encode", start, time.perf_counter(),
                              self._tracer.current_rid)
        return text


def _request_meta(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    if isinstance(request, dict):
        return request.get("rid"), request.get("op")
    return None, None


def install_tracing(tracer: Tracer) -> None:
    tracer.wrap(servicing.QueryService, "handle", "servicing.QueryService.handle",
                meta=_request_meta)
    tracer.wrap(servicing.QueryService, "load_snapshot", "servicing.QueryService.load_snapshot")
    tracer.wrap(model, "load_checkpoint", "model.load_checkpoint")
    tracer.wrap(keyrel, "read_keyrel_tsv", "keyrel.read_keyrel_tsv")
    tracer.replace(servicing, "json", "servicing.json", lambda real: TimedJson(tracer, real))


class Reloader:
    """Swaps in a freshly loaded snapshot of the checkpoint, timing each swap."""

    def __init__(self, service, ckpt: str, keyrel_path: str, tracer: Tracer | None):
        self.service = service
        self.ckpt = ckpt
        self.keyrel_path = keyrel_path
        self.tracer = tracer
        self.times: list[float] = []

    def reload(self) -> None:
        start = time.perf_counter()
        with self.tracer.span("serve.reload") if self.tracer else contextlib.nullcontext():
            self.service.load_snapshot(*load(self.ckpt, self.keyrel_path))
        self.times.append(time.perf_counter() - start)


async def serve_until_stopped(service, reloader: Reloader) -> None:
    """Serve until stdin ends or sends anything but ``swap``.

    Each ``swap`` line reloads the snapshot in a worker thread while the
    event loop keeps answering requests.
    """
    server = await servicing.serve(service, host="127.0.0.1", port=0)
    print(json.dumps({"port": server.sockets[0].getsockname()[1]}), flush=True)
    loop = asyncio.get_running_loop()
    while (await loop.run_in_executor(None, sys.stdin.readline)).strip() == "swap":
        await loop.run_in_executor(None, reloader.reload)
    server.close()
    await server.wait_closed()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--keyrel", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    service = servicing.QueryService(*load(args.checkpoint, args.keyrel))
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_tracing(tracer)
    reloader = Reloader(service, args.checkpoint, args.keyrel, tracer)
    asyncio.run(serve_until_stopped(service, reloader))
    absent = []
    if tracer:
        tracer.restore()
        tracer.write(args.spans)
        absent = tracer.absent
    print(json.dumps({"reload_s": reloader.times, "absent": absent}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
