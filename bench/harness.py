"""Shared pieces of the benchmark: statistics, environment, spans, results.

The tracer wraps public attributes of the ``pkgm`` modules from outside
(no edit to the package). Each wrapped call records a span with a name,
start, end, parent span and an optional request id; spans stay in memory
and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".bench_runs"
# set-up is repeated and its median reported, so one slow start does not set it
SETUP_REPEATS = 5


def import_pkgm():
    """Import pkgm from this checkout's ``src``, never from site-packages."""
    src = ROOT / "src"
    if not (src / "pkgm" / "__init__.py").is_file():
        raise SystemExit(f"bench: no pkgm sources under {src}; run from a repository checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import pkgm

    if Path(pkgm.__file__).resolve().parent != (src / "pkgm").resolve():
        raise SystemExit(f"bench: imported pkgm from {pkgm.__file__}, expected {src / 'pkgm'}")
    return pkgm


# --- statistics ---------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


# A shared host can slow down for seconds to minutes at a time (on a
# 2-vCPU Xeon virtual machine a fixed Python loop took 111 to 200 ms within
# minutes), so each timed figure is read at the fast end of a run's passes.
# A slower program slows every pass, the fast ones too.
FAST_END_PERCENT = 10


def fast_time(values) -> float:
    return percentile(values, FAST_END_PERCENT)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- environment ----------------------------------------------------------

def _git_revision() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _blas_config() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {name: deps[name].get("openblas configuration") or deps[name].get("name")
                for name in ("blas", "lapack") if name in deps}
    except (TypeError, KeyError):
        return {"unavailable": True}


def host_loop_ms() -> float:
    """Time of a fixed pure-Python loop, to show how fast the host ran."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i ^ 3
    return 1e3 * (time.perf_counter() - start)


def environment() -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_config(),
        "git_revision": _git_revision(),
        "loadavg_start": list(os.getloadavg()),
        "host_loop_ms_start": host_loop_ms(),
    }


# --- results --------------------------------------------------------------

@dataclass
class Result:
    """What one workload run measured and checked.

    ``metrics`` maps a metric name to ``(value, unit)``; ``detail`` holds
    the named per-stage figures and sample counts printed beside them.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def final_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# --- tracing --------------------------------------------------------------

class Tracer:
    """Span recorder that wraps module or class attributes in place."""

    def __init__(self):
        # (span id, name, start, end, parent id, request id, tag)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_rid(self):
        return getattr(self._local, "rid", None)

    @current_rid.setter
    def current_rid(self, rid) -> None:
        self._local.rid = rid

    @contextlib.contextmanager
    def span(self, name: str, rid=None, tag=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, rid, tag))

    def add_span(self, name: str, start: float, end: float, rid=None, tag=None) -> None:
        """Record a leaf span measured by the caller."""
        stack = self._stack()
        self.spans.append((next(self._ids), name, start, end,
                           stack[-1] if stack else None, rid, tag))

    def replace(self, owner, attr: str, name: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)`` until ``restore``.

        A missing attribute is reported in ``absent`` instead of failing.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str, count=None, meta=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``count(args, kwargs, result)`` returns ``{counter: amount}`` to add;
        ``meta(args, kwargs)`` returns ``(request id, tag)`` for the span.
        """
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                rid, tag = meta(args, kwargs) if meta else (None, None)
                if rid is not None:
                    tracer.current_rid = rid
                with tracer.span(name, rid, tag):
                    result = original(*args, **kwargs)
                if count is not None:
                    try:
                        tracer.counts.update(count(args, kwargs, result))
                    except (TypeError, AttributeError, IndexError, KeyError, OSError):
                        if f"{name} (count)" not in tracer.absent:
                            tracer.absent.append(f"{name} (count)")
                return result

            return wrapper

        self.replace(owner, attr, name, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] in own:
            own[s[4]] -= s[3] - s[2]
    return own


def ancestor_names(spans) -> dict[int, list[str]]:
    by_id = {s[0]: s for s in spans}
    out = {}
    for s in spans:
        names, parent = [], s[4]
        while parent in by_id:
            names.append(by_id[parent][1])
            parent = by_id[parent][4]
        out[s[0]] = names
    return out


# --- per-layer metrics ----------------------------------------------------

CLI_STAGES = ("train", "keyrel", "export_services", "eval_lp", "eval_rel", "recsys")

# name -> (unit, better); the same table is declared in BENCHMARK.json
PER_LAYER = {
    **{f"cli.{stage}_s": ("s", "lower") for stage in CLI_STAGES},
    "kgstore.load_triples_s": ("s", "lower"),
    "kgstore.triples_loaded": ("count", "higher"),
    "trainer.train_s": ("s", "lower"),
    "trainer.train_self_s": ("s", "lower"),
    "trainer.sample_negative_s": ("s", "lower"),
    "trainer.sample_negative_calls": ("count", "lower"),
    "optim.adam_step_s.trainer": ("s", "lower"),
    "optim.adam_steps.trainer": ("count", "lower"),
    "optim.adam_step_s.downstream": ("s", "lower"),
    "optim.adam_steps.downstream": ("count", "lower"),
    "model.save_checkpoint_s": ("s", "lower"),
    "model.load_checkpoint_s": ("s", "lower"),
    "model.load_checkpoint_calls": ("count", "lower"),
    "model.checkpoint_bytes": ("B", "lower"),
    "evaluation.link_prediction_s": ("s", "lower"),
    "evaluation.candidates_scored": ("count", "higher"),
    "evaluation.existence_prediction_s": ("s", "lower"),
    "evaluation.pairs_scored": ("count", "higher"),
    "keyrel.select_s": ("s", "lower"),
    "keyrel.read_tsv_s": ("s", "lower"),
    "keyrel.rows": ("count", "higher"),
    "servicing.build_bundle_s": ("s", "lower"),
    "servicing.write_services_s": ("s", "lower"),
    "servicing.read_services_s": ("s", "lower"),
    "servicing.export_bytes": ("B", "lower"),
    **{f"servicing.handle_ms.{op}": ("ms", "lower") for op in ("triple", "relation", "bundle")},
    **{f"servicing.handle_calls.{op}": ("count", "higher")
       for op in ("triple", "relation", "bundle")},
    "servicing.decode_ms": ("ms", "lower"),
    "servicing.encode_ms": ("ms", "lower"),
    "servicing.encode_share": ("1", "lower"),
    "servicing.load_snapshot_s": ("s", "lower"),
    "serve.stage_s": ("s", "lower"),
    "serve.wait_ms": ("ms", "lower"),
    "serve.sent": ("count", "higher"),
    "serve.ok": ("count", "higher"),
    "serve.failed": ("count", "lower"),
    "serve.unanswered": ("count", "lower"),
    "serve.response_bytes": ("B", "lower"),
    "downstream.service_table_s": ("s", "lower"),
    "downstream.train_recommender_s": ("s", "lower"),
    "downstream.train_self_s": ("s", "lower"),
    "downstream.evaluate_s": ("s", "lower"),
    "downstream.examples": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# span name -> per-layer metric holding its total seconds per job
_TOTAL_SECONDS = {
    **{f"cli.{stage}": f"cli.{stage}_s" for stage in CLI_STAGES},
    "serve.stage": "serve.stage_s",
    "kgstore.load_triples": "kgstore.load_triples_s",
    "trainer.train": "trainer.train_s",
    "trainer.sample_negative": "trainer.sample_negative_s",
    "model.save_checkpoint": "model.save_checkpoint_s",
    "model.load_checkpoint": "model.load_checkpoint_s",
    "evaluation.link_prediction": "evaluation.link_prediction_s",
    "evaluation.existence_prediction": "evaluation.existence_prediction_s",
    "keyrel.select_key_relations": "keyrel.select_s",
    "keyrel.read_keyrel_tsv": "keyrel.read_tsv_s",
    "servicing.build_bundle": "servicing.build_bundle_s",
    "servicing.write_services": "servicing.write_services_s",
    "servicing.read_services": "servicing.read_services_s",
    "servicing.QueryService.load_snapshot": "servicing.load_snapshot_s",
    "downstream.service_table_for_items": "downstream.service_table_s",
    "downstream.train_recommender": "downstream.train_recommender_s",
    "downstream.evaluate_leave_one_out": "downstream.evaluate_s",
}
_CALLS = {
    "trainer.sample_negative": "trainer.sample_negative_calls",
    "model.load_checkpoint": "model.load_checkpoint_calls",
}
_SELF_SECONDS = {
    "trainer.train": "trainer.train_self_s",
    "downstream.train_recommender": "downstream.train_self_s",
}
_CALLERS = {"trainer.train": "trainer", "downstream.train_recommender": "downstream"}


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer totals for one job; layers that did no work read 0."""
    out = {name: 0.0 for name in PER_LAYER}
    own = self_times(spans)
    ancestors = ancestor_names(spans)
    for sid, name, start, end, _, _, _ in spans:
        if name in _TOTAL_SECONDS:
            out[_TOTAL_SECONDS[name]] += end - start
        if name in _CALLS:
            out[_CALLS[name]] += 1
        if name in _SELF_SECONDS:
            out[_SELF_SECONDS[name]] += own[sid]
        if name == "optim.Adam.step":
            caller = next((_CALLERS[a] for a in ancestors[sid] if a in _CALLERS), None)
            if caller:
                out[f"optim.adam_step_s.{caller}"] += end - start
                out[f"optim.adam_steps.{caller}"] += 1
    for name, amount in counts.items():
        if name in out:
            out[name] += amount
    out["trace.spans"] = float(len(spans))
    return out


def _file_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size


def wrap_offline_layers(tracer: Tracer, pkgm_modules) -> None:
    """Wrap the public calls the CLI passes make into each pkgm layer."""
    kgstore, trainer, optim, model, evaluation, keyrel, servicing, downstream = pkgm_modules
    tracer.wrap(kgstore, "load_triples", "kgstore.load_triples",
                count=lambda a, k, r: {"kgstore.triples_loaded": len(r.triples)})
    tracer.wrap(trainer, "train", "trainer.train")
    tracer.wrap(trainer, "sample_negative", "trainer.sample_negative")
    tracer.wrap(optim.Adam, "step", "optim.Adam.step")
    tracer.wrap(model, "save_checkpoint", "model.save_checkpoint",
                count=lambda a, k, r: {"model.checkpoint_bytes": _file_bytes(r)})
    tracer.wrap(model, "load_checkpoint", "model.load_checkpoint")
    tracer.wrap(evaluation, "link_prediction", "evaluation.link_prediction",
                count=lambda a, k, r: {"evaluation.candidates_scored":
                                       len(a[2]) * a[0].n_entities})
    tracer.wrap(evaluation, "existence_prediction", "evaluation.existence_prediction",
                count=lambda a, k, r: {"evaluation.pairs_scored": len(a[2])})
    tracer.wrap(keyrel, "select_key_relations", "keyrel.select_key_relations",
                count=lambda a, k, r: {"keyrel.rows": len(r.rows)})
    tracer.wrap(keyrel, "read_keyrel_tsv", "keyrel.read_keyrel_tsv")
    tracer.wrap(servicing, "build_bundle", "servicing.build_bundle")
    tracer.wrap(servicing, "write_services", "servicing.write_services",
                count=lambda a, k, r: {"servicing.export_bytes": _file_bytes(a[0])})
    tracer.wrap(servicing, "read_services", "servicing.read_services")
    tracer.wrap(downstream, "service_table_for_items", "downstream.service_table_for_items")
    tracer.wrap(downstream, "train_recommender", "downstream.train_recommender",
                count=lambda a, k, r: {"downstream.examples":
                                       a[2].epochs * len(a[0].interactions)
                                       * (1 + a[2].neg_ratio)})
    tracer.wrap(downstream, "evaluate_leave_one_out", "downstream.evaluate_leave_one_out")
