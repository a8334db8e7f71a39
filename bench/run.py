"""pkgm benchmark: one command per workload and seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and bench/README.md for why each exists):
  kg_pipeline  train -> keyrel -> export-services -> eval-lp -> eval-rel ->
               serve on a 2,000-entity planted KG (reference training setting)
  recsys       train -> keyrel -> export-services -> recsys on the
               preference dataset (many tiny training steps)

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 a traced run reports the per-layer metrics and the tracing
overhead. The line before it holds the environment and named per-stage
figures. Outputs are checked after the timed window; any mismatch makes
the command exit 1. Run files go to .bench_runs/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import RUNS_DIR, environment, fresh_dir, host_loop_ms, import_pkgm

WORKLOADS = ("kg_pipeline", "recsys")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, scale: str = "full") -> int:
    args = parse_args(argv)
    import_pkgm()
    # one evaluation worker, as in the README pass
    os.environ.pop("PKGM_THREADS", None)
    env = environment()
    workdir = fresh_dir(RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{scale}")

    import offline

    res = offline.run(args.workload, args.seed, args.seconds, bool(args.trace), scale, workdir)

    env["loadavg_end"] = list(os.getloadavg())
    env["host_loop_ms_end"] = host_loop_ms()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": scale, "env": env, "detail": res.detail,
              "problems": res.problems, "result": res.final_line()}
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({key: record[key] for key in ("workload", "seed", "env", "detail",
                                                    "problems")}))
    for problem in res.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(record["result"]), flush=True)
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
