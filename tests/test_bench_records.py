"""The committed perf trajectory: BENCH_<workload>.json at the repository root.

Each entry is copied from bench/run.py output lines: the end-to-end medians
of untraced runs with their quartiles, and the per-stage split of one
traced run. revision names the commit the measured tree was based on;
change is null for that commit itself and otherwise the subject of the
change measured on top of it.
"""

import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("kg_pipeline", "recsys")
END_TO_END = ("setup_s", "wait_s", "tail_s", "work_per_s", "refresh_s", "peak_rss_mb")
ENTRY_KEYS = {"revision", "change", "seeds", "cpu_count", "host_loop_ms", "end_to_end", "traced"}


def git_revisions() -> set[str]:
    try:
        log = subprocess.run(["git", "-C", str(ROOT), "log", "--format=%H"],
                             capture_output=True, text=True, check=True, timeout=30)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    return set(log.stdout.split())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_records_parse_and_name_known_revisions(workload):
    doc = json.loads((ROOT / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    assert doc["workload"] == workload
    assert doc["entries"]
    revisions = git_revisions()
    for entry in doc["entries"]:
        assert ENTRY_KEYS <= set(entry), ENTRY_KEYS - set(entry)
        assert entry["revision"] in revisions
        assert entry["seeds"] and entry["cpu_count"] >= 1
        for name in END_TO_END:
            figure = entry["end_to_end"][name]
            assert figure["q1"] <= figure["median"] <= figure["q3"]
            assert figure["iqr"] == pytest.approx(figure["q3"] - figure["q1"])
        assert entry["traced"]["stage_s"]
