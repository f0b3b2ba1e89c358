"""Every committed BENCH_<tag>.json at the repository root is complete:
machine facts, all benchmark workloads, parent and change medians of
every end-to-end metric, and correct runs only."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_some_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_is_complete(path):
    record = json.loads(path.read_text())
    machine = record["machine"]
    assert isinstance(machine["nproc"], int) and machine["nproc"] > 0
    assert machine["python"]
    workloads = record["workloads"]
    assert set(workloads) >= {w["name"] for w in BENCHMARK["workloads"]}
    for name, w in workloads.items():
        assert w["pairs"] > 0 and len(w["seeds"]) == w["pairs"], name
        assert w["all_correct"] is True, name
        assert w["failed"] == 0, name
        for metric in BENCHMARK["end_to_end"]:
            m = w["metrics"][metric["name"]]
            for side in ("parent", "change"):
                assert isinstance(m[side]["median"], (int, float)), \
                    (name, metric["name"], side)
