'''tools/bench_e2e.py runs the benchmark once on shot-sweep and writes
its report; its pair summary counts wins by each metric's direction.'''

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_e2e.py"


def test_writes_report(tmp_path):
    out = tmp_path / "BENCH_e2e.json"
    subprocess.run([sys.executable, str(TOOL), "--workloads", "shot-sweep",
                    "--runs", "1", "--seconds", "1", "--out", str(out)],
                   check=True, capture_output=True, timeout=300)
    report = json.loads(out.read_text())
    entry = report["workloads"]["shot-sweep"]
    assert entry["all_correct"]
    assert [r["seed"] for r in entry["runs"]] == [601]
    for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
        q = entry["head"][name]
        assert 0 < q["q1"] <= q["median"] <= q["q3"]
    assert "wins" not in entry
    assert report["numpy"] and report["scipy"] and report["cpus"] > 0
    assert report["src_lines"] > 0


def test_pair_summary():
    spec = importlib.util.spec_from_file_location("bench_e2e", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def run(base, head):
        return {"base": {"correct": True, "metrics": {"s": base, "r": base}},
                "head": {"correct": True, "metrics": {"s": head, "r": head}}}
    runs = [run(2.0, 1.0), run(3.0, 2.0), run(4.0, 5.0), run(5.0, 4.0)]
    out = tool.summarize(runs, {"s": "lower", "r": "higher"})
    assert out["wins"] == {"s": 3, "r": 1}
    assert out["base"]["s"] == {"median": 3.5, "q1": 2.75, "q3": 4.25}
    assert out["change_pct"]["s"] == 100 * (3.0 - 3.5) / 3.5
    assert out["change_iqr"]["s"] == (3.0 - 3.5) / 1.5
    assert out["all_correct"]
