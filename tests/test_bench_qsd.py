'''tools/bench_qsd.py runs end to end at a tiny size and writes its
report.'''

import json
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_qsd.py"


def test_writes_report(tmp_path):
    out = tmp_path / "BENCH_qsd.json"
    # the pools' thread counts are read, not only the variable
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, str(TOOL), "--nodes", "2", "--repeats",
                    "1", "--steps", "2", "--out", str(out)],
                   check=True, capture_output=True, timeout=300, env=env)
    report = json.loads(out.read_text())
    assert report["openblas_num_threads"] == "1"
    pools = report["openblas_pool_threads"]
    assert pools == [1] * len(pools)
    if os.path.exists("/proc/self/maps"):
        assert len(pools) >= 2      # numpy's and scipy's
    assert set(report["us_per_node"]) == {"8x8", "16x16", "32x32"}
    for row in report["us_per_node"].values():
        for kind in ("csd", "demultiplex"):
            assert row[f"{kind}_batched_us"] > 0
            assert row[f"{kind}_lapack_us"] > 0
            assert 0 <= row[f"{kind}_fallback_nodes"] <= 2
    # 2 steps of 2 blocks, 21 CSD nodes of 8x8 and larger per 5-qubit
    # circuit and two demultiplexes each
    fallbacks = report["double_well_n6_fallbacks"]
    assert fallbacks["csd"]["nodes"] == 2 * 2 * 21
    assert fallbacks["demultiplex"]["nodes"] == 2 * 2 * 42
    for kind in ("csd", "demultiplex"):
        assert 0 <= fallbacks[kind]["fraction"] <= 1
    for n in (5, 7):
        costs = report["ms_per_circuit"][f"{n}_qubits"]
        assert set(costs) == {"circuit_matrix_ms", "to_qasm_ms",
                              "run_circuit_ms"}
        assert all(t > 0 for t in costs.values())
    assert report["numpy"] and report["scipy"]
    assert report["src_lines"] > 0
