'''tools/bench_startup.py runs end to end at a tiny size and writes its
report.'''

import json
import subprocess
import sys
from pathlib import Path

from wavecirc.givens import BAND_RATIO, FORK_MIN_DIM

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_startup.py"


def test_writes_report(tmp_path):
    out = tmp_path / "BENCH_startup.json"
    subprocess.run([sys.executable, str(TOOL), "--processes", "2",
                    "--n-qubits", "3", "--repeats", "1", "--out", str(out)],
                   check=True, capture_output=True, timeout=300)
    report = json.loads(out.read_text())
    assert set(report["import"]) == {"cli", "cli+deferred", "main",
                                     "main:threaded"}
    assert set(report["loader"]) == {"flapack", "scipy.linalg"}
    for row in report["import"].values():
        assert set(row) == {"wall_s", "cpu_s", "peak_rss_mb", "threads"}
    for row in [*report["import"].values(), *report["loader"].values()]:
        for metric in row.values():
            assert 0 < metric["q1"] <= metric["median"] <= metric["q3"]
    for row in report["loader"].values():
        assert set(row) == {"wall_s", "cpu_s", "peak_rss_mb", "in_process_s"}
        assert row["in_process_s"]["q3"] < row["wall_s"]["q1"]
    # python -m wavecirc starts no BLAS pool thread
    assert report["import"]["main"]["threads"]["q3"] == 1
    csv = report["hamiltonian_csv"]
    assert csv["n_qubits"] == 3 and csv["byte_identical"]
    # 8 rows of 8 '%.18e' fields, 24 or 25 characters each
    assert 8 * 8 * 25 <= csv["bytes"] <= 8 * 8 * 26
    assert csv["write_matrix_csv_s"] > 0 and csv["savetxt_s"] > 0
    spec = report["grid_spectrum"]
    assert (spec["n_pad"], spec["fft_length"]) == (16004, 8100)
    assert spec["grid_spectrum_s"] > 0 and spec["reference_s"] > 0
    assert spec["max_power_diff_over_max"] <= 1e-14
    assert spec["peaks"] >= 1 and spec["max_peak_shift_cm1"] <= 1e-9
    fit = report["spin_fit"]
    assert (fit["n_qubits"], fit["block_dim"]) == (3, 4)
    assert fit["closed_form_s"] > 0 and fit["lstsq_s"] > 0
    assert fit["max_j_diff_over_max"] <= 1e-14
    assert fit["max_residual_diff_over_norm"] <= 1e-14
    energies = report["build_energies"]
    assert energies["n_qubits"] == 3 and energies["block_form"]
    assert energies["eigenvalues_s"] > 0 and energies["eigensystem_s"] > 0
    assert energies["max_energy_diff_over_max"] <= 1e-14
    band = report["band_energies"]
    assert (band["n"], band["band_ratio"]) == (4, BAND_RATIO)
    assert band["rule_max_kd"] == 4 // BAND_RATIO
    assert set(band["kd"]) == {"0", "1", "2"}
    for row in [*band["kd"].values(), band["daf_block"]]:
        assert row["band_s"] > 0 and row["dense_s"] > 0
    assert band["daf_block"]["kd"] == 3
    assert band["crossover_kd"] in (None, 0, 1, 2)
    parity = report["parity_blocks"]
    assert parity["fork_min_dim"] == FORK_MIN_DIM
    assert set(parity["block_dims"]) == {"2", "4"}
    for row in parity["block_dims"].values():
        assert set(row) == {f"{name}_{way}_s"
                            for name in ("eigensolve", "eigenvalues")
                            for way in ("in_turn", "forked")}
        assert all(t > 0 for t in row.values())
    assert parity["crossover_dim"] in (None, 2, 4)
    assert report["numpy"] and report["scipy"]
    assert report["src_lines"] > 0
