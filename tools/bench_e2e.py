'''End-to-end runs of the benchmark, wavebench/run.py, on this checkout,
optionally paired with an earlier revision.  Writes one JSON file.

    python3 tools/bench_e2e.py [--workloads W ...] [--seed 601] [--runs 5]
                               [--seconds 10] [--against REV]
                               [--out BENCH_e2e.json]

Each run is `wavebench/run.py --workload W --seed s --seconds S --trace 0`
in a fresh process at the root of a checkout; the last line of its
output is its JSON record.  The seeds are seed .. seed + runs - 1.
Without --against, this checkout ("head") runs once per seed.  With
--against REV, REV is extracted by `git archive` into a temporary
directory ("base"), and at each seed the two checkouts run one after the
other, base first at even pair indices and head first at odd ones.

Per workload the file holds every run (or pair) and, per checkout, the
median and quartiles of each metric.  With --against it also holds, per
metric, the pairs head wins (better in the direction BENCHMARK.json
gives), the change of the medians in percent of base's, and that change
in units of base's quartile distance.  `all_correct` says whether every
run passed its checks with no failed operation.
'''

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("circuit-spectrum", "shot-sweep", "grid-map", "compile-check")


def directions():
    '''metric name -> "lower" or "higher", from BENCHMARK.json.'''
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_once(root, workload, seed, seconds):
    '''The JSON record of one wavebench/run.py process in `root`.'''
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "wavebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} at seed {seed} in {root} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": record["correct"] and record["failed"] == 0,
            "metrics": {name: m["value"]
                        for name, m in record["metrics"].items()}}


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, better):
    '''Per checkout, quartiles of every metric; for pairs, the wins of
    head and the change of the medians.'''
    tags = [t for t in ("base", "head") if t in runs[0]]
    out = {"runs": runs,
           "all_correct": all(r[t]["correct"] for r in runs for t in tags)}
    for tag in tags:
        out[tag] = {name: quartiles([r[tag]["metrics"][name] for r in runs])
                    for name in runs[0][tag]["metrics"]}
    if tags == ["base", "head"]:
        out["wins"], out["change_pct"], out["change_iqr"] = {}, {}, {}
        for name, base in out["base"].items():
            sign = 1 if better.get(name, "lower") == "lower" else -1
            out["wins"][name] = sum(
                sign * (r["head"]["metrics"][name]
                        - r["base"]["metrics"][name]) < 0 for r in runs)
            gap = out["head"][name]["median"] - base["median"]
            out["change_pct"][name] = (100 * gap / base["median"]
                                       if base["median"] else None)
            spread = base["q3"] - base["q1"]
            out["change_iqr"][name] = gap / spread if spread else None
    return out


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          check=True).stdout


def src_lines(root):
    return sum(len(f.read_text().splitlines())
               for f in (Path(root) / "src" / "wavecirc").glob("*.py"))


def commit():
    try:
        return git("describe", "--always", "--dirty",
                   "--abbrev=40").decode().strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def bench(args, base_root):
    better = directions()
    report = {}
    for workload in args.workloads:
        runs = []
        for k in range(args.runs):
            seed = args.seed + k
            order = ["head"] if base_root is None \
                else (["base", "head"] if k % 2 == 0 else ["head", "base"])
            run = {"seed": seed, "first": order[0]}
            for tag in order:
                root = ROOT if tag == "head" else base_root
                run[tag] = run_once(root, workload, seed, args.seconds)
            runs.append(run)
            print(workload, json.dumps(run), flush=True)
        report[workload] = summarize(runs, better)
    return report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                   default=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=601)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--against", metavar="REV")
    p.add_argument("--out", default="BENCH_e2e.json")
    args = p.parse_args(argv)
    report = {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "src_lines": src_lines(ROOT),
        "seconds": args.seconds,
    }
    with tempfile.TemporaryDirectory() as tmp:
        base_root = None
        if args.against:
            base_root = Path(tmp)
            report["against"] = git("rev-parse",
                                    args.against).decode().strip()
            archive = git("archive", "--format=tar", args.against)
            subprocess.run(["tar", "-x", "-C", tmp], input=archive,
                           check=True)
            report["against_src_lines"] = src_lines(base_root)
        report["workloads"] = bench(args, base_root)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for workload, entry in report["workloads"].items():
        print(workload, "all_correct", entry["all_correct"],
              json.dumps(entry.get("change_pct", entry["head"])))


if __name__ == "__main__":
    main()
