'''Benchmark of the wavecirc CLI.

    python3 wavebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
src/ directory.  With --trace 0 every command runs as a user runs it, as
`python -m wavecirc ...` in a fresh process, and the run reports the
end-to-end metrics: setup_s, wall_s, cpu_s and peak_rss_mb.  With
--trace 1 the same commands run in one process under the span tracer of
tracing.py, and the run reports the per-layer metrics.  Every output is
checked (workloads.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
'''

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# A fresh interpreter: import wavecirc, load and validate the config,
# build the grid Hamiltonian.  Every CLI command pays this first.
SETUP_PROBE = '''import sys
from wavecirc.cli import Pipeline
from wavecirc.config import load_config
Pipeline(load_config(sys.argv[1]))
'''
SETUP_REPEATS = 3


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def run_process(argv, log_path):
    '''Run argv to completion; return (exit code, wall s, cpu s,
    peak RSS MB) from the child's own resource usage.'''
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:      # interrupted: stop the child, then go
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


def command_argv(cmd, config_path, out):
    return cmd.argv[:1] + ["--config", str(config_path), "--out", str(out)] \
        + cmd.argv[1:]


class Tally:
    '''Operations attempted and failed, and the problems found.'''

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = False      # a check failed on an output
        self.problems = []

    def record(self, label, code, problems):
        self.attempted += 1
        self.wrong = self.wrong or bool(problems)
        if code != 0:
            problems = [f"exit code {code}"] + problems
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def measure_setup(work, config_path):
    walls = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = run_process(
            [sys.executable, "-c", SETUP_PROBE, str(config_path)],
            work / "setup.log")
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}; see setup.log")
        walls.append(wall)
    return statistics.median(walls)


def run_round(wl, work, config_path, index, tally):
    '''One pass over the workload's commands, timed; then the checks.'''
    wall = cpu = peak = 0.0
    outs = []
    for i, cmd in enumerate(wl.commands):
        out = work / f"round{index}" / f"{i}-{cmd.argv[0]}"
        argv = [sys.executable, "-m", "wavecirc"] \
            + command_argv(cmd, config_path, out)
        code, w, c, rss = run_process(argv, work / "commands.log")
        wall, cpu, peak = wall + w, cpu + c, max(peak, rss)
        outs.append((cmd, out, code))
    for cmd, out, code in outs:
        tally.record(" ".join(cmd.argv), code,
                     cmd.check(str(out)) if code == 0 else [])
    shutil.rmtree(work / f"round{index}", ignore_errors=True)
    return wall, cpu, peak


def end_to_end(wl, work, config_path, seconds, tally):
    setup = measure_setup(work, config_path)
    rounds = []
    # whole rounds: at least one, then more while the next still fits
    while not rounds or sum(r[0] for r in rounds) \
            + max(r[0] for r in rounds) <= seconds:
        rounds.append(run_round(wl, work, config_path, len(rounds), tally))
    wall, cpu, peak = (statistics.median(col) for col in zip(*rounds))
    return {"setup_s": (setup, "s"), "wall_s": (wall, "s"),
            "cpu_s": (cpu, "s"), "peak_rss_mb": (peak, "MB")}


def traced(wl, work, config_path, tally):
    '''The workload once untraced and once traced, in one process.'''
    passes = {}
    for tag in ("untraced", "traced"):
        passes[tag] = [
            (cmd, work / tag / f"{i}-{cmd.argv[0]}")
            for i, cmd in enumerate(wl.commands)]
    plan = {tag: [command_argv(cmd, config_path, out) for cmd, out in cmds]
            for tag, cmds in passes.items()}
    traces = ROOT / ".wavebench" / "traces"
    traces.mkdir(exist_ok=True)
    plan["spans"] = str(traces / f"{work.name}.json")
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, _, _, _ = run_process(
        [sys.executable, str(HERE / "tracing.py"), str(plan_path)],
        work / "trace.log")
    if code != 0:
        raise RuntimeError(f"traced run exited {code}; see trace.log")
    with open(plan["spans"]) as fh:
        record = json.load(fh)
    for tag, cmds in passes.items():
        for (cmd, out), rc in zip(cmds, record["exit_codes"][tag]):
            check = cmd.check(str(out)) if rc == 0 and tag == "traced" \
                else []
            tally.record(f"{tag} {' '.join(cmd.argv)}", rc, check)
    print(f"spans: {plan['spans']}")
    written = sum(f.stat().st_size for _, out in passes["traced"]
                  if out.exists() for f in out.iterdir())
    return tracing.layer_metrics(record, written)


def show_logs(work):
    for log in sorted(work.glob("*.log")):
        sys.stderr.write(f"--- {log.name}\n{log.read_text()[-4000:]}")


def stop(signum, frame):
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "wavecirc" / "__main__.py").is_file():
        print(f"error: no wavecirc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    work = ROOT / ".wavebench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(wl.config, indent=1))
        if args.trace:
            metrics = traced(wl, work, config_path, tally)
        else:
            metrics = end_to_end(wl, work, config_path, args.seconds, tally)
        for p in tally.problems:
            print(f"FAILED {p}", file=sys.stderr)
        if tally.problems:
            show_logs(work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        show_logs(work)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
