'''Span tracer for one process running wavecirc commands in-process.

    python wavebench/tracing.py PLAN_JSON

The plan names two lists of `wavecirc` argv lists and a spans file.  The
first list runs through `wavecirc.cli.main` untraced; then every public
function of every wavecirc module is wrapped, in every module that
binds it (where it is defined and where it was imported by name), and
the second list runs traced.  Each call of a wrapped function records a
span (name, start, end, parent).  Spans stay in memory and are written
to the spans file at the end, with the wall time of both passes.

One rule keeps layer times meaningful: a call into the same module made
from inside a function that has a metric of its own opens no span, so
its time is that function's time (daf_kinetic is part of
build_hamiltonian, the run_circuit inside circuit_matrix is part of
circuit_matrix).  `layer_metrics` turns the spans into the per-layer
metrics; it needs no wavecirc import.
'''

import dataclasses
import functools
import hashlib
import inspect
import json
import os
import sys
import time
import traceback
import weakref

import numpy as np

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "config.load_config_s": ("s", "lower"),
    "grid.build_hamiltonian_s": ("s", "lower"),
    "grid.eigensolve_s": ("s", "lower"),
    "grid.eigensolve_calls": ("count", "lower"),
    "grid.eigensolve_ratio": ("ratio", "higher"),
    "givens.block_transform_s": ("s", "lower"),
    "ising.map_system_s": ("s", "lower"),
    "qsd.qsd_compile_s": ("s", "lower"),
    "qsd.qsd_compile_calls": ("count", "lower"),
    "qsd.qsd_compile_ratio": ("ratio", "higher"),
    "qsd.gates_emitted": ("count", "lower"),
    "dynamics.evolve_exact_calls": ("count", "lower"),
    "sim.run_circuit_s": ("s", "lower"),
    "sim.gates_applied_per_s": ("1/s", "higher"),
    "sim.circuit_matrix_s": ("s", "lower"),
    "qasm.write_qasm_s": ("s", "lower"),
    "qasm.bytes_written": ("bytes", "lower"),
    "sim.sample_shots_s": ("s", "lower"),
    "sim.mapped_density_to_grid_s": ("s", "lower"),
    "dynamics.shot_density_trajectory_s": ("s", "lower"),
    "sim.exact_propagator_s": ("s", "lower"),
    "dynamics.evolve_exact_s": ("s", "lower"),
    "dynamics.probability_error_s": ("s", "lower"),
    "spectra.grid_spectrum_s": ("s", "lower"),
    "spectra.compare_eigendiffs_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# functions whose time is reported, "layer.function"
TIMED = {name[:-2] for name in PER_LAYER
         if name.endswith("_s") and not name.startswith(("cli.", "trace."))
         and not name.endswith("_per_s")}
# functions whose distinct inputs are counted
HASHED = {"grid.eigensolve", "qsd.qsd_compile"}


def digest(value, h=None):
    '''SHA-1 over the bytes of arrays, dataclass fields and reprs.'''
    h = h or hashlib.sha1()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value))
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            digest(getattr(value, f.name), h)
    elif isinstance(value, (list, tuple)):
        for item in value:
            digest(item, h)
    elif isinstance(value, dict):
        for key in sorted(value, key=repr):
            digest((key, value[key]), h)
    else:
        h.update(repr(value).encode())
    return h


def _fast_gate_count(seq):
    n = 0
    for block in seq.blocks:
        theta = getattr(block, "theta", None)
        if theta is not None:          # multiplexor: a rotation and a CNOT
            n += 2 * len(theta)        # per angle
        elif hasattr(block, "beta"):   # ZYZ leaf: three rotations
            n += 3
        else:
            n += block.kind != "phase"
    return n


def _gate_count(seq):
    return sum(v for k, v in seq.counts().items() if k != "phase")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []        # (span index, layer, timed)
        self.gates = weakref.WeakKeyDictionary()
        self.count_gates = None

    def gate_count(self, seq):
        '''Elementary ry/rz/cx gates of a GateSequence.  Walking the fused
        blocks is faster than expanding every gate; it is used only when
        it agrees with counts() on the first sequence seen.'''
        if seq in self.gates:
            return self.gates[seq]
        if self.count_gates is None:
            try:
                fast = _fast_gate_count(seq) == _gate_count(seq)
            except (AttributeError, TypeError):
                fast = False
            self.count_gates = _fast_gate_count if fast else _gate_count
        n = self.gates[seq] = self.count_gates(seq)
        return n

    def wrap(self, fn, name):
        layer = name.split(".")[0]
        timed, hashed = name in TIMED, name in HASHED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            if stack and stack[-1][1] == layer and stack[-1][2]:
                return fn(*args, **kwargs)
            t_in = time.perf_counter()
            span = {"name": name, "parent": stack[-1][0] if stack else None,
                    "tracer_s": 0.0}
            if hashed:
                span["digest"] = digest((args, kwargs)).hexdigest()
            index = len(self.spans)
            self.spans.append(span)
            stack.append((index, layer, timed))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span["start"], span["end"] = start, end
                span["tracer_s"] = start - t_in
            if name == "qsd.qsd_compile":
                span["gates"] = self.gate_count(result)
            elif name == "sim.run_circuit":
                span["gates"] = self.gate_count(args[1])
            elif name == "qasm.write_qasm":
                span["bytes"] = os.path.getsize(args[1])
            # bookkeeping outside [start, end], taken off the parent
            span["tracer_s"] += time.perf_counter() - end
            return result
        return traced

    def install(self):
        '''Wrap every public wavecirc function in every module that binds
        it.'''
        wrapped = {}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "wavecirc" or n.startswith("wavecirc.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or not obj.__module__.startswith("wavecirc."):
                    continue
                if obj not in wrapped:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrapped[obj] = self.wrap(obj, f"{layer}.{obj.__name__}")
                setattr(module, attr, wrapped[obj])


def run_cli(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:      # report the traceback, count the command failed
        traceback.print_exc()
        return 1


def main(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    from wavecirc import cli
    record = {"exit_codes": {}}

    def run_pass(tag):
        t0 = time.perf_counter()
        record["exit_codes"][tag] = [run_cli(cli, argv)
                                     for argv in plan[tag]]
        record[f"{tag}_s"] = time.perf_counter() - t0

    run_pass("untraced")
    tracer = Tracer()
    tracer.install()
    run_pass("traced")
    record["spans"] = tracer.spans
    with open(plan["spans"], "w") as fh:
        json.dump(record, fh)
    return 0


def layer_metrics(record, cli_bytes):
    '''Per-layer metrics from a spans record; `_s` is self time: the
    span's duration minus its child spans and their bookkeeping.'''
    spans = record["spans"]
    self_s = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            self_s[s["parent"]] -= s["end"] - s["start"] + s["tracer_s"]
    by_name = {}
    for s, t in zip(spans, self_s):
        by_name.setdefault(s["name"], []).append((s, t))

    def time_of(name):
        return sum(t for _, t in by_name.get(name, ()))

    def total(name, key):
        return sum(s[key] for s, _ in by_name.get(name, ()))

    root = []
    for i, s in enumerate(spans):
        root.append(i if s["parent"] is None else root[s["parent"]])

    def ratio(name):
        # distinct inputs within each command, over all calls
        calls = [i for i, s in enumerate(spans) if s["name"] == name]
        distinct = {(root[i], spans[i]["digest"]) for i in calls}
        return len(distinct) / len(calls) if calls else 0.0

    values = {f"{name}_s": time_of(name) for name in TIMED}
    values.update({
        "grid.eigensolve_calls": len(by_name.get("grid.eigensolve", ())),
        "grid.eigensolve_ratio": ratio("grid.eigensolve"),
        "qsd.qsd_compile_calls": len(by_name.get("qsd.qsd_compile", ())),
        "qsd.qsd_compile_ratio": ratio("qsd.qsd_compile"),
        "qsd.gates_emitted": total("qsd.qsd_compile", "gates"),
        "dynamics.evolve_exact_calls":
            len(by_name.get("dynamics.evolve_exact", ())),
        "sim.gates_applied_per_s":
            total("sim.run_circuit", "gates") / values["sim.run_circuit_s"]
            if values["sim.run_circuit_s"] > 0 else 0.0,
        "qasm.bytes_written": total("qasm.write_qasm", "bytes"),
        "cli.self_s": sum(t for s, t in zip(spans, self_s)
                          if s["name"].startswith("cli.")),
        "cli.bytes_written": cli_bytes,
        "trace.overhead_s": record["traced_s"] - record["untraced_s"],
    })
    return {name: (values[name], unit)
            for name, (unit, _) in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
