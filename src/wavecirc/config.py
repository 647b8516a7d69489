'''Run configuration: a single JSON file validated against a schema,
with all defaults made explicit in the resolved form.'''

import copy
import json
import math
import numbers

from . import units
from .grid import MAX_M_DAF

NUMBER = {"type": "number"}
# numpy's multinomial sampler takes a 64-bit count
MAX_SHOTS = 2 ** 63 - 1
POSITIVE = {"type": "number", "exclusiveMinimum": 0}


def _fields(fields, required=()):
    '''Schema of a potential model with `kind` and `fields` (name ->
    schema), no others, the names in `required` among them.'''
    return {"properties": {"kind": True, **fields},
            "required": list(required), "additionalProperties": False}


def _when_kind(kind, schema):
    '''Applies `schema` to a potential model of `kind` only.'''
    return {"if": {"properties": {"kind": {"const": kind}}}, "then": schema}


SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["grid", "potential"],
    "properties": {
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_qubits", "length_angstrom"],
            "properties": {
                "n_qubits": {"type": "integer", "minimum": 1, "maximum": 12},
                "length_angstrom": {"type": "number", "exclusiveMinimum": 0},
                "center_angstrom": {"type": "number"},
                "mass": {
                    "oneOf": [
                        {"enum": ["proton", "deuteron"]},
                        {"type": "number", "exclusiveMinimum": 0},
                    ]
                },
            },
        },
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "file": {"type": "string"},
                "model": {
                    "type": "object",
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": ["double_well", "harmonic",
                                          "polynomial"]},
                    },
                    "allOf": [
                        # both a and b, or barrier_kcal and
                        # minimum_angstrom (or their defaults)
                        _when_kind("double_well", {
                            **_fields({"barrier_kcal": NUMBER,
                                       "minimum_angstrom": POSITIVE,
                                       "a": NUMBER, "b": NUMBER}),
                            "dependentRequired": {"a": ["b"], "b": ["a"]},
                            "if": {"required": ["a"]},
                            "then": {"propertyNames": {
                                "enum": ["kind", "a", "b"]}}}),
                        _when_kind("harmonic", _fields(
                            {"k": NUMBER}, required=["k"])),
                        _when_kind("polynomial", _fields(
                            {"coefficients": {"type": "array",
                                              "items": NUMBER,
                                              "minItems": 1}},
                            required=["coefficients"])),
                    ],
                },
            },
            "oneOf": [{"required": ["file"]}, {"required": ["model"]}],
        },
        "daf": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "m_daf": {"type": "integer", "minimum": 0,
                          "maximum": MAX_M_DAF},
                "sigma_ratio": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "dynamics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "wavepacket": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": ["delta", "gaussian", "thermal"]},
                        "x0_index": {"type": "integer", "minimum": 0},
                        "mu_angstrom": {"type": "number"},
                        "sigma_angstrom": {"type": "number",
                                           "exclusiveMinimum": 0},
                        "temperature_kelvin": {"type": "number",
                                               "exclusiveMinimum": 0},
                    },
                },
                "dt_fs": {"type": "number", "exclusiveMinimum": 0},
                "steps": {"type": "integer", "minimum": 1},
                "method": {"enum": ["classical", "ising", "circuit-exact",
                                    "circuit-shots"]},
                "shots": {"type": "integer", "minimum": 1,
                          "maximum": MAX_SHOTS},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "spectrum": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "window": {"enum": ["none", "hann"]},
                "padding": {"type": "integer", "minimum": 1},
                "peak_threshold": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "mapping": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "force": {"type": "boolean"},
                "threshold_ratio": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "output_dir": {"type": "string"},
    },
}

DEFAULTS = {
    "grid": {"center_angstrom": 0.0, "mass": "proton"},
    "daf": {"m_daf": 20, "sigma_ratio": 1.5},
    "dynamics": {
        "wavepacket": {"kind": "gaussian", "x0_index": 0,
                       "mu_angstrom": 0.0, "sigma_angstrom": 0.1,
                       "temperature_kelvin": 300.0},
        "dt_fs": 0.25,
        "steps": 8000,
        "method": "classical",
        "seed": 0,
    },
    "spectrum": {"window": "none", "padding": 4, "peak_threshold": 1e-3},
    "mapping": {"force": False, "threshold_ratio": 1e-8},
    "output_dir": "runs",
}

MASSES = {"proton": units.PROTON_MASS, "deuteron": units.DEUTERON_MASS}


class ConfigError(ValueError):
    pass


def _merge(defaults, override):
    out = copy.deepcopy(defaults)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


# The JSON Schema (draft 2020-12) keywords _errors knows: those SCHEMA
# uses.  The jsonschema package's imports would cost a command 0.08 s.
KEYWORDS = frozenset("""type properties additionalProperties required enum
    const minimum maximum exclusiveMinimum items minItems allOf oneOf if then
    dependentRequired propertyNames""".split())
TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
         "number": numbers.Number, "integer": int}


def _is_type(value, kind):
    '''Draft 2020-12's types: a bool is not a number, and a float with no
    fractional part is an integer.'''
    return (kind == "boolean" or not isinstance(value, bool)) and (
        isinstance(value, TYPES[kind]) or kind == "integer"
        and isinstance(value, float) and value.is_integer())


def _errors(schema, value, path=()):
    '''Each error of `value` at `path` under `schema`, in jsonschema's
    order and words: (its relevance, message, a failed oneOf's errors).'''
    for key, arg in ({} if schema is True else schema).items():
        if key not in KEYWORDS or (
                key == "additionalProperties" and arg is not False):
            raise NotImplementedError(f"schema keyword {key}: {arg!r}")

        def error(message, context=()):
            return (-len(path), path, key != "oneOf", not (
                "type" in schema and _is_type(value, schema["type"]))), \
                message, context
        if key == "type" and not _is_type(value, arg):
            yield error(f"{value!r} is not of type {arg!r}")
        # Python compares an int of any size exactly with a float
        elif key == "minimum" and _is_type(value, "number") and value < arg:
            yield error(f"{value!r} is less than the minimum of {arg!r}")
        elif key == "maximum" and _is_type(value, "number") and value > arg:
            yield error(f"{value!r} is greater than the maximum of {arg!r}")
        elif key == "exclusiveMinimum" and _is_type(value, "number") and \
                value <= arg:
            yield error(f"{value!r} is less than or equal to the minimum of "
                        f"{arg!r}")
        elif key == "enum" and value not in arg:
            yield error(f"{value!r} is not one of {arg!r}")
        elif key == "const" and value != arg:
            yield error(f"{arg!r} was expected")
        elif key == "allOf":
            for sub in arg:
                yield from _errors(sub, value, path)
        elif key == "oneOf":
            context = [list(_errors(sub, value, path)) for sub in arg]
            valid = [sub for sub, errs in zip(arg, context) if not errs]
            if not valid:
                yield error(f"{value!r} is not valid under any of the given "
                            "schemas", sum(context, []))
            elif len(valid) > 1:
                yield error(f"{value!r} is valid under each of "
                            + ", ".join(map(repr, valid[1:] + valid[:1])))
        elif key == "if" and not any(_errors(arg, value)):
            yield from _errors(schema.get("then", True), value, path)
        elif key == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _errors(arg, item, path + (i,))
        elif key == "minItems" and isinstance(value, list) and \
                len(value) < arg:
            yield error(f"{value!r} should be non-empty" if arg == 1
                        else f"{value!r} is too short")
        elif not isinstance(value, dict):
            continue
        elif key == "properties":
            for name, sub in arg.items():
                if name in value:
                    yield from _errors(sub, value[name], path + (name,))
        elif key == "additionalProperties":
            extra = sorted(value.keys() - schema.get("properties", {}),
                           key=str)
            if extra:
                yield error("Additional properties are not allowed (%s %s "
                            "unexpected)" % (", ".join(map(repr, extra)),
                                             "were" if extra[1:] else "was"))
        elif key == "required":
            yield from (error(f"{name!r} is a required property")
                        for name in arg if name not in value)
        elif key == "dependentRequired":
            yield from (error(f"{each!r} is a dependency of {name!r}")
                        for name in arg if name in value
                        for each in arg[name] if each not in value)
        elif key == "propertyNames":
            for name in value:
                yield from _errors(arg, name, path)


def _validate(schema, value, what):
    '''ConfigError naming the problem jsonschema's best_match picks.'''
    best = max(_errors(schema, value), key=lambda err: err[0], default=None)
    # into a failed oneOf, unless its two most relevant errors tie; their
    # paths extend the oneOf's, so they rank as their relative paths do
    while best and best[2]:
        first, *rest = sorted(best[2], key=lambda err: err[0])
        if rest and rest[0][0] == first[0]:
            break
        best = first
    if best:
        where = ".".join(map(str, best[0][1])) or "<root>"
        raise ConfigError(f"{what} invalid at {where}: {best[1]}")


def check_model(model):
    '''ConfigError (a ValueError) unless the config schema accepts
    `model` as `potential.model`.'''
    _validate(SCHEMA["properties"]["potential"]["properties"]["model"],
              model, "potential model")


# The most lists and objects on one path of a config that the check,
# the merge and the float scan may recurse into: twice the schema's
# deepest legal nesting (the root, potential, model, coefficients).
MAX_DEPTH = 8


def _check_depth(raw):
    '''ConfigError at a path deeper than MAX_DEPTH, found without
    recursion.'''
    stack = [(raw, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, (dict, list)) and len(path) >= MAX_DEPTH:
            raise ConfigError(f"config invalid at {'.'.join(map(str, path))}"
                              f": nested deeper than {MAX_DEPTH} levels")
        items = node.items() if isinstance(node, dict) else enumerate(
            node) if isinstance(node, list) else ()
        stack.extend((val, path + (key,)) for key, val in items)


def resolve(raw):
    '''Validate a raw config dict and fill in defaults.'''
    _check_depth(raw)
    _validate(SCHEMA, raw, "config")
    cfg = _merge(DEFAULTS, raw)
    # json.load gives NaN, Infinity and literals beyond the float range
    # as floats, and the schema's bounds let them through
    for path, value in _floats(cfg):
        if not math.isfinite(value):
            raise ConfigError(
                f"config holds the non-finite number {value} at "
                + ".".join(map(str, path)))
    mass = cfg["grid"]["mass"]
    cfg["grid"]["mass_au"] = MASSES.get(mass, mass)
    return cfg


def _floats(node, path=()):
    '''(path, value) of every float in a nested config; path is the
    tuple of keys and list indices that leads to it.'''
    if isinstance(node, float):
        yield path, node
    elif isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, val in items:
            yield from _floats(val, path + (key,))


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:   # nested beyond the interpreter's limit
        raise ConfigError(f"config nests too deeply to read: {exc}") from exc
    return resolve(raw)
