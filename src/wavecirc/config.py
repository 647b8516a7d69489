'''Run configuration: a single JSON file validated against a schema,
with all defaults made explicit in the resolved form.'''

import copy
import json
import math

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


def _validate(schema, value, what):
    '''ConfigError naming the first problem of `value` under `schema`.'''
    # the error jsonschema.validate would raise, without its check of
    # the constant SCHEMA against the metaschema (about 20 ms a call),
    # which the tests make once.  Imported here, so that `import
    # wavecirc.cli` does not pay for it (about 0.09 s).
    import jsonschema
    exc = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(schema).iter_errors(value))
    if exc is not None:
        path = ".".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"{what} invalid at {path}: {exc.message}") from exc


def check_model(model):
    '''ConfigError (a ValueError) unless the config schema accepts
    `model` as `potential.model`.'''
    _validate(SCHEMA["properties"]["potential"]["properties"]["model"],
              model, "potential model")


def resolve(raw):
    '''Validate a raw config dict and fill in defaults.'''
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
    return resolve(raw)
