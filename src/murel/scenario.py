"""Scenario documents: strict JSON descriptions of one measurement setup.

Schema (schema_version 1).  Unknown and repeated keys are rejected
everywhere; complex numbers are written as [re, im] pairs; angles are given
in degrees under the key "phi_degrees".

    {
      "schema_version": 1,
      "id": "optional label",
      "model": <model object>,
      "state": "+x" | [[re, im], ...],
      "observables": {"x0": <observable>, "y0": <observable>},
      "value_map": "identity" | "scale:<c>" | "shift:<c>" | "center_on_meter_mean",
      "tolerance": 1e-9,
      "seed": 0
    }

Model objects, by family:

    {"family": "sigma_phi", "phi_degrees": <number>}
    {"family": "shift", "probe_dim": <int>, "probe_state": [[re, im], ...]}
    {"family": "explicit", "object_dim": <int>, "unitary": [[[re, im], ...], ...],
     "probe_state": [[re, im], ...], "meter": [[[re, im], ...], ...]}

Observables are a name from model.NAMED_OBSERVABLES or an explicit Hermitian
matrix.  States are a name from model.NAMED_QUBIT_STATES, for qubit objects
only, or an amplitude vector.  The value map composes on top of the family's built-in
calibration (identity for sigma_phi/explicit, pointer-mean subtraction for
shift): "scale:100" on a shift model recalibrates values to 100 * (raw - mean).

Scale bound: every measurement value f(m_k) of both value maps and the
spectral norms of x0 and y0 must be at most 1e150 in magnitude (VALUE_BOUND);
larger ones are rejected at scenario.value_map or scenario.observables.x0/y0,
so every statistic and verdict of a valid scenario is finite.  A shift
register, object dim * probe_dim, may have at most 256 levels
(model.MAX_SHIFT_DIM); a larger one is rejected at scenario.model before
it is allocated.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from itertools import chain
from typing import Any, Callable

import numpy as np

from .linalg import HermitianObservable, PureState, expectation, herm_eig
from .model import (
    NAMED_OBSERVABLES,
    NAMED_QUBIT_STATES,
    IndirectModel,
    _brief,
    _integer,
    _meter_observable,
    _real,
    _require_unitary,
    build_shift_model,
    build_sigma_phi,
    named_qubit_state,
    pauli_observable,
    rescale_mvo,
)
from .relations import DEFAULT_TOL, _tolerance

__all__ = [
    "BuiltConfiguration",
    "Scenario",
    "ScenarioError",
    "apply_value_map",
    "build_configuration",
    "build_model",
    "make_scenario_doc",
    "matrix_pairs",
    "parse_scenario",
    "scenario_from_dict",
    "scenario_to_text",
    "vector_pairs",
]

SCHEMA_VERSION = 1
VALUE_MAP_NAMES = ("identity", "scale", "shift", "center_on_meter_mean")
# Let S be the largest |f(m_k)| over both value maps and the spectral norms of
# x0 and y0.  Every statistic is at most 2S and every verdict side is a sum of
# at most three products of two statistics, so at most 12 S^2; S <= 1e150
# keeps that below the float maximum 1.8e308.
VALUE_BOUND = 1e150


class ScenarioError(ValueError):
    """Scenario document rejected; .path names the offending field."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _at(path: str, fn: Callable, *args):
    """fn(*args); a ValueError it raises becomes a ScenarioError at path."""
    try:
        return fn(*args)
    except ValueError as e:
        raise ScenarioError(str(e), path) from None


def _require_dict(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"expected an object, got {type(obj).__name__}", path)
    return obj


def _check_keys(obj: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    unknown = sorted(map(_brief, set(obj) - required - optional))
    if unknown:
        raise ScenarioError(f"unknown keys [{', '.join(unknown)}]", path)
    missing = sorted(required - set(obj))
    if missing:
        raise ScenarioError(f"missing required keys {missing!r}", path)


def _positive_integer(obj: Any, path: str) -> int:
    n = _at(path, _integer, obj)
    if n < 1:
        raise ScenarioError(f"{path.rpartition('.')[2]} must be positive", path)
    return n


def _complex_pair(obj: Any, path: str) -> complex:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ScenarioError(f"expected a [re, im] pair, got {_brief(obj)}", path)
    return complex(_at(f"{path}[0]", _real, obj[0]), _at(f"{path}[1]", _real, obj[1]))


def _plain_pairs(pairs: list) -> np.ndarray | None:
    """A list of [re, im] lists of finite floats as a complex vector, read in C.

    None for anything else, which the per-element reader then reads or
    rejects.  The leaf types are checked before numpy sees them, because
    np.array would turn true into 1.0 and "1.5" into 1.5.
    """
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    leaves = list(chain.from_iterable(pairs))
    # a non-finite leaf, or finite ones whose sum overflows, leave it to the per-element reader
    if set(map(type, leaves)) != {float} or not math.isfinite(sum(leaves)):
        return None
    return np.array(leaves).view(np.complex128)


def _complex_vector(obj: Any, path: str) -> np.ndarray:
    if isinstance(obj, np.ndarray):
        obj = _at(path, vector_pairs, obj)
    if not isinstance(obj, list) or not obj:
        raise ScenarioError("expected a non-empty list of [re, im] pairs", path)
    fast = _plain_pairs(obj)
    if fast is not None:
        return fast
    return np.array([_complex_pair(e, f"{path}[{i}]") for i, e in enumerate(obj)], dtype=complex)


def _unit_vector(obj: Any, path: str) -> np.ndarray:
    """State amplitudes that pass PureState's check, read-only."""
    return _at(path, PureState, _complex_vector(obj, path)).amplitudes


def _complex_matrix(obj: Any, path: str) -> np.ndarray:
    if isinstance(obj, np.ndarray):
        obj = _at(path, vector_pairs, obj)
    if not isinstance(obj, list) or not obj:
        raise ScenarioError("expected a non-empty list of rows", path)
    n = len(obj)
    if set(map(type, obj)) == {list} and set(map(len, obj)) == {n}:
        fast = _plain_pairs(list(chain.from_iterable(obj)))
        if fast is not None:
            return fast.reshape(n, n)
    rows = [_complex_vector(r, f"{path}[{i}]") for i, r in enumerate(obj)]
    for i, r in enumerate(rows):
        if r.size != n:
            raise ScenarioError(f"row {i} has length {r.size}, expected {n} (square matrix)", path)
    return np.array(rows, dtype=complex)


def _unitary(obj: Any, path: str) -> np.ndarray:
    return _at(path, _require_unitary, _complex_matrix(obj, path))


def vector_pairs(amps: np.ndarray) -> list[list[float]]:
    """The [re, im] float lists of a complex array, nested as its rows are; -0.0 keeps its sign."""
    a = np.ascontiguousarray(amps, dtype=complex)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def matrix_pairs(m: np.ndarray) -> list[list[list[float]]]:
    return vector_pairs(m)


# The model fields of each family in schema order: (read from JSON, write to JSON).
_POSITIVE_INTEGER = (_positive_integer, int)
_UNIT_VECTOR = (_unit_vector, vector_pairs)
_MODEL_FIELDS = {
    "sigma_phi": {"phi_degrees": (lambda obj, path: _at(path, _real, obj), float)},
    "shift": {"probe_dim": _POSITIVE_INTEGER, "probe_state": _UNIT_VECTOR},
    "explicit": {"object_dim": _POSITIVE_INTEGER, "unitary": (_unitary, matrix_pairs),
                 "probe_state": _UNIT_VECTOR, "meter": (_complex_matrix, matrix_pairs)},
}


def _model_fields(family: Any) -> dict:
    fields = _MODEL_FIELDS.get(family) if isinstance(family, str) else None
    if fields is None:
        raise ScenarioError(
            f"unknown family {_brief(family)} (known: {list(_MODEL_FIELDS)!r})",
            "scenario.model.family",
        )
    return fields


def _spec(obj: Any, path: str, kind: str, names: dict, read_array) -> str | np.ndarray:
    """A state or observable spec: one of the names, or an array read by read_array."""
    if isinstance(obj, str):
        if obj not in names:
            raise ScenarioError(f"unknown {kind} name {obj!r} (known: {list(names)!r})", path)
        return obj
    return read_array(obj, path)


def _bounded(values: np.ndarray, what: str, path: str) -> None:
    peak = float(abs(values).max())
    if not peak <= VALUE_BOUND:
        raise ScenarioError(f"{what} {peak!r} exceeds the bound {VALUE_BOUND!r}", path)


def _value_map(spec: Any, path: str) -> Callable[[IndirectModel], IndirectModel]:
    """The recalibration a value-map spec names; any other spec is a ScenarioError at path.

    The recalibrated model's measurement values, under both value maps,
    must be finite and within VALUE_BOUND.
    """
    if not isinstance(spec, str):
        raise ScenarioError(f"expected a value-map string, got {_brief(spec)}", path)
    head, _, arg = spec.partition(":")
    if head not in VALUE_MAP_NAMES:
        raise ScenarioError(f"unknown value map {spec!r} (known: {list(VALUE_MAP_NAMES)!r})", path)
    if head in ("scale", "shift"):
        if not arg:
            raise ScenarioError(f"value map {head!r} needs a numeric argument, e.g. '{head}:2'", path)
        try:
            c = float(arg)
        except ValueError:
            raise ScenarioError(f"bad numeric argument in value map {spec!r}", path) from None
        if not math.isfinite(c):
            raise ScenarioError(f"non-finite argument in value map {spec!r}", path)
    elif arg:
        raise ScenarioError(f"value map {head!r} takes no argument", path)

    def recalibrate(model: IndirectModel) -> IndirectModel:
        if head == "scale":
            model = rescale_mvo(model, lambda v: c * v)
        elif head == "shift":
            model = rescale_mvo(model, lambda v: v + c)
        elif head == "center_on_meter_mean":
            mean = float(expectation(model.probe_state, model.meter.matrix).real)
            model = rescale_mvo(model, lambda v: v - mean)
        values_x0, values_xt = _at(path, lambda: model.measurement_values)
        _bounded(values_x0 if values_xt is values_x0 else np.concatenate((values_x0, values_xt)),
                 "measurement value", path)
        return model

    return recalibrate


@dataclass(frozen=True, eq=False)
class Scenario:
    """One scenario record: the fields a document holds, with the schema's defaults.

    The constructor reads each field as a document's: a ScenarioError names
    the offending field, and the normalized values are stored.
    scenario_from_dict reads a document into one; `document` writes its
    normalized JSON-ready form, and build_configuration realizes it.
    """

    family: str
    model_params: dict
    state_spec: str | np.ndarray
    x0_spec: str | np.ndarray
    y0_spec: str | np.ndarray
    value_map_spec: str = "identity"
    tolerance: float = DEFAULT_TOL
    seed: int = 0
    scenario_id: str | None = None

    def __post_init__(self):
        if self.scenario_id is not None and not isinstance(self.scenario_id, str):
            raise ScenarioError(f"expected a string, got {_brief(self.scenario_id)}", "scenario.id")
        model_fields = _model_fields(self.family)
        _check_keys(_require_dict(self.model_params, "scenario.model"), "scenario.model",
                    required=set(model_fields))
        params = {key: read(self.model_params[key], f"scenario.model.{key}")
                  for key, (read, _) in model_fields.items()}
        if self.family == "shift" and params["probe_state"].size != params["probe_dim"]:
            raise ScenarioError(
                f"probe_state length {params['probe_state'].size} != probe_dim "
                f"{_brief(params['probe_dim'])}",
                "scenario.model.probe_state",
            )
        if self.family == "explicit":
            object_dim, probe_dim = params["object_dim"], params["probe_state"].size
            if params["unitary"].shape[0] != object_dim * probe_dim:
                raise ScenarioError(
                    f"unitary dim {params['unitary'].shape[0]} != object_dim * probe dim "
                    f"{_brief(object_dim * probe_dim)}",
                    "scenario.model.unitary",
                )
            if params["meter"].shape[0] != probe_dim:
                raise ScenarioError(f"meter dim {params['meter'].shape[0]} != probe dim {probe_dim}",
                                    "scenario.model.meter")
        state_spec = _spec(self.state_spec, "scenario.state", "state", NAMED_QUBIT_STATES, _unit_vector)
        x0_spec, y0_spec = (
            _spec(spec, f"scenario.observables.{k}", "observable", NAMED_OBSERVABLES, _complex_matrix)
            for k, spec in (("x0", self.x0_spec), ("y0", self.y0_spec))
        )
        _value_map(self.value_map_spec, "scenario.value_map")
        vars(self).update(
            model_params=params,
            state_spec=state_spec,
            x0_spec=x0_spec,
            y0_spec=y0_spec,
            tolerance=_at("scenario.tolerance", _tolerance, self.tolerance),
            seed=_at("scenario.seed", _integer, self.seed),
        )

    @classmethod
    def _trusted(cls, **values) -> Scenario:
        """A Scenario of the given fields and the defaults, whose values are not checked.

        For fields valid by construction, and for documents written as given.
        """
        if not values.keys() <= _FIELD_NAMES:
            raise TypeError(f"unknown Scenario fields {sorted(values.keys() - _FIELD_NAMES)}")
        sc = object.__new__(cls)
        vars(sc).update(_FIELD_DEFAULTS, **values)
        return sc

    @property
    def document(self) -> dict:
        """The normalized document of these fields, written afresh on each read."""
        model_fields = _model_fields(self.family)
        model = {"family": self.family,
                 **{key: write(self.model_params[key]) for key, (_, write) in model_fields.items()}}
        doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
        if self.scenario_id is not None:
            doc["id"] = self.scenario_id
        doc["model"] = model
        doc["state"] = _spec_json(self.state_spec)
        doc["observables"] = {
            "x0": _spec_json(self.x0_spec),
            "y0": _spec_json(self.y0_spec),
        }
        doc["value_map"] = self.value_map_spec
        doc["tolerance"] = float(self.tolerance)
        doc["seed"] = int(self.seed)
        return doc


# Scenario's field names, and the defaults of the fields that have one; read by Scenario._trusted
_FIELD_NAMES = frozenset(f.name for f in fields(Scenario))
_FIELD_DEFAULTS = {f.name: f.default for f in fields(Scenario) if f.default is not MISSING}


@dataclass(frozen=True, eq=False)
class BuiltConfiguration:
    """A scenario realized: model, state and observable pair; built by build_configuration."""

    model: IndirectModel
    state: PureState
    x0: HermitianObservable
    y0: HermitianObservable
    scenario: Scenario

    @property
    def tolerance(self) -> float:
        """The scenario's slack tolerance."""
        return self.scenario.tolerance


def scenario_from_dict(doc: Any) -> Scenario:
    """Read a scenario document (parsed JSON).  Strict: unknown keys fail.

    The document's own structure is checked here: its keys, schema_version,
    and the objects that hold the model and the observables.  Scenario
    checks the fields.
    """
    top = _require_dict(doc, "scenario")
    _check_keys(
        top,
        "scenario",
        required={"schema_version", "model", "state", "observables"},
        optional={"id", "value_map", "tolerance", "seed"},
    )
    version = _at("scenario.schema_version", _integer, top["schema_version"])
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {_brief(version)}", "scenario.schema_version"
        )
    mobj = _require_dict(top["model"], "scenario.model")
    oobj = _require_dict(top["observables"], "scenario.observables")
    _check_keys(oobj, "scenario.observables", required={"x0", "y0"})
    return Scenario(
        family=mobj.get("family"),
        model_params={key: value for key, value in mobj.items() if key != "family"},
        state_spec=top["state"],
        x0_spec=oobj["x0"],
        y0_spec=oobj["y0"],
        value_map_spec=top.get("value_map", Scenario.value_map_spec),
        tolerance=top.get("tolerance", Scenario.tolerance),
        seed=top.get("seed", Scenario.seed),
        scenario_id=top.get("id"),
    )


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's dict; a repeated key, which json.loads would resolve silently, is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioError(f"duplicate key {_brief(key)}")
        obj[key] = value
    return obj


def parse_scenario(text: str) -> Scenario:
    """Parse scenario JSON text; syntax errors carry line/column positions."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ScenarioError:
        raise
    except json.JSONDecodeError as e:
        raise ScenarioError(f"syntax error at line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ScenarioError("JSON nested too deeply") from None
    except ValueError:  # an integer literal longer than int() accepts
        raise ScenarioError("integer literal with too many digits") from None
    return scenario_from_dict(doc)


def _resolve_observable(spec: str | np.ndarray, path: str) -> HermitianObservable:
    if isinstance(spec, str):
        return pauli_observable(spec)
    obs = _at(path, herm_eig, spec)
    _bounded(obs.eigenvalues, "spectral norm", path)
    return obs


def _resolve_state(spec: str | np.ndarray, dim: int, path: str) -> PureState:
    if isinstance(spec, str):
        if dim != 2:
            raise ScenarioError(f"named state {spec!r} requires a qubit object, got dim {dim}", path)
        return named_qubit_state(spec)
    if spec.size != dim:
        raise ScenarioError(f"state length {spec.size} != object dim {dim}", path)
    return PureState._trusted(spec)  # normalized when the Scenario constructor read it


def apply_value_map(model: IndirectModel, spec: str) -> IndirectModel:
    """Compose a named value map on top of the model's current calibration.

    A malformed spec, or measurement values that are not finite or exceed
    VALUE_BOUND, raise ScenarioError at scenario.value_map.
    """
    return _value_map(spec, "scenario.value_map")(model)


def build_model(family: str, params: dict, x0: HermitianObservable) -> IndirectModel:
    """Assemble a model family from its parameters, as in Scenario.model_params.

    The params come from the Scenario constructor, which checks each field
    and how the fields fit, or are valid by construction, as the search's
    are; their parts are assembled unchecked.  What is left needs the
    object observable x0: its dimension must fit the family, and the shift
    family reads it out.  Every rejection is a ScenarioError naming the
    offending field.
    """
    if family == "sigma_phi":
        if x0.dim != 2:
            raise ScenarioError("sigma_phi is a qubit model; observables must be 2x2",
                                "scenario.observables")
        return build_sigma_phi(math.radians(params["phi_degrees"]))
    probe = PureState._trusted(params["probe_state"])
    if family == "shift":
        return _at("scenario.model", build_shift_model, x0, params["probe_dim"], probe)
    object_dim = params["object_dim"]
    if x0.dim != object_dim:
        raise ScenarioError(
            f"observable dim {x0.dim} != object_dim {object_dim}", "scenario.observables"
        )
    meter = _at("scenario.model.meter", _meter_observable, params["meter"])
    return IndirectModel._trusted(object_dim, probe.dim, params["unitary"], probe, meter)


def build_configuration(sc: Scenario) -> BuiltConfiguration:
    """Realize a parsed scenario as model + state + observable pair."""
    x0 = _resolve_observable(sc.x0_spec, "scenario.observables.x0")
    y0 = _resolve_observable(sc.y0_spec, "scenario.observables.y0")
    if x0.dim != y0.dim:
        raise ScenarioError(
            f"x0 dim {x0.dim} != y0 dim {y0.dim}", "scenario.observables"
        )
    model = build_model(sc.family, sc.model_params, x0)
    state = _resolve_state(sc.state_spec, model.object_dim, "scenario.state")
    model = apply_value_map(model, sc.value_map_spec)
    return BuiltConfiguration(model=model, state=state, x0=x0, y0=y0, scenario=sc)


def _spec_json(spec: str | np.ndarray):
    return spec if isinstance(spec, str) else vector_pairs(spec)


def make_scenario_doc(**fields) -> dict:
    """Assemble a normalized scenario document (JSON-ready dict) from Scenario's fields, unchecked.

    The fields are written as given, so a test can write a document the
    reader rejects.
    """
    return Scenario._trusted(**fields).document


class _NotPlainJSON(Exception):
    """A value _indented leaves to json.dumps."""


_float_repr = float.__repr__
_json_str = json.encoder.encode_basestring_ascii


def _float_lists(obj: list, nl: str) -> str | None:
    """_indented's text of a list of float lists of one length, in one join; else None."""
    if set(map(type, obj)) != {list} or len(lengths := set(map(len, obj))) != 1:
        return None
    leaves = list(chain.from_iterable(obj))
    if set(map(type, leaves)) != {float}:
        return None
    inner = nl + "  "
    deeper = inner + "  "
    reprs = map(_float_repr, leaves)
    rows = zip(*[reprs] * lengths.pop())  # consecutive groups of one inner list's length
    body = (inner + "]," + inner + "[" + deeper).join(map(("," + deeper).join, rows))
    if "n" in body:  # inf or nan, which json.dumps writes as Infinity or NaN
        raise _NotPlainJSON
    return "[" + inner + "[" + deeper + body + inner + "]" + nl + "]"


def _indented(obj: Any, nl: str) -> str:
    """json.dumps(obj, indent=2) for plain JSON data, obj's lines indented as nl says.

    Plain JSON data is exact dicts with str keys, lists, str, finite floats,
    int, bool and None; anything else raises _NotPlainJSON.
    """
    kind = type(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise _NotPlainJSON
        return _float_repr(obj)
    if kind is str:
        return _json_str(obj)
    if kind is list:
        if not obj:
            return "[]"
        text = _float_lists(obj, nl)
        if text is not None:
            return text
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_indented(v, inner) for v in obj]) + nl + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        if set(map(type, obj)) != {str}:
            raise _NotPlainJSON
        items = [_json_str(k) + ": " + _indented(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    raise _NotPlainJSON


def scenario_to_text(doc: dict) -> str:
    """Serialize a scenario document: exactly json.dumps(doc, indent=2) + "\n".

    Floats round-trip exactly.  Plain JSON data is written by _indented,
    which joins each vector and matrix row of [re, im] pairs in one pass;
    anything else is left to json.dumps (whose indented encoder is pure
    Python).
    """
    try:
        return _indented(doc, "\n") + "\n"
    except (_NotPlainJSON, RecursionError):
        return json.dumps(doc, indent=2) + "\n"
