"""Indirect measurement models: object coupled to a pointer probe.

A model is (U, probe state, meter observable, value maps).  The object
observable of interest evolves in the Heisenberg picture,
``x_t = U^dag (x0 (x) I) U``, the meter reads out through
``X_t = U^dag (I (x) meter) U``, and the measurement values assigned to the
object are carried by the measurement-value operator ``f(X_t)`` for a real
calibration function f.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import reprlib
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    DEGENERACY_GAP,
    HermitianObservable,
    MixedState,
    PureState,
    _cached,
    _freeze,
    _mapped_spectrum,
    as_complex_matrix,
    expectation,
    herm_eig,
    max_abs,
)

__all__ = [
    "EvolvedOperators",
    "IndirectModel",
    "build_shift_model",
    "build_sigma_phi",
    "calibrated_outcomes",
    "composite_input",
    "conditional_post_state",
    "evolve",
    "evolved_amplitudes",
    "named_qubit_state",
    "outcome_probabilities",
    "pauli_observable",
    "readout_clusters",
    "readout_probabilities",
    "rescale_mvo",
    "sigma_phi_matrix",
]

UNITARITY_ATOL = 1e-10
POPULATED_ATOL = 1e-12  # probe amplitudes above this count as populated
READOUT_MERGE_GAP = 1e-9  # calibrated measurement values this close are one value
ZERO_PROB = 1e-12  # a readout at or below this probability is impossible
# Bound on the shift family's object_dim * probe_dim: its interaction matrix
# of 256^2 complex entries takes 1 MiB, and criterion 08b's 2 x 34 fits.
MAX_SHIFT_DIM = 256

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
# The probe factors of build_sigma_phi's two terms, P+ (x) I and P- (x) X, laid out to broadcast
# against its stacked projectors as tensor lays out a Kronecker product.
_SIGMA_PHI_PROBE_FACTORS = np.array([ID2, PAULI_X])[:, None, :, None, :]

# Named qubit observables and states, built once; the objects are immutable.
NAMED_OBSERVABLES = {
    "sigma_x": herm_eig(PAULI_X),
    "sigma_y": herm_eig(PAULI_Y),
    "sigma_z": herm_eig(PAULI_Z),
    "identity": herm_eig(ID2),
}

_SQ2 = 1.0 / np.sqrt(2.0)
NAMED_QUBIT_STATES = {
    "+x": PureState(np.array([_SQ2, _SQ2], dtype=complex)),
    "-x": PureState(np.array([_SQ2, -_SQ2], dtype=complex)),
    "+y": PureState(np.array([_SQ2, 1.0j * _SQ2], dtype=complex)),
    "-y": PureState(np.array([_SQ2, -1.0j * _SQ2], dtype=complex)),
    "+z": PureState(np.array([1.0, 0.0], dtype=complex)),
    "-z": PureState(np.array([0.0, 1.0], dtype=complex)),
}


class _BriefRepr(reprlib.Repr):
    """repr for error messages, cut short in nesting depth, length and digits."""

    def repr_int(self, x, level):
        # str() of an integer past 4300 digits raises
        return repr(x) if x.bit_length() <= 128 else f"<{x.bit_length()}-bit integer>"


_brief = _BriefRepr().repr


def _real(obj: object) -> float:
    """The one rule for a real argument: a finite Python or numpy real, not a bool, as a float.

    Anything else raises ValueError.
    """
    if isinstance(obj, bool) or not isinstance(obj, numbers.Real):
        raise ValueError(f"expected a number, got {_brief(obj)}")
    try:
        value = float(obj)
    except OverflowError:
        raise ValueError("integer beyond the float range") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {value!r}")
    return value


def _integer(obj: object) -> int:
    """A Python or numpy integer, not a bool, as a Python int; nothing is truncated."""
    if not isinstance(obj, bool):
        try:
            return operator.index(obj)
        except TypeError:
            pass
    raise ValueError(f"expected an integer, got {_brief(obj)}")


def _positive(obj: object, name: str) -> int:
    """A count read by the integer rule, at least 1; anything else raises ValueError naming it."""
    n = _integer(obj)
    if n < 1:
        raise ValueError(f"{name} must be positive")
    return n


def pauli_observable(name: str) -> HermitianObservable:
    try:
        return NAMED_OBSERVABLES[name]
    except KeyError:
        raise ValueError(f"unknown observable name {name!r}") from None


def named_qubit_state(label: str) -> PureState:
    try:
        return NAMED_QUBIT_STATES[label]
    except KeyError:
        raise ValueError(f"unknown state label {label!r}") from None


def sigma_phi_matrix(phi: float) -> np.ndarray:
    """Spin component along the equatorial direction at angle phi: cos(phi) X + sin(phi) Y."""
    return np.cos(phi) * PAULI_X + np.sin(phi) * PAULI_Y


def _identity_map(v: float) -> float:
    return v


def _require_unitary(u: np.ndarray) -> np.ndarray:
    """u, once max |U^dag U - I| is at most UNITARITY_ATOL; an overflow to inf or nan fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        drift = max_abs(u.conj().T @ u - np.eye(u.shape[0]))
    if not drift <= UNITARITY_ATOL:
        raise ValueError(f"non-unitary interaction (max |U^dag U - I| = {drift!r})")
    return u


@dataclass(frozen=True, eq=False)
class IndirectModel:
    """Object-probe measurement scheme, immutable after construction.

    value_map_x0 calibrates raw meter readings into measurement values for
    the pre-interaction object observable; value_map_xt does the same for
    the post-interaction observable and defaults to value_map_x0.
    """

    object_dim: int
    probe_dim: int
    unitary: np.ndarray
    probe_state: PureState
    meter: HermitianObservable
    value_map_x0: Callable[[float], float] = _identity_map
    value_map_xt: Callable[[float], float] | None = None

    def __post_init__(self):
        object_dim, probe_dim = _integer(self.object_dim), _integer(self.probe_dim)
        if object_dim < 1 or probe_dim < 1:
            raise ValueError("dimensions must be positive")
        d = object_dim * probe_dim
        u = as_complex_matrix(self.unitary, name="unitary")
        if u.shape[0] != d:
            raise ValueError(f"unitary dim {u.shape[0]} != object*probe dim {d}")
        _require_unitary(u)
        if self.probe_state.dim != probe_dim:
            raise ValueError("probe state dim does not match probe_dim")
        if self.meter.dim != probe_dim:
            raise ValueError("meter dim does not match probe_dim")
        u.setflags(write=False)
        vars(self).update(
            object_dim=object_dim, probe_dim=probe_dim, unitary=u,
            value_map_xt=self.value_map_x0 if self.value_map_xt is None else self.value_map_xt,
        )

    @classmethod
    def _trusted(
        cls,
        object_dim: int,
        probe_dim: int,
        unitary: np.ndarray,
        probe_state: PureState,
        meter: HermitianObservable,
        value_map_x0: Callable[[float], float] = _identity_map,
        value_map_xt: Callable[[float], float] | None = None,
    ) -> IndirectModel:
        """A model whose parts fit and whose complex unitary is unitary by construction."""
        model = object.__new__(cls)
        vars(model).update(
            object_dim=object_dim, probe_dim=probe_dim, unitary=_freeze(unitary),
            probe_state=probe_state, meter=meter, value_map_x0=value_map_x0,
            value_map_xt=value_map_x0 if value_map_xt is None else value_map_xt,
        )
        return model

    @property
    def dim(self) -> int:
        return self.object_dim * self.probe_dim

    @_cached
    def measurement_values(self) -> tuple[np.ndarray, np.ndarray]:
        """value_map_x0 and value_map_xt applied to the meter eigenvalues, in the meter's
        eigenvector order; computed once per model."""
        values_x0 = _freeze(_mapped_spectrum(self.value_map_x0, self.meter.eigenvalues))
        if self.value_map_xt is self.value_map_x0:
            return values_x0, values_x0
        return values_x0, _freeze(_mapped_spectrum(self.value_map_xt, self.meter.eigenvalues))


class EvolvedOperators:
    """Heisenberg-picture operators of one model/observable-pair combination, in the meter frame.

    W = (I (x) V^dag) U, for V the meter eigenvectors.  I (x) V commutes with
    A (x) I, so x_t = W^dag (x0 (x) I) W with x0 acting on W's object index,
    and f(X_t) = U^dag (I (x) f(M)) U = W^dag diag(f(m_k)) W weights W's rows;
    no joint-space operator is built as a Kronecker product or eigendecomposed.
    Each of x_t, X_t, y_t, mvo_x0 and mvo_xt is computed on first read.
    """

    def __init__(self, model: IndirectModel, x0: HermitianObservable, y0: HermitianObservable):
        self._model, self._x0, self._y0 = model, x0, y0

    @_cached
    def _w(self) -> np.ndarray:
        """W, with its row index split as (object, meter eigenvector)."""
        m = self._model
        return m.meter.eigenvectors.conj().T @ m.unitary.reshape(m.object_dim, m.probe_dim, m.dim)

    @_cached
    def _wh(self) -> np.ndarray:
        d = self._model.dim
        return self._w.reshape(d, d).conj().T

    def _conjugated(self, a: HermitianObservable) -> np.ndarray:
        o, p, d = self._w.shape
        return self._wh @ (a.matrix @ self._w.reshape(o, p * d)).reshape(d, d)

    def _weighted(self, values: np.ndarray) -> np.ndarray:
        d = self._model.dim
        return self._wh @ (self._w * values[:, None]).reshape(d, d)

    @_cached
    def x_t(self) -> np.ndarray:
        return self._conjugated(self._x0)

    @_cached
    def y_t(self) -> np.ndarray:
        return self._conjugated(self._y0)

    @_cached
    def X_t(self) -> np.ndarray:
        return self._weighted(self._model.meter.eigenvalues)

    @_cached
    def mvo_x0(self) -> np.ndarray:
        return self._weighted(self._model.measurement_values[0])

    @_cached
    def mvo_xt(self) -> np.ndarray:
        return self._weighted(self._model.measurement_values[1])


_ABSENT = object()  # an argument _check_fit is not given


def _check_fit(model: IndirectModel, state=_ABSENT, x0=_ABSENT, y0=_ABSENT) -> None:
    """Reject an object state, or an x0/y0 pair, that does not act on the model's object.

    An argument without the attributes read here is of the wrong type: a
    TypeError names it.
    """
    try:
        object_dim = model.object_dim
        if state is not _ABSENT and state.amplitudes.size != object_dim:
            raise ValueError(f"object state dim {state.dim} != model object dim {object_dim}")
        if x0 is not _ABSENT and (x0.matrix.shape[0] != object_dim or y0.matrix.shape[0] != object_dim):
            raise ValueError("observable dims do not match the model object dim")
    except AttributeError:
        for name, value, kind in (("model", model, IndirectModel), ("state", state, PureState),
                                  ("x0", x0, HermitianObservable), ("y0", y0, HermitianObservable)):
            if value is not _ABSENT and not isinstance(value, kind):
                raise TypeError(f"{name}: expected {kind.__name__}, got {_brief(value)}") from None
        raise


def composite_input(model: IndirectModel, state: PureState) -> np.ndarray:
    """Amplitudes of the joint input state, object factor first."""
    _check_fit(model, state)
    return np.kron(state.amplitudes, model.probe_state.amplitudes)


def evolve(model: IndirectModel, x0: HermitianObservable, y0: HermitianObservable) -> EvolvedOperators:
    """The operators conjugated by the interaction unitary, each computed on first read.

    The arguments and the measurement values are checked here: a misfit
    raises at the call, as does a value map that is not finite on the meter
    spectrum.
    """
    _check_fit(model, x0=x0, y0=y0)
    model.measurement_values  # computed once per model; read here so a bad value map raises now
    return EvolvedOperators(model, x0, y0)


def build_sigma_phi(phi: float) -> IndirectModel:
    """Two-qubit pointer scheme that records the spin component at angle phi.

    The interaction copies the sigma_phi eigenspace label onto the pointer:
    |psi> (x) |0>  ->  (P+ |psi>) (x) |0> + (P- |psi>) (x) |1>, with meter
    diag(+1, -1) in the pointer basis and identity value map.  With phi
    detuned from 0 this is a deliberately miscalibrated measurement of
    sigma_x.  phi is an angle in radians, read by the real-number rule
    (_real): anything but a finite real raises ValueError.
    """
    sp = sigma_phi_matrix(_real(phi))
    projectors = np.array([ID2 + sp, ID2 - sp]) / 2  # P+ and P-
    # tensor(P+, I) + tensor(P-, X): the same elementwise products, formed in one broadcast
    terms = (projectors[:, :, None, :, None] * _SIGMA_PHI_PROBE_FACTORS).reshape(2, 4, 4)
    u = terms[0] + terms[1]
    return IndirectModel._trusted(2, 2, u, NAMED_QUBIT_STATES["+z"], NAMED_OBSERVABLES["sigma_z"])


@functools.lru_cache(maxsize=32)
def _graded_meter(probe_dim: int) -> HermitianObservable:
    """The integer-graded meter diag(0..probe_dim-1), eigendecomposed once per dimension.

    Models share the returned observable, which is immutable.
    """
    return herm_eig(np.diag(np.arange(probe_dim, dtype=float)))


def _meter_observable(matrix: np.ndarray) -> HermitianObservable:
    """The shared _graded_meter for a meter matrix equal to diag(0..p-1), herm_eig of any other."""
    graded = _graded_meter(len(matrix))
    if matrix is graded.matrix or np.array_equal(matrix, graded.matrix):
        return graded
    return herm_eig(matrix)


def _pointer_window(x0: HermitianObservable, probe_dim: int) -> tuple[int, int]:
    """Pointer levels [lo, hi], never empty, that no shift by an integer x0 eigenvalue moves off the register."""
    if x0.dim * probe_dim > MAX_SHIFT_DIM:
        raise ValueError(f"object dim {x0.dim} * probe_dim {probe_dim} exceeds the shift bound {MAX_SHIFT_DIM}")
    eigs = x0.eigenvalues
    rounded = np.round(eigs)
    if max_abs(eigs - rounded) > 1e-9:
        raise ValueError(f"observable spectrum is not integer: {eigs.tolist()!r}")
    lo, hi = max(0, -int(rounded[0])), min(probe_dim - 1, probe_dim - 1 - int(rounded[-1]))
    if hi < lo:
        raise ValueError(f"probe_dim {probe_dim} leaves no pointer level free of wraparound")
    return lo, hi


def build_shift_model(
    x0: HermitianObservable,
    probe_dim: int,
    probe_state: PureState,
) -> IndirectModel:
    """Pointer-shift readout of an integer-spectrum observable.

    The interaction moves the pointer up by the x0 eigenvalue:
    |x> (x) |k> -> |x> (x) |k + eig(x)>.  Pointer arithmetic must stay inside
    the register: every populated pointer level k must satisfy
    0 <= k + eig <= probe_dim - 1 for every eigenvalue, otherwise the model
    is rejected (wrapping the register would corrupt the calibration).

    The meter is diag(0..probe_dim-1) and the value map subtracts the mean
    initial pointer position, so measurement values line up with the x0
    spectrum.  The interaction permutes pointer levels on each eigenspace of
    x0, so it is unitary as far as x0's eigenvectors are orthonormal.
    """
    probe_dim = _positive(probe_dim, "probe_dim")
    if probe_state.dim != probe_dim:
        raise ValueError("probe state dim does not match probe_dim")
    (lo, hi), u = _shift_interaction(x0, probe_dim)
    # Never empty: _pointer_window caps probe_dim at MAX_SHIFT_DIM = 16^2, so some |amplitude| >= 1/16.
    populated = np.flatnonzero(np.abs(probe_state.amplitudes) > POPULATED_ATOL)
    k_min, k_max = int(populated[0]), int(populated[-1])
    if k_min < lo or k_max > hi:
        raise ValueError(
            f"pointer shift would wrap around the register: populated levels [{k_min}, {k_max}] "
            f"leave the levels [{lo}, {hi}] that every eigenvalue shift keeps in 0..{probe_dim - 1}"
        )
    meter = _graded_meter(probe_dim)
    pointer_mean = float(expectation(probe_state, meter.matrix).real)

    def centered(v: float, _mu: float = pointer_mean) -> float:
        return v - _mu

    return IndirectModel._trusted(x0.dim, probe_dim, u, probe_state, meter, centered)


# Each live observable's last shift interaction, (probe_dim, pointer window, unitary); an entry
# holds at most MAX_SHIFT_DIM^2 complex numbers (1 MiB) and is freed with its observable.
_SHIFT_INTERACTIONS = weakref.WeakKeyDictionary()


def _shift_interaction(x0: HermitianObservable, probe_dim: int) -> tuple[tuple[int, int], np.ndarray]:
    """The pointer window and the read-only interaction unitary of x0's shift readout on probe_dim levels.

    Both depend on (x0, probe_dim) alone, so they are computed once for the
    last probe_dim x0 was read out with.
    """
    cached = _SHIFT_INTERACTIONS.get(x0)
    if cached is not None and cached[0] == probe_dim:
        return cached[1:]
    window = _pointer_window(x0, probe_dim)
    # u[(i, (l + s) % p), (j, l)] += P[i, j] for each eigenspace projector P of
    # x0 and its pointer shift s: the nonzero entries of kron(P, step^s).
    o, levels = x0.dim, np.arange(probe_dim)
    u = np.zeros((o, probe_dim, o, probe_dim), dtype=complex)
    for value, idx in x0._clusters:
        vecs = x0.eigenvectors[:, idx]
        u[:, (levels + int(round(value))) % probe_dim, :, levels] += vecs @ vecs.conj().T
    u = _freeze(u.reshape(o * probe_dim, o * probe_dim))
    _SHIFT_INTERACTIONS[x0] = probe_dim, window, u
    return window, u


def rescale_mvo(model: IndirectModel, f: Callable[[float], float]) -> IndirectModel:
    """Recalibrate measurement values: value_map_x0 becomes f o value_map_x0.

    Everything else, including value_map_xt, is left untouched.  The value
    maps are not part of the validated state, so the recalibrated model
    shares the parent's validated parts.
    """
    old = model.value_map_x0

    def composed(v: float) -> float:
        return float(f(old(v)))

    return IndirectModel._trusted(
        model.object_dim, model.probe_dim, model.unitary, model.probe_state, model.meter,
        composed, model.value_map_xt,
    )


def evolved_amplitudes(model: IndirectModel, vectors: np.ndarray) -> np.ndarray:
    """U (v (x) xi) for each object vector v, in the meter eigenbasis.

    vectors has shape (n, object_dim); entry [j, i, k] of the result is
    (<i| (x) <v_k|) U (vectors[j] (x) xi), where v_k is the k-th meter
    eigenvector.
    """
    n = vectors.shape[0]
    joint = (vectors[:, :, None] * model.probe_state.amplitudes).reshape(n, model.dim)
    evolved = (joint @ model.unitary.T).reshape(n, model.object_dim, model.probe_dim)
    return evolved @ model.meter._conj_eigenvectors


def _evolved_state(model: IndirectModel, state: PureState) -> np.ndarray:
    _check_fit(model, state)
    return evolved_amplitudes(model, state.amplitudes[None, :])[0]


def _readout_groups(meter: HermitianObservable, amps: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per group of meter._readout_layout, the coefficients (n, G, object_dim, k) of evolved states amps
    (n, object_dim, probe_dim) in its G clusters of k columns, and their Born probabilities (n, G).

    One-column clusters are read in place, strided as a slice takes them, since BLAS sums a strided
    vector in another order than a contiguous one; wider ones as the column-major copy an index array
    makes.  A probability adds its coefficients in column-major order.
    """
    n, o, p = amps.shape
    groups = []
    for index in meter._readout_layout[1]:
        by_column = (amps.reshape(n, o, p, 1).transpose(0, 2, 3, 1) if index is None  # (n, G, k, o)
                     else np.ascontiguousarray(amps.swapaxes(1, 2)[:, index]))
        summed = np.ascontiguousarray(by_column).reshape(n, by_column.shape[1], -1)
        groups.append((by_column.swapaxes(2, 3), np.add.reduce(np.square(np.abs(summed)), axis=2)))
    return groups


def readout_clusters(model: IndirectModel, amplitudes: np.ndarray) -> list[tuple[float, np.ndarray, float]]:
    """(readout value, coefficients, Born probability) per meter eigenvalue cluster.

    amplitudes is one evolved state laid out as by evolved_amplitudes; the
    coefficients are its columns in the cluster, object index by
    cluster-internal index.  This is the one-state view of _readout_groups.
    """
    groups = [(coeffs[0], probs[0].tolist()) for coeffs, probs in _readout_groups(model.meter, amplitudes[None])]
    return [(value, groups[g][0][j], groups[g][1][j]) for value, g, j in model.meter._readout_layout[0]]


def readout_probabilities(model: IndirectModel, state: PureState) -> list[tuple[float, float]]:
    """Born probabilities of raw meter eigenvalues, ascending, zeros included."""
    return [(value, prob) for value, _, prob in readout_clusters(model, _evolved_state(model, state))]


def calibrated_outcomes(
    model: IndirectModel, readouts: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Probabilities of calibrated measurement values from raw readout probabilities.

    Raw readouts are passed through value_map_x0; readouts mapping to the
    same value (within a small gap) are merged.  Sorted ascending by value.
    """
    mapped = sorted(
        ((float(model.value_map_x0(value)), prob) for value, prob in readouts), key=lambda vp: vp[0]
    )
    merged: list[tuple[float, float]] = []
    for value, prob in mapped:
        if merged and value - merged[-1][0] <= READOUT_MERGE_GAP:
            merged[-1] = (merged[-1][0], merged[-1][1] + prob)
        else:
            merged.append((value, prob))
    return merged


def outcome_probabilities(model: IndirectModel, state: PureState) -> list[tuple[float, float]]:
    """Probabilities of calibrated measurement values; see calibrated_outcomes."""
    return calibrated_outcomes(model, readout_probabilities(model, state))


def _named_real(obj: object, name: str) -> float:
    """obj read by the real-number rule (_real); its ValueError names the argument."""
    try:
        return _real(obj)
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from None


def _matched_readout(readouts: list, readout: float) -> int:
    """The index, in (value, probability, ...) records, of a raw meter eigenvalue of nonzero probability."""
    for i, (value, prob, *_) in enumerate(readouts):
        if abs(value - readout) <= DEGENERACY_GAP:
            if prob <= ZERO_PROB:
                raise ValueError(f"readout {readout!r} has probability {prob!r}; conditioning undefined")
            return i
    raise ValueError(f"readout {readout!r} is not a meter eigenvalue")


def conditional_post_state(
    model: IndirectModel, state: PureState, readout: float
) -> tuple[MixedState, float]:
    """Object state after observing a raw meter eigenvalue, with its probability.

    Conditioning on an outcome of probability <= ZERO_PROB is undefined and
    rejected.  readout is read by the real-number rule (_real).
    """
    readout, clusters = _named_real(readout, "readout"), readout_clusters(model, _evolved_state(model, state))
    _, coeffs, prob = clusters[_matched_readout([(value, prob) for value, _, prob in clusters], readout)]
    rho = coeffs @ coeffs.conj().T / prob
    return MixedState((rho + rho.conj().T) / 2), prob
