"""Error, disturbance, and bias statistics of an indirect measurement.

Every statistic of one configuration is read from one `Evaluation`.  Its
`__init__` validates the dimensions and evolves psi (x) xi, x0 psi (x) xi and
y0 psi (x) xi by U once, keeping them in the probe meter's eigenbasis; each
statistic is then computed once, on first read, so a caller that reads one
relation's sides pays for those alone.  In the meter eigenbasis a value map f
acts as column weights f(m_k), by the probe-space spectral identity
f(U^dag (I (x) M) U) = U^dag (I (x) f(M)) U, and the Heisenberg operators
x_t, y_t act as x0, y0 on the object index.  So each RMS quantity is the
norm of an object x probe matrix and each mean an inner product: no
joint-space operator is built or eigendecomposed.  The probe-averaged bias
operators come from K = U (I (x) xi), a d x object_dim matrix.  Norm-based
quantities are exactly nonnegative; the trace-based spread of a mixed state
clamps tiny negative round-off and rejects anything worse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import HermitianObservable, MixedState, PureState, _cached, _singular_values, spectral_norm
from .model import (
    ZERO_PROB,
    IndirectModel,
    _check_fit,
    _matched_readout,
    calibrated_outcomes,
    evolved_amplitudes,
    readout_clusters,
)

__all__ = [
    "Evaluation",
    "MetricsReport",
    "accuracy_commutator_residual",
    "conditional_pairs",
    "conditional_resolution",
    "disturbance_y0",
    "error_x0",
    "error_xt",
    "full_report",
    "mvo_stddev",
    "random_error",
    "stddev",
    "systematic_error",
    "unbiasedness_residual_x0",
    "unbiasedness_residual_xt",
]

EIGENSTATE_SIGMA_ATOL = 1e-9  # sigma(x0) below this counts as an eigenstate


def _sqrt_clamped(value: float, scale: float) -> float:
    """sqrt of a mathematically nonnegative quantity; tolerate round-off only."""
    tol = 1e-12 * max(1.0, abs(scale))
    if value < -tol:
        raise ArithmeticError(f"negative variance {value!r} beyond round-off (scale {scale!r})")
    return math.sqrt(max(value, 0.0))


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of a vector or matrix."""
    return math.sqrt(np.vdot(a, a).real)


def _spread(v: np.ndarray, a_v: np.ndarray) -> float:
    """Standard deviation of Hermitian A in the unit state v, from v and A v."""
    return _norm(a_v - np.vdot(v, a_v).real * v)


def stddev(state: PureState | MixedState, observable) -> float:
    """Standard deviation of an observable in a pure or mixed state."""
    a = np.asarray(observable.matrix if isinstance(observable, HermitianObservable) else observable, complex)
    if a.shape != (state.dim, state.dim):
        raise ValueError(f"operator shape {a.shape} does not match state dim {state.dim}")
    if isinstance(state, PureState):
        return _spread(state.amplitudes, a @ state.amplitudes)
    mean = float(np.trace(state.rho @ a).real)
    b = a - mean * np.eye(a.shape[0])
    var = float(np.trace(state.rho @ b @ b).real)
    return _sqrt_clamped(var, float(np.trace(state.rho @ a @ a).real) + mean * mean)


def _bias_operators(model: IndirectModel, x0: HermitianObservable) -> np.ndarray:
    """Probe-averaged bias operators <xi| f_x0(X_t) - x0 (x) I |xi> and <xi| f_xt(X_t) - x_t |xi>, stacked.

    f_x0 and f_xt are the model's two value maps.  With K = U (I (x) xi),
    rows in the object x meter-eigenbasis layout,
    <xi| U^dag (I (x) f(M)) U |xi> = K^dag diag(f) K and
    <xi| x_t |xi> = K^dag (x0 (x) I) K.  Value maps that share one
    measurement-values array are averaged once.
    """
    o, p, d = model.object_dim, model.probe_dim, model.dim
    k = (model.unitary.reshape(d, o, p) @ model.probe_state.amplitudes).reshape(o, p, o)
    k = model.meter.eigenvectors.conj().T @ k
    kh = k.reshape(d, o).conj().T

    values_x0, values_xt = model.measurement_values
    avg_x0 = kh @ (k * values_x0[:, None]).reshape(d, o)
    avg_xt = avg_x0 if values_xt is values_x0 else kh @ (k * values_xt[:, None]).reshape(d, o)
    x_avg = kh @ (x0.matrix @ k.reshape(o, p * o)).reshape(d, o)
    return np.array([avg_x0 - x0.matrix, avg_xt - x_avg])


@dataclass(frozen=True)
class MetricsReport:
    """One configuration's error/disturbance statistics.

    eps_rand is None whenever the input state is not an eigenstate of the
    target observable (the systematic/random split is undefined there).
    """

    eps_x0: float
    eps_xt: float
    eta_y0: float
    sigma_x0: float
    sigma_y0: float
    sigma_mvo: float
    delta: float
    eps_sys: float
    eps_rand: float | None
    unbias_res_x0: float
    unbias_res_xt: float


class Evaluation:
    """All statistics of one (model, state, x0, y0) configuration.

    `__init__` validates the dimensions and evolves the input state to `amps`
    (object index by meter eigenvector index).  Each statistic (the report
    fields, the commutator bounds, sigma(y_t) and the readouts) is computed
    once, on first read, so a caller pays only for what it reads.  Bias
    residuals are computed on request.
    """

    def __init__(
        self, model: IndirectModel, state: PureState, x0: HermitianObservable, y0: HermitianObservable
    ):
        _check_fit(model, state, x0, y0)
        self.model, self.x0, self._y0 = model, x0, y0
        psi = state.amplitudes
        x_psi, y_psi = x0.matrix @ psi, y0.matrix @ psi
        self.amps, self._x_amps, self._y_amps = evolved_amplitudes(model, np.array([psi, x_psi, y_psi]))
        self._psi, self._x_psi, self._y_psi = psi, x_psi, y_psi

    # U x_t (psi (x) xi) = (x0 (x) I) U (psi (x) xi), and likewise for y_t
    @_cached
    def _x_t_amps(self) -> np.ndarray:
        return self.x0.matrix @ self.amps

    @_cached
    def _y_t_amps(self) -> np.ndarray:
        return self._y0.matrix @ self.amps

    @_cached
    def _mvo_amps(self) -> np.ndarray:
        return self.amps * self.model.measurement_values[0]  # U f(X_t) (psi (x) xi)

    @_cached
    def _mvo_mean(self) -> float:
        return float(np.vdot(self.amps, self._mvo_amps).real)

    @_cached
    def sigma_x0(self) -> float:
        return _spread(self._psi, self._x_psi)

    @_cached
    def sigma_y0(self) -> float:
        return _spread(self._psi, self._y_psi)

    @_cached
    def object_bound(self) -> float:
        return float(abs(np.vdot(self._x_psi, self._y_psi).imag))  # 0.5 |<[x0, y0]>|

    @_cached
    def eps_x0(self) -> float:
        return _norm(self._mvo_amps - self._x_amps)

    @_cached
    def eps_xt(self) -> float:
        return _norm(self.amps * self.model.measurement_values[1] - self._x_t_amps)

    @_cached
    def eta_y0(self) -> float:
        return _norm(self._y_t_amps - self._y_amps)

    @_cached
    def sigma_mvo(self) -> float:
        return _norm(self._mvo_amps - self._mvo_mean * self.amps)

    @_cached
    def delta(self) -> float:
        return self._mvo_mean - float(np.vdot(self._psi, self._x_psi).real)

    @_cached
    def eps_sys(self) -> float:
        return abs(self.delta)

    @_cached
    def eps_rand(self) -> float | None:
        return (
            math.sqrt(max(self.eps_x0 * self.eps_x0 - self.eps_sys * self.eps_sys, 0.0))
            if self.sigma_x0 <= EIGENSTATE_SIGMA_ATOL
            else None
        )

    @_cached
    def sigma_yt(self) -> float:
        return _spread(self.amps, self._y_t_amps)

    @_cached
    def evolved_bound(self) -> float:
        return float(abs(np.vdot(self._x_t_amps, self._y_t_amps).imag))  # 0.5 |<[x_t, y_t]>|

    def report(self) -> MetricsReport:
        res_x0, res_xt = _singular_values(_bias_operators(self.model, self.x0))[:, 0].tolist()
        return MetricsReport(
            self.eps_x0, self.eps_xt, self.eta_y0, self.sigma_x0, self.sigma_y0, self.sigma_mvo,
            self.delta, self.eps_sys, self.eps_rand, res_x0, res_xt,
        )

    @_cached
    def readouts(self) -> list[tuple[float, np.ndarray, float]]:
        return readout_clusters(self.model, self.amps)

    def outcome_probabilities(self) -> list[tuple[float, float]]:
        return calibrated_outcomes(self.model, [(value, prob) for value, _, prob in self.readouts])

    def _conditional(self, readout: float, coeffs: np.ndarray, prob: float) -> tuple[float, float]:
        """(eps_cond, sigma_cond) in the conditional object state coeffs coeffs^dag / prob, prob > ZERO_PROB."""
        assigned = float(self.model.value_map_xt(float(readout)))
        x_coeffs = self.x0.matrix @ coeffs
        mean = float(np.vdot(coeffs, x_coeffs).real) / prob
        sigma = _norm(x_coeffs - mean * coeffs) / math.sqrt(prob)
        try:
            bias_sq = (mean - assigned) ** 2  # libm pow, as numpy's float64 power calls it: the same bits
        except OverflowError:  # the error is inf, which the verdict rejects as non-finite
            bias_sq = math.inf
        return math.sqrt(sigma * sigma + bias_sq), sigma

    def conditional_resolution(self, readout: float) -> tuple[float, float]:
        return self._conditional(readout, *_matched_readout(self.readouts, readout))

    def conditional_pairs(self, floor: float = ZERO_PROB) -> list[tuple[float, float, float, float]]:
        return [
            (value, prob, *self._conditional(value, coeffs, prob))
            for value, coeffs, prob in self.readouts
            if prob > max(floor, ZERO_PROB)
        ]


def error_x0(model: IndirectModel, state: PureState, x0: HermitianObservable) -> float:
    """RMS gap between assigned measurement values and the pre-interaction observable."""
    return Evaluation(model, state, x0, x0).eps_x0


def error_xt(model: IndirectModel, state: PureState, x0: HermitianObservable) -> float:
    """RMS gap between assigned values and the post-interaction observable."""
    return Evaluation(model, state, x0, x0).eps_xt


def disturbance_y0(model: IndirectModel, state: PureState, y0: HermitianObservable) -> float:
    """RMS change the interaction imposes on a second object observable."""
    return Evaluation(model, state, y0, y0).eta_y0


def mvo_stddev(model: IndirectModel, state: PureState, x0: HermitianObservable) -> float:
    """Standard deviation of the assigned measurement values."""
    return Evaluation(model, state, x0, x0).sigma_mvo


def systematic_error(model: IndirectModel, state: PureState, x0: HermitianObservable) -> tuple[float, float]:
    """(delta, |delta|): mean assigned value minus mean of the target observable."""
    ev = Evaluation(model, state, x0, x0)
    return ev.delta, ev.eps_sys


def random_error(model: IndirectModel, state: PureState, x0: HermitianObservable) -> float:
    """Statistical error component on an eigenstate of the target observable.

    Defined only where sigma(x0) vanishes; there the total error splits into
    a systematic mean offset and this residual spread:
    eps_rand = sqrt(max(eps^2 - eps_sys^2, 0)).
    """
    ev = Evaluation(model, state, x0, x0)
    if ev.eps_rand is None:
        raise ValueError(f"random error undefined: sigma(x0) = {ev.sigma_x0!r} > {EIGENSTATE_SIGMA_ATOL}")
    return ev.eps_rand


def unbiasedness_residual_x0(model: IndirectModel, x0: HermitianObservable) -> float:
    """Spectral norm of the probe-averaged bias operator for x0.

    Zero iff assigned values are calibration-true for every object state.
    """
    return spectral_norm(_bias_operators(model, x0)[0])


def unbiasedness_residual_xt(model: IndirectModel, x0: HermitianObservable) -> float:
    """Spectral norm of the probe-averaged bias operator for the evolved observable."""
    return spectral_norm(_bias_operators(model, x0)[1])


def accuracy_commutator_residual(
    model: IndirectModel, x0: HermitianObservable, y0: HermitianObservable
) -> float:
    """Probe-averaged commutator of the bias operator with the second observable.

    Averaging over the probe commutes with y0 (x) I, so this is the norm of
    [<xi| f(X_t) - x0 (x) I |xi>, y0].  It vanishes for calibration-true
    models; this is the identity that powers the strengthened product/sum
    relations.
    """
    b = _bias_operators(model, x0)[0]
    return spectral_norm(b @ y0.matrix - y0.matrix @ b)


def conditional_resolution(
    model: IndirectModel, state: PureState, x0: HermitianObservable, readout: float
) -> tuple[float, float]:
    """(eps_cond, sigma_cond) of the target observable given one readout.

    eps_cond is the RMS gap to the assigned value m = value_map_xt(readout)
    in the conditional post-measurement object state; sigma_cond is the plain
    standard deviation there.  eps_cond^2 = sigma_cond^2 + (mean - m)^2.
    """
    return Evaluation(model, state, x0, x0).conditional_resolution(readout)


def conditional_pairs(
    model: IndirectModel, state: PureState, x0: HermitianObservable, *, floor: float = ZERO_PROB
) -> list[tuple[float, float, float, float]]:
    """(readout, probability, eps_cond, sigma_cond) for readouts above the floor.

    A readout at or below ZERO_PROB is impossible and skipped for any floor.
    """
    return Evaluation(model, state, x0, x0).conditional_pairs(floor)


def full_report(
    model: IndirectModel, state: PureState, x0: HermitianObservable, y0: HermitianObservable
) -> MetricsReport:
    return Evaluation(model, state, x0, y0).report()
