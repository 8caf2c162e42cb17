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

One record, `Evaluation`, holds these statistics, filled one of two ways,
bit for bit the same.  `Evaluation.__init__` fills it lazily for the
search, `check`, `check_all` and `certify`: one candidate at a time, and
only the statistics a relation reads.  `_table_statistics` fills it at once
for report tables: every statistic of many configurations, one numpy call
each over a leading configuration axis.  On a sigma_phi 2x2 row (2 shared
vCPUs, Python 3.11.7, numpy 2.4.6, one BLAS thread, timeit),
HEISENBERG_E1's sides cost 23 us from an Evaluation and 121 us from a stack
of one, which computes them all; a full row's statistics, outcomes and nine
verdicts cost 107 us from an Evaluation and 25 us per row from a stack of
24.  Both read the readouts, each meter cluster's probability and the
conditional mean and spread of x0 it leaves, from one pass, `_readouts`: a
table calls it with its stack, an Evaluation with a stack of one on the
first read of `readouts`.  The meter keeps its cluster layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import HermitianObservable, MixedState, PureState, _cached, _singular_values, as_complex_matrix
from .linalg import spectral_norm
from .model import ZERO_PROB, IndirectModel, _check_fit, _matched_readout, _named_real, _readout_groups
from .model import calibrated_outcomes, evolved_amplitudes, readout_clusters  # noqa: F401  (stays a metrics name)

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


def _random_part(eps_x0: float, eps_sys: float, sigma_x0: float) -> float | None:
    """eps_rand = sqrt(max(eps^2 - eps_sys^2, 0)) on an eigenstate of x0 (sigma(x0) at most
    EIGENSTATE_SIGMA_ATOL), None elsewhere."""
    if sigma_x0 <= EIGENSTATE_SIGMA_ATOL:
        return math.sqrt(max(eps_x0 * eps_x0 - eps_sys * eps_sys, 0.0))
    return None


def stddev(state: PureState | MixedState, observable) -> float:
    """Standard deviation of an observable, or of a raw finite square operator, in a pure or mixed state."""
    a = (observable.matrix if isinstance(observable, HermitianObservable)
         else as_complex_matrix(observable, name="operator"))
    if a.shape != (state.dim, state.dim):
        raise ValueError(f"operator shape {a.shape} does not match state dim {state.dim}")
    if isinstance(state, PureState):
        return _spread(state.amplitudes, a @ state.amplitudes)
    mean = float(np.trace(state.rho @ a).real)
    b = a - mean * np.eye(a.shape[0])
    var = float(np.trace(state.rho @ b @ b).real)
    return _sqrt_clamped(var, float(np.trace(state.rho @ a @ a).real) + mean * mean)


def _stacked_models(models: list[IndirectModel]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unitaries (n, d, d), probe amplitudes (n, p) and measurement values (n, 2, p) of n models,
    each stacked along a leading axis; a model's values are those of value_map_x0, then value_map_xt."""
    return (np.array([model.unitary for model in models]),
            np.array([model.probe_state.amplitudes for model in models]),
            np.array([model.measurement_values for model in models]))


def _bias_operators(parts: tuple, meter: HermitianObservable, x0s: np.ndarray) -> np.ndarray:
    """Probe-averaged bias operators <xi| f_x0(X_t) - x0 (x) I |xi> and <xi| f_xt(X_t) - x_t |xi>.

    One pair per configuration, stacked (n, 2, o, o), for the _stacked_models
    parts of n models that share object dim, probe dim and meter, and their
    x0 matrices, stacked (n, o, o).  f_x0 and f_xt are a model's two value
    maps.  With K = U (I (x) xi), rows in the object x meter-eigenbasis layout,
    <xi| U^dag (I (x) f(M)) U |xi> = K^dag diag(f) K and
    <xi| x_t |xi> = K^dag (x0 (x) I) K.
    """
    unitaries, probes, values = parts
    n, o, p, d = len(x0s), x0s.shape[1], probes.shape[1], unitaries.shape[1]
    k = np.matvec(unitaries.reshape(n, d, o, p), probes[:, None]).reshape(n, o, p, o)
    k = meter._conj_eigenvectors.T @ k
    kh = k.reshape(n, 1, d, o).conj().swapaxes(2, 3)
    # K^dag diag(f_x0) K, K^dag diag(f_xt) K and K^dag (x0 (x) I) K
    averaged = kh @ np.concatenate(((k[:, None] * values[:, :, None, :, None]).reshape(n, 2, d, o),
                                    (x0s @ k.reshape(n, o, p * o)).reshape(n, 1, d, o)), axis=1)
    return averaged[:, :2] - np.concatenate((x0s[:, None], averaged[:, 2:]), axis=1)


def _model_bias_operators(model: IndirectModel, x0: HermitianObservable) -> np.ndarray:
    """The (2, o, o) _bias_operators of one model and x0."""
    return _bias_operators(_stacked_models([model]), model.meter, x0.matrix[None])[0]


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
    once, on first read, so a caller pays only for what it reads; the bias
    residuals on the first read of `metrics`.  A record of _table_statistics
    has every statistic set at once, and no `amps`.
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
        return _random_part(self.eps_x0, self.eps_sys, self.sigma_x0)

    @_cached
    def sigma_yt(self) -> float:
        return _spread(self.amps, self._y_t_amps)

    @_cached
    def evolved_bound(self) -> float:
        return float(abs(np.vdot(self._x_t_amps, self._y_t_amps).imag))  # 0.5 |<[x_t, y_t]>|

    @_cached
    def metrics(self) -> dict:
        """The MetricsReport fields by name, bias residuals included: a report row's metric cells."""
        res_x0, res_xt = _singular_values(_model_bias_operators(self.model, self.x0))[:, 0].tolist()
        return {"eps_x0": self.eps_x0, "eps_xt": self.eps_xt, "eta_y0": self.eta_y0, "sigma_x0": self.sigma_x0,
                "sigma_y0": self.sigma_y0, "sigma_mvo": self.sigma_mvo, "delta": self.delta,
                "eps_sys": self.eps_sys, "eps_rand": self.eps_rand, "unbias_res_x0": res_x0, "unbias_res_xt": res_xt}

    def report(self) -> MetricsReport:
        return MetricsReport(**self.metrics)

    @_cached
    @np.errstate(divide="ignore", over="ignore", invalid="ignore")  # as _readouts needs
    def readouts(self) -> list[tuple[float, float, float | None, float | None]]:
        return _readouts([self.model], self.amps[None], self.x0.matrix[None])[0]

    def outcome_probabilities(self) -> list[tuple[float, float]]:
        return calibrated_outcomes(self.model, [(value, prob) for value, prob, _, _ in self.readouts])

    def conditional_resolution(self, readout: float) -> tuple[float, float]:
        return self.readouts[_matched_readout(self.readouts, _named_real(readout, "readout"))][2:]  # (eps, sigma)

    def conditional_pairs(self, floor: float = ZERO_PROB) -> list[tuple[float, float, float, float]]:
        """(readout, probability, eps_cond, sigma_cond) of each readout above floor, which is read by the
        real-number rule (_real); a readout at or below ZERO_PROB is skipped for any floor."""
        return self._conditional_pairs(_named_real(floor, "floor"))

    def _conditional_pairs(self, floor: float) -> list[tuple[float, float, float, float]]:
        """conditional_pairs of a floor already read: relations reads its readouts through this."""
        floor = max(floor, ZERO_PROB)
        return [record for record in self.readouts if record[1] > floor]


def _readouts(models: list[IndirectModel], amps: np.ndarray, x0s: np.ndarray) -> list[list[tuple]]:
    """The readout pass of both evaluators: each configuration's record per meter cluster.

    A record is (value, Born probability, eps_cond, sigma_cond), the last two None for an
    impossible readout (probability at most ZERO_PROB).  amps (n, o, p) are the evolved states of
    n configurations of one meter, x0s (n, o, o) their targets.  Each np.vecdot reads its vectors
    with np.vdot's strides, so a record has the per-cluster formula's bits; np.vecdot warns where
    np.vdot does not, and an impossible readout divides by zero, so each caller turns numpy's
    divide, overflow and invalid warnings off.
    """
    groups = []
    for coeffs, probs in _readout_groups(models[0].meter, amps):
        c = coeffs.reshape(*coeffs.shape[:2], -1)  # each cluster's coefficients c and x0 c, as vectors
        x_c = (x0s[:, None] @ coeffs).reshape(c.shape)
        means = np.vecdot(c, x_c).real / probs  # the conditional mean of x0, <c|x0 c> / prob
        gaps = x_c - means[..., None] * c
        groups.append((probs.tolist(), means.tolist(), np.vecdot(gaps, gaps).real.tolist()))
    slots, records = models[0].meter._readout_layout[0], []
    for i, model in enumerate(models):
        row = []
        for value, g, j in slots:
            probs, means, squares = groups[g]
            prob = probs[i][j]
            if prob <= ZERO_PROB:
                row.append((value, prob, None, None))
                continue
            sigma = math.sqrt(squares[i][j]) / math.sqrt(prob)
            try:  # libm pow, as numpy's float64 power calls it: the same bits
                bias_sq = (means[i][j] - float(model.value_map_xt(value))) ** 2
            except OverflowError:  # the error is inf, which the verdict rejects as non-finite
                bias_sq = math.inf
            row.append((value, prob, math.sqrt(sigma * sigma + bias_sq), sigma))
        records.append(row)
    return records


def _table_statistics(configs: list[tuple]) -> list[Evaluation]:
    """An Evaluation of each (model, state, x0, y0) configuration, all set at once, bit for bit the lazy one.

    Each configuration is checked as Evaluation checks it, all before any
    arithmetic; then the configurations that share object dim, probe dim and
    meter are evaluated as one stack, so any list of configurations is one
    stack per shape.
    """
    for config in configs:
        _check_fit(*config)
    groups: dict[tuple, list[int]] = {}
    for i, (model, _, _, _) in enumerate(configs):
        groups.setdefault((model.object_dim, model.probe_dim, model.meter), []).append(i)
    stats: list = [None] * len(configs)
    for members in groups.values():
        for i, row in zip(members, _stacked_statistics([configs[i] for i in members])):
            stats[i] = row
    return stats


# Index arrays of _stacked_statistics' inner products, along its vector axis.  Object space, the
# vectors psi, x0 psi, y0 psi: <psi|x0 psi>, <psi|y0 psi>, <x0 psi|y0 psi>.  Joint space, slots 0-9 as
# named there: the left and right vectors of <amps|f_x0>, <amps|y_t>, <x_t|y_t> and the gaps' squared
# norms; the minuend and subtrahend slots of the eps_x0, eps_xt and eta_y0 gaps; the slots whose spread
# about amps is sigma_mvo and sigma_yt.
_OBJECT_PAIRS = np.array([0, 0, 1]), np.array([1, 2, 2])
_JOINT_PAIRS = np.array([0, 0, 3, 7, 8, 9]), np.array([5, 4, 4, 7, 8, 9])
_GAPS = np.array([5, 6, 4]), np.array([1, 3, 2])
_SPREADS = np.array([5, 4])


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _stacked_statistics(configs: list[tuple]) -> list[Evaluation]:
    """_table_statistics of configurations that share object dim, probe dim and meter.

    Every array statistic comes from numpy calls over a leading configuration
    axis, on Evaluation's operands item for item: np.matvec, stacked matmul
    and np.vecdot make, item for item, the bits of 2-D @ 1-D, 2-D @ 2-D and
    np.vdot, and elementwise arithmetic is the same wherever an item sits.
    Each np.vecdot reads its vectors with the strides np.vdot reads them
    with, since BLAS sums a strided vector in another order.  np.vdot, which
    Evaluation calls, never warns, but np.vecdot warns of an overflow or an
    invalid value, and _readouts divides by an impossible readout's zero
    probability, so the pass runs with those warnings off.  The scalar
    work of each configuration is its own, as in Evaluation.  Each record is
    made as the _trusted constructors make theirs, its statistics, `metrics`
    among them, set by one update: a table pays for no lazy read.
    """
    models = [model for model, _, _, _ in configs]
    meter, n, o = models[0].meter, len(configs), models[0].object_dim
    parts = _stacked_models(models)
    unitaries, probes, values = parts
    psi = np.array([state.amplitudes for _, state, _, _ in configs])
    xy = np.array([(x0.matrix, y0.matrix) for _, _, x0, y0 in configs])  # (n, 2, o, o)
    x0s = xy[:, 0]
    # psi, x0 psi and y0 psi, each evolved to U (v (x) xi) in the meter eigenbasis as evolved_amplitudes does
    vectors = np.concatenate((psi[:, None], np.matvec(xy, psi[:, None])), axis=1)
    joint = (vectors[:, :, :, None] * probes[:, None, None]).reshape(n, 3, -1)
    evolved = (joint @ unitaries.transpose(0, 2, 1)).reshape(n, 3, o, -1) @ meter._conj_eigenvectors
    amps = evolved[:, 0]
    # The joint-space vectors, slots 0-9: amps = U (psi (x) xi), U (x0 psi (x) xi) and U (y0 psi (x) xi);
    # x_t = U x_t (psi (x) xi) = (x0 (x) I) amps and y_t likewise; f_x0 = U f_x0(X_t) (psi (x) xi) and
    # f_xt likewise; then the eps_x0, eps_xt and eta_y0 gaps f_x0 - 1, f_xt - x_t and y_t - 2.
    vecs = np.concatenate((evolved, xy @ amps[:, None], amps[:, None] * values[:, :, None]), axis=1)
    vecs = np.concatenate((vecs, vecs.take(_GAPS[0], 1) - vecs.take(_GAPS[1], 1)), axis=1).reshape(n, 10, -1)

    object_dots = np.vecdot(vectors.take(_OBJECT_PAIRS[0], 1), vectors.take(_OBJECT_PAIRS[1], 1))
    joint_dots = np.vecdot(vecs.take(_JOINT_PAIRS[0], 1), vecs.take(_JOINT_PAIRS[1], 1))
    gaps = [
        vectors[:, 1:] - object_dots.real[:, :2, None] * psi[:, None],  # sigma_x0, sigma_y0
        vecs.take(_SPREADS, 1) - joint_dots.real[:, :2, None] * vecs[:, :1],  # sigma_mvo, sigma_yt
    ]
    object_spreads, joint_spreads = (np.sqrt(np.vecdot(gap, gap).real).tolist() for gap in gaps)

    readouts = _readouts(models, amps, x0s)
    bias_norms = _singular_values(_bias_operators(parts, meter, x0s))[:, :, 0].tolist()
    error_norms = np.sqrt(joint_dots[:, 3:].real).tolist()
    stats = []
    for i, (model, object_dot, joint_dot) in enumerate(zip(models, object_dots.tolist(), joint_dots.tolist())):
        eps_x0, eps_xt, eta_y0 = error_norms[i]
        sigma_x0, sigma_y0 = object_spreads[i]
        delta = joint_dot[0].real - object_dot[0].real
        eps_sys = abs(delta)
        metrics = {"eps_x0": eps_x0, "eps_xt": eps_xt, "eta_y0": eta_y0, "sigma_x0": sigma_x0, "sigma_y0": sigma_y0,
                   "sigma_mvo": joint_spreads[i][0], "delta": delta, "eps_sys": eps_sys,
                   "eps_rand": _random_part(eps_x0, eps_sys, sigma_x0),
                   "unbias_res_x0": bias_norms[i][0], "unbias_res_xt": bias_norms[i][1]}
        ev = object.__new__(Evaluation)
        vars(ev).update(metrics, metrics=metrics, object_bound=abs(object_dot[2].imag),
                        evolved_bound=abs(joint_dot[2].imag), sigma_yt=joint_spreads[i][1],
                        model=model, x0=configs[i][2], readouts=readouts[i])
        stats.append(ev)
    return stats


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
    return spectral_norm(_model_bias_operators(model, x0)[0])


def unbiasedness_residual_xt(model: IndirectModel, x0: HermitianObservable) -> float:
    """Spectral norm of the probe-averaged bias operator for the evolved observable."""
    return spectral_norm(_model_bias_operators(model, x0)[1])


def accuracy_commutator_residual(
    model: IndirectModel, x0: HermitianObservable, y0: HermitianObservable
) -> float:
    """Probe-averaged commutator of the bias operator with the second observable.

    Averaging over the probe commutes with y0 (x) I, so this is the norm of
    [<xi| f(X_t) - x0 (x) I |xi>, y0].  It vanishes for calibration-true
    models; this is the identity that powers the strengthened product/sum
    relations.
    """
    b = _model_bias_operators(model, x0)[0]
    return spectral_norm(b @ y0.matrix - y0.matrix @ b)


def conditional_resolution(
    model: IndirectModel, state: PureState, x0: HermitianObservable, readout: float
) -> tuple[float, float]:
    """(eps_cond, sigma_cond) of the target observable given one readout.

    eps_cond is the RMS gap to the assigned value m = value_map_xt(readout)
    in the conditional post-measurement object state; sigma_cond is the plain
    standard deviation there.  eps_cond^2 = sigma_cond^2 + (mean - m)^2.
    readout is read by the real-number rule (_real).
    """
    return Evaluation(model, state, x0, x0).conditional_resolution(readout)


def conditional_pairs(
    model: IndirectModel, state: PureState, x0: HermitianObservable, *, floor: float = ZERO_PROB
) -> list[tuple[float, float, float, float]]:
    """(readout, probability, eps_cond, sigma_cond) for readouts above the floor.

    A readout at or below ZERO_PROB is impossible and skipped for any floor.
    floor is read by the real-number rule (_real).
    """
    return Evaluation(model, state, x0, x0).conditional_pairs(floor)


def full_report(
    model: IndirectModel, state: PureState, x0: HermitianObservable, y0: HermitianObservable
) -> MetricsReport:
    return Evaluation(model, state, x0, y0).report()
