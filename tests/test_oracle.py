"""Every reported statistic and verdict side against joint-space oracles.

The oracle builds the Heisenberg operators the textbook way, in plain
numpy: x_t = U^dag (x0 (x) I) U, X_t = U^dag (I (x) M) U, and the
measurement-value operators f(X_t) from a joint-space eigendecomposition of
X_t.  murel evaluates the same quantities from one evolved state in the
probe meter's eigenbasis; the two must agree on random Haar models with
nonlinear value maps that differ between x0 and x_t, and with a meter whose
spectrum repeats an eigenvalue.
"""
from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from murel import (
    IndirectModel,
    MetricsReport,
    PureState,
    RelationId,
    accuracy_commutator_residual,
    check,
    check_all,
    conditional_pairs,
    evolve,
    full_report,
    haar_unitary,
    herm_eig,
)
from murel.metrics import Evaluation

RTOL = 1e-10
EVOLVE_ATOL = 1e-12


def _close(got, want) -> bool:
    return abs(got - want) <= RTOL * max(1.0, abs(want))


def _unit(dim, rng):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def _hermitian(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2


def _draw_configuration(object_dim, probe_dim, seed, eigenstate):
    rng = np.random.default_rng(seed)
    u = haar_unitary(object_dim * probe_dim, rng)
    xi = _unit(probe_dim, rng)
    spectrum = rng.integers(-2, 3, size=probe_dim).astype(float)
    spectrum[-1] = spectrum[0]  # a repeated meter eigenvalue
    q = haar_unitary(probe_dim, rng)
    meter = (q * spectrum) @ q.conj().T
    a, b, c, d = rng.uniform(-1.0, 1.0, size=4)

    def f_x0(v):
        return a * v**3 - b * v + c

    def f_xt(v):
        return math.sin(v) + d * v * v

    x0 = _hermitian(object_dim, rng)
    y0 = _hermitian(object_dim, rng)
    psi = np.linalg.eigh(x0)[1][:, 0] if eigenstate else _unit(object_dim, rng)
    model = IndirectModel(
        object_dim=object_dim,
        probe_dim=probe_dim,
        unitary=u,
        probe_state=PureState(xi),
        meter=herm_eig(meter),
        value_map_x0=f_x0,
        value_map_xt=f_xt,
    )
    raw = dict(u=u, xi=xi, meter=meter, f_x0=f_x0, f_xt=f_xt, x0=x0, y0=y0, psi=psi)
    return model, PureState(psi), herm_eig(x0), herm_eig(y0), raw


def _joint_oracle(raw, object_dim, probe_dim):
    """Every statistic from joint-space operators, in plain numpy."""
    u, xi, psi, x0, y0 = raw["u"], raw["xi"], raw["psi"], raw["x0"], raw["y0"]
    io, ip = np.eye(object_dim), np.eye(probe_dim)
    ud = u.conj().T
    joint = np.kron(psi, xi)
    x_t = ud @ np.kron(x0, ip) @ u
    y_t = ud @ np.kron(y0, ip) @ u
    w, v = np.linalg.eigh(ud @ np.kron(io, raw["meter"]) @ u)

    def value_operator(f):
        return (v * np.array([f(float(e)) for e in w])) @ v.conj().T

    mvo_x0, mvo_xt = value_operator(raw["f_x0"]), value_operator(raw["f_xt"])

    def mean(op, vec):
        return float((vec.conj() @ op @ vec).real)

    def rms(op, vec):
        return float(np.linalg.norm(op @ vec))

    def spread(op, vec):
        return rms(op - mean(op, vec) * np.eye(op.shape[0]), vec)

    def half_commutator(a, b, vec):
        return 0.5 * abs(vec.conj() @ (a @ b - b @ a) @ vec)

    x_joint, y_joint = np.kron(x0, ip), np.kron(y0, ip)
    probe_average = np.kron(io, xi[:, None])  # (I (x) |xi>), so B^dag A B averages A over the probe
    bias_x0 = probe_average.conj().T @ (mvo_x0 - x_joint) @ probe_average
    bias_xt = probe_average.conj().T @ (mvo_xt - x_t) @ probe_average

    eps_x0 = rms(mvo_x0 - x_joint, joint)
    sigma_x0 = spread(x0, psi)
    delta = mean(mvo_x0, joint) - mean(x0, psi)
    report = dict(
        eps_x0=eps_x0,
        eps_xt=rms(mvo_xt - x_t, joint),
        eta_y0=rms(y_t - y_joint, joint),
        sigma_x0=sigma_x0,
        sigma_y0=spread(y0, psi),
        sigma_mvo=spread(mvo_x0, joint),
        delta=delta,
        eps_sys=abs(delta),
        eps_rand=math.sqrt(max(eps_x0**2 - delta**2, 0.0)) if sigma_x0 <= 1e-9 else None,
        unbias_res_x0=float(np.linalg.norm(bias_x0, 2)),
        unbias_res_xt=float(np.linalg.norm(bias_xt, 2)),
    )

    # Conditional resolution per readout: project the probe onto a meter
    # eigenspace after the interaction and trace it out.
    mw, mv = np.linalg.eigh(raw["meter"])
    evolved = u @ joint
    pairs = []
    for value in sorted(set(np.round(mw).tolist())):
        cols = mv[:, np.abs(mw - value) < 1e-6]
        kept = (np.kron(io, cols @ cols.conj().T) @ evolved).reshape(object_dim, probe_dim)
        prob = float(np.linalg.norm(kept) ** 2)
        if prob <= 1e-12:
            continue
        rho = kept @ kept.conj().T / prob
        assigned = raw["f_xt"](value)
        shifted = x0 - assigned * io
        eps = math.sqrt(max(np.trace(rho @ shifted @ shifted).real, 0.0))
        m = np.trace(rho @ x0).real
        sigma = math.sqrt(max(np.trace(rho @ x0 @ x0).real - m * m, 0.0))
        pairs.append((value, prob, eps, sigma))

    ob = half_commutator(x0, y0, psi)
    eb = half_commutator(x_t, y_t, joint)
    eps, eta, sy = report["eps_x0"], report["eta_y0"], report["sigma_y0"]
    worst = min(pairs, key=lambda p: p[2] - p[3])
    sides = {
        RelationId.HEISENBERG_E1: (eps * eta, ob),
        RelationId.OZAWA_E2: (eps * eta + eps * sy + sigma_x0 * eta, ob),
        RelationId.SQL_COND_E3: (worst[2], worst[3]),
        RelationId.RESOLUTION_E4: (report["eps_xt"] * eta, eb),
        RelationId.MVOSTD_E12: (report["sigma_mvo"] * eta, ob),
        RelationId.SUM_E13: ((eps + sigma_x0) * eta, ob),
        RelationId.SQL_E14: (report["sigma_mvo"], sigma_x0),
        RelationId.MENSKY_E17: (report["eps_xt"] * spread(y_t, joint), eb),
        RelationId.ROBERTSON: (sigma_x0 * sy, ob),
    }
    commutator_residual = float(np.linalg.norm(bias_x0 @ y0 - y0 @ bias_x0, 2))
    return report, sides, pairs, commutator_residual, mvo_x0, mvo_xt


@settings(max_examples=80, deadline=None)
@given(
    object_dim=st.integers(2, 4),
    probe_dim=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    eigenstate=st.booleans(),
)
def test_statistics_and_verdicts_match_joint_space_oracle(object_dim, probe_dim, seed, eigenstate):
    model, state, x0, y0, raw = _draw_configuration(object_dim, probe_dim, seed, eigenstate)
    report, sides, pairs, commutator_residual, mvo_x0, mvo_xt = _joint_oracle(raw, object_dim, probe_dim)

    got = full_report(model, state, x0, y0)
    for f in fields(MetricsReport):
        want, value = report[f.name], getattr(got, f.name)
        if want is None:
            assert value is None, f.name
        elif f.name == "eps_rand":
            # sqrt(eps^2 - eps_sys^2) loses half the digits as it nears zero
            # (1e-16 round-off in the squares becomes 1e-8), so compare squares.
            assert _close(value**2, want**2), (f.name, value, want)
        else:
            assert _close(value, want), (f.name, value, want)

    for verdict in check_all(model, state, x0, y0):
        lhs, rhs = sides[RelationId(verdict.relation_id)]
        assert _close(verdict.lhs, lhs), (verdict.relation_id, "lhs", verdict.lhs, lhs)
        assert _close(verdict.rhs, rhs), (verdict.relation_id, "rhs", verdict.rhs, rhs)
        single = check(verdict.relation_id, model, state, x0, y0)
        assert (single.lhs, single.rhs) == (verdict.lhs, verdict.rhs)

    got_pairs = conditional_pairs(model, state, x0)
    assert len(got_pairs) == len(pairs)
    for (value, prob, eps, sigma), want in zip(got_pairs, pairs):
        assert _close(value, want[0])
        for g, w in zip((prob, eps, sigma), want[1:]):
            assert _close(g, w), (value, g, w)

    assert _close(accuracy_commutator_residual(model, x0, y0), commutator_residual)

    ev = evolve(model, x0, y0)
    assert np.max(np.abs(ev.mvo_x0 - mvo_x0)) <= EVOLVE_ATOL
    assert np.max(np.abs(ev.mvo_xt - mvo_xt)) <= EVOLVE_ATOL


@settings(max_examples=80, deadline=None)
@given(object_dim=st.integers(2, 4), probe_dim=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_every_evolved_operator_matches_kron_oracle(object_dim, probe_dim, seed):
    model, _, x0, y0, raw = _draw_configuration(object_dim, probe_dim, seed, eigenstate=False)
    *_, mvo_x0, mvo_xt = _joint_oracle(raw, object_dim, probe_dim)
    u = raw["u"]
    ud, io, ip = u.conj().T, np.eye(object_dim), np.eye(probe_dim)
    want = dict(
        x_t=ud @ np.kron(raw["x0"], ip) @ u,
        X_t=ud @ np.kron(io, raw["meter"]) @ u,
        y_t=ud @ np.kron(raw["y0"], ip) @ u,
        mvo_x0=mvo_x0,
        mvo_xt=mvo_xt,
    )
    ev = evolve(model, x0, y0)
    for name, op in want.items():
        assert np.max(np.abs(getattr(ev, name) - op)) <= EVOLVE_ATOL, name


def _op_norm(a) -> float:
    return float(np.linalg.norm(a, 2))


@settings(max_examples=80, deadline=None)
@given(
    object_dim=st.integers(2, 4),
    probe_dim=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    eigenstate=st.booleans(),
)
def test_ozawa_relation_follows_from_the_commutator_identity_and_robertson_steps(
    object_dim, probe_dim, seed, eigenstate
):
    """Ozawa's relation from joint-space operators alone, step by step.

    f(X_t) commutes with y_t, so with N = f(X_t) - X and D = y_t - Y the
    commutator [X, Y] splits as -[X, Y] = [N, D] + [N, Y] + [X, D], and
    Robertson's inequality bounds each term by a product of the RMS error
    ||N Psi||, the RMS disturbance ||D Psi|| and the spreads of X and Y.
    Every tolerance is RTOL times the operator norms of its terms.
    """
    model, state, x0, y0, raw = _draw_configuration(object_dim, probe_dim, seed, eigenstate)
    *_, mvo_x0, _ = _joint_oracle(raw, object_dim, probe_dim)
    u, ip = raw["u"], np.eye(probe_dim)
    a = mvo_x0
    b = u.conj().T @ np.kron(raw["y0"], ip) @ u
    x, y = np.kron(raw["x0"], ip), np.kron(raw["y0"], ip)
    n, d = a - x, b - y
    psi = np.kron(raw["psi"], raw["xi"])

    def comm(p, q):
        return p @ q - q @ p

    def half_mean(c):
        return 0.5 * abs(np.vdot(psi, c @ psi))

    def rms(p):
        return float(np.linalg.norm(p @ psi))

    def spread(p):
        return rms(p - np.vdot(psi, p @ psi).real * np.eye(p.shape[0]))

    na, nb, nn, nd, nx, ny = (_op_norm(m) for m in (a, b, n, d, x, y))
    assert np.max(np.abs(comm(a, b))) <= RTOL * na * nb
    identity_residual = comm(n, d) + comm(n, y) + comm(x, d) + comm(x, y)
    assert np.max(np.abs(identity_residual)) <= RTOL * (nn * nd + nn * ny + nx * nd + nx * ny)

    eps, eta, sigma_x, sigma_y = rms(n), rms(d), spread(x), spread(y)
    assert half_mean(comm(n, d)) <= eps * eta + RTOL * nn * nd
    assert half_mean(comm(n, y)) <= eps * sigma_y + RTOL * nn * ny
    assert half_mean(comm(x, d)) <= sigma_x * eta + RTOL * nx * nd
    assert half_mean(comm(x, y)) <= eps * eta + eps * sigma_y + sigma_x * eta + RTOL * (
        nn * nd + nn * ny + nx * nd + nx * ny
    )

    ev = Evaluation(model, state, x0, y0)
    assert _close(ev.eps_x0, eps) and _close(ev.eta_y0, eta)
