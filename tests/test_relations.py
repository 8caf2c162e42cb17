from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_pure, random_state_vector
from murel.linalg import PureState, herm_eig, max_abs, tensor
from murel.model import (
    IndirectModel,
    build_shift_model,
    build_sigma_phi,
    named_qubit_state,
    pauli_observable,
    rescale_mvo,
)
from murel.metrics import Evaluation, full_report, unbiasedness_residual_x0
from murel.relations import _SIDES, DEFAULT_TOL, READOUT_FLOOR, RelationId, check, check_all
from murel.scenario import apply_value_map
from murel.search import random_model, random_pure_state

SX = pauli_observable("sigma_x")
SY = pauli_observable("sigma_y")
SZ = pauli_observable("sigma_z")

UNIVERSAL = (RelationId.OZAWA_E2, RelationId.MENSKY_E17, RelationId.ROBERTSON)


def random_sign_observable(dim: int, rng: np.random.Generator):
    """Random Hermitian with +-1 spectrum (a generalized spin component)."""
    signs = rng.choice([-1.0, 1.0], size=dim)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1)), 1.0)
    return herm_eig((q * signs) @ q.conj().T)


class TestVerdictStructure:
    def test_slack_and_holds_convention(self):
        m = build_sigma_phi(math.radians(90.0))
        v = check(RelationId.SQL_E14, m, named_qubit_state("+y"), SX, SY)
        assert v.slack == pytest.approx(v.lhs - v.rhs, abs=1e-15)
        assert v.slack == pytest.approx(-1.0, abs=1e-9)
        assert not v.holds
        assert v.tol == DEFAULT_TOL

    def test_tolerance_is_respected(self):
        m = build_sigma_phi(math.radians(90.0))
        v = check(RelationId.SQL_E14, m, named_qubit_state("+y"), SX, SY, tol=2.0)
        assert v.holds

    def test_string_ids_accepted(self):
        m = build_sigma_phi(0.2)
        v = check("ROBERTSON", m, named_qubit_state("+z"), SX, SY)
        assert v.relation_id == "ROBERTSON"

    def test_unknown_id_rejected(self):
        m = build_sigma_phi(0.2)
        with pytest.raises(ValueError):
            check("NOT_A_RELATION", m, named_qubit_state("+z"), SX, SY)

    def test_check_all_order_matches_declaration(self):
        m = build_sigma_phi(0.3)
        verdicts = check_all(m, named_qubit_state("+x"), SX, SY)
        assert [v.relation_id for v in verdicts] == [r.value for r in RelationId]


class TestKnownVerdicts:
    def test_heisenberg_violated_at_right_angle_on_z(self):
        m = build_sigma_phi(math.radians(90.0))
        v = check(RelationId.HEISENBERG_E1, m, named_qubit_state("+z"), SX, SY)
        assert v.slack == pytest.approx(-1.0, abs=1e-9)
        assert not v.holds

    def test_heisenberg_violated_at_zero_detuning_on_z(self):
        # the calibrated measurement has zero error, so eps * eta = 0 < 1
        m = build_sigma_phi(0.0)
        v = check(RelationId.HEISENBERG_E1, m, named_qubit_state("+z"), SX, SY)
        assert v.slack == pytest.approx(-1.0, abs=1e-9)

    def test_mvo_spread_relation_violated_at_right_angle(self):
        m = build_sigma_phi(math.radians(90.0))
        v = check(RelationId.MVOSTD_E12, m, named_qubit_state("+z"), SX, SY)
        assert v.slack == pytest.approx(-1.0, abs=1e-9)

    def test_ozawa_holds_on_the_same_configurations(self):
        for phi_deg, label in [(90.0, "+z"), (0.0, "+z"), (90.0, "+y"), (40.0, "+x")]:
            m = build_sigma_phi(math.radians(phi_deg))
            v = check(RelationId.OZAWA_E2, m, named_qubit_state(label), SX, SY)
            assert v.holds, (phi_deg, label, v.slack)

    @pytest.mark.parametrize("phi_deg", [0.0, 25.0, 40.0, 65.0, 90.0])
    @pytest.mark.parametrize("label", ["+x", "-x", "+y", "-y", "+z", "-z"])
    def test_conditional_sql_holds_for_pointer_scheme(self, phi_deg, label):
        m = build_sigma_phi(math.radians(phi_deg))
        v = check(RelationId.SQL_COND_E3, m, named_qubit_state(label), SX, SY)
        assert v.holds, (phi_deg, label, v.slack)

    def test_conditional_sql_equality_at_zero_detuning(self):
        m = build_sigma_phi(0.0)
        v = check(RelationId.SQL_COND_E3, m, named_qubit_state("+z"), SX, SY)
        assert v.slack == pytest.approx(0.0, abs=1e-9)

    def test_conditional_sql_needs_a_likely_readout(self):
        m = build_sigma_phi(0.3)
        with pytest.raises(ValueError, match="no readout above"):
            check(
                RelationId.SQL_COND_E3, m, named_qubit_state("+z"), SX, SY, readout_floor=2.0
            )

    def test_robertson_bound_value(self):
        v = check(RelationId.ROBERTSON, build_sigma_phi(0.1), named_qubit_state("+z"), SX, SY)
        assert v.lhs == pytest.approx(1.0, abs=1e-9)
        assert v.rhs == pytest.approx(1.0, abs=1e-9)


class TestRescaleContrast:
    """Recalibrating values leaves error-based relations intact but not the
    spread-based ones: the assigned numbers can be made arbitrarily wrong
    without touching the interaction."""

    def test_scaling_up_keeps_ozawa_but_not_spread_relations(self):
        base = build_sigma_phi(math.radians(90.0))
        scaled = rescale_mvo(base, lambda v: 100.0 * v)
        psi = named_qubit_state("+z")
        e2 = check(RelationId.OZAWA_E2, scaled, psi, SX, SY)
        e12 = check(RelationId.MVOSTD_E12, scaled, psi, SX, SY)
        e13 = check(RelationId.SUM_E13, scaled, psi, SX, SY)
        assert e2.holds
        assert not e12.holds
        assert not e13.holds

    def test_shrinking_values_breaks_spread_relations_on_unbiased_model(self):
        # x0 has two pointer shifts; a wide probe makes the pointer spread
        # dominate, and shrinking every value by 100 crushes sigma(values)
        # below the Robertson bound while the interaction stays disturbing.
        probe_dim = 34
        window = np.zeros(probe_dim, dtype=complex)
        window[:32] = 1.0 / np.sqrt(32.0)
        x0 = herm_eig(np.diag([0.0, 1.0]))
        base = build_shift_model(x0, probe_dim, PureState(window))
        scaled = rescale_mvo(base, lambda v: v / 100.0)
        psi = PureState(np.array([math.sqrt(0.9), math.sqrt(0.1)], dtype=complex))
        e2 = check(RelationId.OZAWA_E2, scaled, psi, x0, SY)
        e12 = check(RelationId.MVOSTD_E12, scaled, psi, x0, SY)
        e13 = check(RelationId.SUM_E13, scaled, psi, x0, SY)
        assert e2.holds
        assert e12.slack < -0.1
        assert e13.slack < -0.1


class TestUniversality:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_universal_relations_on_random_models(self, seed):
        rng = np.random.default_rng(seed)
        object_dim = int(rng.integers(2, 5))
        probe_dim = int(rng.integers(2, 5))
        model = random_model(object_dim, probe_dim, rng)
        x0 = random_sign_observable(object_dim, rng)
        y0 = random_sign_observable(object_dim, rng)
        psi = random_pure_state(object_dim, rng)
        for rid in UNIVERSAL:
            v = check(rid, model, psi, x0, y0)
            assert v.slack >= -1e-9, (rid, v.slack)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_ozawa_survives_arbitrary_value_maps(self, seed):
        rng = np.random.default_rng(seed)
        model = rescale_mvo(random_model(2, 3, rng), lambda v: v * v - 1.0)
        x0 = random_sign_observable(2, rng)
        y0 = random_sign_observable(2, rng)
        psi = random_pure_state(2, rng)
        for rid in (RelationId.OZAWA_E2, RelationId.MENSKY_E17):
            v = check(rid, model, psi, x0, y0)
            assert v.slack >= -1e-9, (rid, v.slack)


class TestUnbiasedGuarantees:
    # HEISENBERG_E1 is deliberately absent: unbiasedness does not rescue the
    # bare error-disturbance product (see the pinned counterexample below).
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_spread_relations_hold_for_pointer_shift_models(self, seed):
        rng = np.random.default_rng(seed)
        x0 = herm_eig(np.diag([0.0, 1.0]))
        probe = PureState(np.concatenate([random_state_vector(3, rng), [0.0]]))
        model = build_shift_model(x0, 4, probe)
        y0 = herm_eig(random_hermitian(2, rng))
        psi = random_pure(2, rng)
        for rid in (
            RelationId.RESOLUTION_E4,
            RelationId.MVOSTD_E12,
            RelationId.SUM_E13,
            RelationId.SQL_E14,
        ):
            v = check(rid, model, psi, x0, y0)
            assert v.slack >= -1e-9, (rid, v.slack)

    def test_unbiasedness_does_not_rescue_the_bare_product(self):
        # Found by the property test above before HEISENBERG_E1 was removed
        # from its claim list: a calibration-true shift model that violates
        # the bare product while every guaranteed relation holds.
        rng = np.random.default_rng(358)
        x0 = herm_eig(np.diag([0.0, 1.0]))
        probe = PureState(np.concatenate([random_state_vector(3, rng), [0.0]]))
        model = build_shift_model(x0, 4, probe)
        y0 = herm_eig(random_hermitian(2, rng))
        psi = random_pure(2, rng)
        assert unbiasedness_residual_x0(model, x0) <= 1e-12
        e1 = check(RelationId.HEISENBERG_E1, model, psi, x0, y0)
        assert not e1.holds
        assert e1.slack == pytest.approx(-0.014560307432276987, abs=1e-12)
        for rid in (
            RelationId.OZAWA_E2,
            RelationId.RESOLUTION_E4,
            RelationId.MVOSTD_E12,
            RelationId.SUM_E13,
            RelationId.SQL_E14,
            RelationId.MENSKY_E17,
        ):
            assert check(rid, model, psi, x0, y0).holds, rid

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_sum_bound_dominates_spread_bound(self, seed):
        rng = np.random.default_rng(seed)
        x0 = herm_eig(np.diag([0.0, 1.0]))
        probe = PureState(np.concatenate([random_state_vector(3, rng), [0.0]]))
        model = build_shift_model(x0, 4, probe)
        y0 = herm_eig(random_hermitian(2, rng))
        psi = random_pure(2, rng)
        lhs13 = check(RelationId.SUM_E13, model, psi, x0, y0).lhs
        lhs12 = check(RelationId.MVOSTD_E12, model, psi, x0, y0).lhs
        assert lhs13 >= lhs12 - 1e-12


class TestBasisInvariance:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.05, math.pi / 2))
    def test_slacks_invariant_under_object_basis_change(self, seed, phi):
        rng = np.random.default_rng(seed)
        m = build_sigma_phi(phi)
        psi = random_pure(2, rng)
        before = check_all(m, psi, SX, SY)

        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w, _ = np.linalg.qr(z)
        rotated = IndirectModel(
            object_dim=2,
            probe_dim=2,
            unitary=tensor(w.conj().T, np.eye(2)) @ m.unitary @ tensor(w, np.eye(2)),
            probe_state=m.probe_state,
            meter=m.meter,
            value_map_x0=m.value_map_x0,
            value_map_xt=m.value_map_xt,
        )
        psi_r = PureState(w.conj().T @ psi.amplitudes)
        x0_r = herm_eig(w.conj().T @ SX.matrix @ w)
        y0_r = herm_eig(w.conj().T @ SY.matrix @ w)
        after = check_all(rotated, psi_r, x0_r, y0_r)
        for va, vb in zip(before, after):
            assert va.slack == pytest.approx(vb.slack, abs=1e-9), va.relation_id


# Object x probe dims of random models, product at most 16.
RANDOM_DIMS = [(o, p) for o in range(2, 9) for p in range(2, 9) if o * p <= 16]
REPORT_FIELDS = (
    "eps_x0", "eps_xt", "eta_y0", "sigma_x0", "sigma_y0", "sigma_mvo", "delta", "eps_sys", "eps_rand",
)


class TestOnDemandStatistics:
    """Each statistic is computed on first read, with the same value whatever reads it first."""

    @staticmethod
    def configuration(seed, dims, value_map):
        rng = np.random.default_rng(seed)
        object_dim, probe_dim = dims
        model = apply_value_map(random_model(object_dim, probe_dim, rng), value_map)
        x0 = herm_eig(random_hermitian(object_dim, rng))
        y0 = herm_eig(random_hermitian(object_dim, rng))
        return model, random_pure_state(object_dim, rng), x0, y0

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(RANDOM_DIMS),
        st.sampled_from(["identity", "scale:2", "center_on_meter_mean"]),
    )
    def test_check_matches_check_all_bit_for_bit(self, seed, dims, value_map):
        model, psi, x0, y0 = self.configuration(seed, dims, value_map)
        for rid, whole in zip(RelationId, check_all(model, psi, x0, y0)):
            alone = check(rid, model, psi, x0, y0)
            assert alone.relation_id == whole.relation_id
            for side in ("lhs", "rhs", "slack"):
                assert getattr(alone, side).hex() == getattr(whole, side).hex(), (rid, side)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(RANDOM_DIMS),
        st.sampled_from(["identity", "scale:2", "center_on_meter_mean"]),
    )
    def test_report_does_not_depend_on_read_order(self, seed, dims, value_map):
        model, psi, x0, y0 = self.configuration(seed, dims, value_map)
        ev = Evaluation(model, psi, x0, y0)
        reversed_reads = {name: getattr(ev, name) for name in reversed(REPORT_FIELDS)}
        report = full_report(model, psi, x0, y0)
        assert reversed_reads == {name: getattr(report, name) for name in REPORT_FIELDS}
        assert ev.report() == report

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(RANDOM_DIMS))
    def test_heisenberg_reads_only_its_own_statistics(self, seed, dims):
        model, psi, x0, y0 = self.configuration(seed, dims, "identity")
        ev = Evaluation(model, psi, x0, y0)
        _SIDES[RelationId.HEISENBERG_E1](ev, READOUT_FLOOR)
        computed = vars(ev)
        assert {"eps_x0", "eta_y0", "object_bound"} <= computed.keys()
        for name in ("sigma_x0", "eps_xt", "sigma_mvo", "sigma_yt", "evolved_bound"):
            assert name not in computed, name
