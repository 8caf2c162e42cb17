"""Randomized search for uncertainty-relation violation witnesses.

The optimizer is derivative-free: random draws interleaved with coordinate
moves around the incumbent.  Every 8th evaluation explores (EXPLORE_EVERY);
after each improvement, refine step k moves coordinate k mod n by a quarter
of its range, halved floor(k/2n) times, until the widest step falls below
MIN_STEP = 1e-6; then every evaluation explores until the next improvement.
The candidate stream depends only on the seed and on evaluation history,
never on the budget, so a larger budget extends the same stream: best_slack
is monotone non-increasing in the budget and a fixed (seed, budget) pair
reproduces the result bit for bit.

Each candidate is described as a scenario family, its model parameters and
an object state (random_unitary describes itself as an explicit model with
``model``'s graded meter diag(0..p-1)).  The search evaluates the model that
``scenario.build_model`` makes of that description and writes the witness
document from it, so ``certify`` and ``murel check`` replay the very function
the search evaluated, and the replayed slack is bit-identical.  Nothing is
built twice where the search can tell: each built model and object state
travels with its candidate, so a refine step that moves only object-state
coordinates reuses its parent's model, and one that moves only model
coordinates (the sigma_phi angle, the free shift probe's window angles)
reuses its parent's state.  A family with model coordinates also keeps one
model cache per search, keyed by the described model parameters (phi, or
the probe amplitudes' bytes): at most MODEL_CACHE_SIZE = 64 recalibrated
models, the oldest dropped first, so a step back to a model an earlier
incumbent built takes it from the cache.  random_unitary and the
fixed-probe shift family have no model coordinates and keep no cache.  A
reused model or state is the very result a rebuild would give, so reuse
changes neither the stream nor replay.  The states and Haar unitaries the
search draws or parameterizes are valid by construction, so
``build_model`` assembles them unchecked, and the search makes its states
with an unchecked ``_state_from_angles``; a fixed shift probe is checked
once, at entry.  A refine candidate whose parameters equal
the incumbent's (a coordinate clamped at its bound) is the incumbent: it
takes the incumbent's slack without being built or evaluated, and counts as
an unproductive step.  Refine memo: the refine candidates of one incumbent
share a memo of their results keyed by ``params``, looked up in
``_SpaceImpl.evaluate``; a candidate equal to an evaluated sibling (a later
sweep at one step size that draws the same sign) takes the sibling's slack
without being built or checked.  Such a repeat never improves the
incumbent, which would have replaced the memo, so the memo changes no bit of
the stream or the result.  It holds at most 2nS results (n coordinates, S
step sizes) and goes with its incumbent; an explore draw has no memo and is
always evaluated.  ``SearchResult.evaluations`` counts stream positions,
clamped steps and memo hits included, so it equals the budget.

RNG policy: one PCG64 generator, ``numpy.random.default_rng(seed)``, feeds
the whole candidate stream; results record the generator name.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .linalg import PureState, _freeze
from .model import IndirectModel, _graded_meter, _integer, _pointer_window, _positive, _real
from .relations import DEFAULT_TOL, RelationId, RelationVerdict, _check, _tolerance, check
from .scenario import (
    ScenarioError,
    _at,
    _positive_integer,
    _resolve_observable,
    _value_map,
    build_configuration,
    build_model,
    make_scenario_doc,
    scenario_from_dict,
)

__all__ = [
    "CertificationError",
    "Family",
    "SearchResult",
    "SearchSpace",
    "certify",
    "haar_unitary",
    "random_model",
    "random_pure_state",
    "search_min_slack",
    "substream",
]

MIN_STEP = 1e-6     # coordinate refinement halts below this step size
EXPLORE_EVERY = 8   # every n-th evaluation is a fresh random draw
RNG_NAME = "pcg64"
MAX_RANDOM_MODEL_DIM = 16
CERTIFY_ATOL = 1e-10  # a replayed witness slack may differ from the recorded one by this much
MODEL_CACHE_SIZE = 64  # recalibrated models one search keeps, by their model parameters


class CertificationError(RuntimeError):
    """A witness failed to reproduce its recorded slack."""


class Family(str, Enum):
    SIGMA_PHI = "sigma_phi"
    SHIFT = "shift"
    RANDOM_UNITARY = "random_unitary"


def substream(seed: int, index: int) -> np.random.Generator:
    """Disjoint child generator #index of a root seed (SeedSequence spawn key).

    A public helper that murel itself does not use: the search draws from one
    root generator, ``numpy.random.default_rng(seed)``.  seed and index are
    read by the integer rule (model._integer), and numpy rejects negatives.
    """
    seq = np.random.SeedSequence(_integer(seed), spawn_key=(_integer(index),))
    return np.random.Generator(np.random.PCG64(seq))


def _normalized(z: np.ndarray) -> PureState:
    """The complex vector z divided by its norm, by np.linalg.norm's formula without its wrapper."""
    re, im = z.real, z.imag
    return PureState._trusted(z / math.sqrt(re.dot(re) + im.dot(im)))


def random_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    """Haar-distributed pure state: normalized i.i.d. complex Gaussian vector."""
    dim = _positive(dim, "dim")
    g = rng.normal(size=(2, dim))  # the doubles of two size-dim draws, in their order
    return _normalized(g[0] + 1j * g[1])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phases fixed.

    The QR is numpy.linalg.qr's own, without its wrapper: the gufunc qr_r_raw
    factors the fresh matrix in place, leaving R in its upper triangle, and
    qr_reduced forms Q from it.  A non-finite result raises LinAlgError, as
    np.linalg.qr raises it.
    """
    dim = _positive(dim, "dim")
    g = rng.normal(size=(2, dim, dim))  # the doubles of two (dim, dim) draws, in their order
    z = (g[0] + 1j * g[1]) / np.sqrt(2.0)
    with np.errstate(all="ignore"):
        tau = _umath_linalg.qr_r_raw(z, signature="D->D")
        q = _umath_linalg.qr_reduced(z, tau, signature="DD->D")
        d = z.diagonal()  # R's diagonal, nonzero with probability 1
        u = q * (d / np.abs(d))
    if not np.isfinite(u).all():
        raise LinAlgError("QR factorization gave a non-finite unitary")
    return u


def _check_random_dims(object_dim: int, probe_dim: int) -> tuple[int, int]:
    """The dimensions of a random model, read by the integer rule, as Python ints."""
    object_dim, probe_dim = _integer(object_dim), _integer(probe_dim)
    if object_dim < 2 or probe_dim < 2:
        raise ValueError("random models need object and probe dims >= 2")
    if object_dim * probe_dim > MAX_RANDOM_MODEL_DIM:
        raise ValueError(f"product dimension {object_dim * probe_dim} exceeds {MAX_RANDOM_MODEL_DIM}")
    return object_dim, probe_dim


def _random_interaction(
    object_dim: int, probe_dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, PureState]:
    """Haar-random interaction unitary, then a Haar-random probe state."""
    return haar_unitary(object_dim * probe_dim, rng), random_pure_state(probe_dim, rng)


def random_model(object_dim: int, probe_dim: int, rng: np.random.Generator) -> IndirectModel:
    """Haar-random interaction with a Haar-random probe and an integer-graded meter."""
    object_dim, probe_dim = _check_random_dims(object_dim, probe_dim)
    u, probe = _random_interaction(object_dim, probe_dim, rng)
    return IndirectModel._trusted(object_dim, probe_dim, u, probe, _graded_meter(probe_dim))


def state_from_angles(dim: int, angles) -> PureState:
    """Pure state from 2*dim-2 reals: dim-1 polar angles, then dim-1 phases.

    dim is read by the integer rule and each angle by the real-number rule
    (model._real), so a string, a bool or a non-finite angle raises
    ValueError.
    """
    dim = _positive(dim, "dim")
    angles = [_real(a) for a in angles]
    if len(angles) != 2 * dim - 2:
        raise ValueError(f"need {2 * dim - 2} angles for dim {dim}, got {len(angles)}")
    return _state_from_angles(dim, angles)


def _state_from_angles(dim: int, angles) -> PureState:
    """state_from_angles for 2*dim-2 finite float angles, unchecked; the search's parameters are such."""
    amps = []
    sin_prod = 1.0
    for th in angles[: dim - 1]:
        amps.append(sin_prod * math.cos(th))
        sin_prod *= math.sin(th)
    amps.append(sin_prod)
    for i, al in enumerate(angles[dim - 1 :], start=1):
        # the full complex product, as numpy's complex multiply forms it, signed zeros included
        amps[i] = complex(amps[i]) * complex(math.cos(al), math.sin(al))
    return _normalized(np.array(amps, dtype=complex))


def _state_bounds(dim: int) -> list[tuple[float, float, bool]]:
    polar = [(0.0, math.pi / 2, False)] * (dim - 1)
    phases = [(0.0, 2 * math.pi, True)] * (dim - 1)
    return polar + phases


@dataclass(frozen=True, eq=False)
class SearchSpace:
    """Which configurations the search ranges over.

    probe_dim None is the family's default: 4 for shift, 2 otherwise.
    sigma_phi is a qubit model, so any object_dim or probe_dim other than 2
    is rejected.  x0/y0 default per family ("sigma_x"/"sigma_y" for qubit
    objects; "sigma_z"/"sigma_y" for shift).  value_map composes on top of the
    family's built-in calibration.  For the shift family, probe_state pins
    the probe so only the object state is searched; leave it None to search
    the probe amplitudes as well (restricted to pointer levels that cannot
    wrap the register).  Only the shift family takes a probe_state: sigma_phi
    and random_unitary reject one with a ScenarioError at
    SearchSpace.probe_state.
    """

    family: Family | str
    object_dim: int = 2
    probe_dim: int | None = None
    x0_spec: str | np.ndarray | None = None
    y0_spec: str | np.ndarray | None = None
    value_map_spec: str = "identity"
    probe_state: np.ndarray | None = None


@dataclass(eq=False)
class _Candidate:
    params: tuple[float, ...]
    context: tuple | None = None  # random_unitary: (unitary, probe amplitudes)
    # The recalibrated model and the object state, set on first evaluation; a refine step that moves
    # only state coordinates hands the model on, one that moves only model coordinates the state.
    model: IndirectModel | None = None
    state: PureState | None = None
    # Refine memos, (slack, verdict) by params: siblings is the one a refine candidate shares with its
    # parent's other refine candidates (None for an explore draw), children the one its own share.
    siblings: dict | None = None
    children: dict = field(default_factory=dict)


@functools.lru_cache(maxsize=32)
def _default_pair(family: Family, dim: int) -> tuple[tuple, tuple]:
    """The default x0 and y0 of a family and object dim, each a (spec, observable) pair.

    Resolved once per family and dimension, as _graded_meter is; searches
    share the returned specs and observables, which are immutable.
    """
    if family is Family.SHIFT:
        specs = "sigma_z", "sigma_y"
    elif dim == 2:
        specs = "sigma_x", "sigma_y"
    else:
        step = np.zeros((dim, dim))
        for k in range(dim):
            step[(k + 1) % dim, k] = 1.0
        grade = np.diag(np.arange(dim, dtype=float) - (dim - 1) / 2.0)
        specs = _freeze(grade), _freeze((step + step.T) / 2.0)
    return tuple((spec, _resolve_observable(spec, "SearchSpace")) for spec in specs)


def _step_sizes(widest: float) -> int:
    """How many refine step sizes, widest halved h = 0, 1, ... times, are at least MIN_STEP."""
    return next(h for h in itertools.count() if math.ldexp(widest, -h) < MIN_STEP)


class _SpaceImpl:
    """Family-specific parameterization behind the generic optimizer."""

    def __init__(self, space: SearchSpace):
        self.family = _at("SearchSpace.family", Family, space.family)
        if space.probe_state is not None and self.family is not Family.SHIFT:
            raise ScenarioError(f"{self.family.value} takes no probe_state: only the shift family pins its probe",
                                "SearchSpace.probe_state")
        self.value_map_spec = space.value_map_spec
        self.recalibrate = _value_map(space.value_map_spec, "SearchSpace.value_map_spec")
        probe_dim = space.probe_dim
        if probe_dim is None:
            probe_dim = 4 if self.family is Family.SHIFT else 2
        self.object_dim = _positive_integer(space.object_dim, "SearchSpace.object_dim")
        self.probe_dim = _positive_integer(probe_dim, "SearchSpace.probe_dim")
        if self.family is Family.SIGMA_PHI and (self.object_dim, self.probe_dim) != (2, 2):
            raise ValueError(f"sigma_phi is a qubit model: object_dim and probe_dim must be 2, "
                             f"got {self.object_dim} and {self.probe_dim}")
        if self.family is Family.RANDOM_UNITARY:
            _check_random_dims(self.object_dim, self.probe_dim)
        default_x0, default_y0 = _default_pair(self.family, self.object_dim)
        self.x0_spec, self.x0 = default_x0 if space.x0_spec is None else (
            space.x0_spec, _resolve_observable(space.x0_spec, "SearchSpace.x0_spec"))
        self.y0_spec, self.y0 = default_y0 if space.y0_spec is None else (
            space.y0_spec, _resolve_observable(space.y0_spec, "SearchSpace.y0_spec"))
        for name, obs in (("x0", self.x0), ("y0", self.y0)):
            if obs.dim != self.object_dim:
                raise ScenarioError(f"observable dim {obs.dim} != object_dim {self.object_dim}",
                                    f"SearchSpace.{name}_spec")

        model_b = []  # leading coordinates that change the model, not the state
        if self.family is Family.SIGMA_PHI:
            model_b = [(0.0, 360.0, True)]
        elif self.family is Family.SHIFT:
            lo, hi = self.window = _pointer_window(self.x0, self.probe_dim)
            self.fixed_probe = None
            if space.probe_state is None:
                model_b = _state_bounds(hi - lo + 1)
            else:
                self.fixed_probe = _at("SearchSpace.probe_state", PureState, space.probe_state).amplitudes
                _at("SearchSpace.probe_state", build_model,  # fail fast
                    "shift", {"probe_dim": self.probe_dim, "probe_state": self.fixed_probe}, self.x0)
        self.n_model_params = len(model_b)
        self.bounds = model_b + _state_bounds(self.object_dim)
        self.nparams = len(self.bounds)
        self.lows = np.array([lo for lo, _, _ in self.bounds])
        self.spans = np.array([hi for _, hi, _ in self.bounds]) - self.lows
        # The model cache: recalibrated models in build order, at most MODEL_CACHE_SIZE; a family
        # without model coordinates (random_unitary, fixed-probe shift) keeps none.
        self.models: dict | None = {} if self.n_model_params else None

    def random(self, rng: np.random.Generator) -> _Candidate:
        # Generator.uniform(lows, highs)'s own formula, low + (high - low) * next_double: its bits
        params = tuple((self.lows + self.spans * rng.random(self.nparams)).tolist())
        if self.family is Family.RANDOM_UNITARY:
            u, probe = _random_interaction(self.object_dim, self.probe_dim, rng)
            return _Candidate(params, (u, probe.amplitudes))
        return _Candidate(params)

    def perturb(self, cand: _Candidate, coord: int, step: float, sign: float) -> _Candidate:
        lo, hi, periodic = self.bounds[coord]
        v = cand.params[coord] + sign * step
        if periodic:
            v = lo + ((v - lo) % (hi - lo))
        else:
            v = min(max(v, lo), hi)
        params = list(cand.params)
        params[coord] = float(v)
        if coord < self.n_model_params:  # the child shares its parent's object state
            return _Candidate(tuple(params), cand.context, None, cand.state, cand.children)
        return _Candidate(tuple(params), cand.context, cand.model, None, cand.children)

    def object_state(self, cand: _Candidate) -> PureState:
        """The candidate's object state, made from its angles on first use."""
        if cand.state is None:
            cand.state = _state_from_angles(self.object_dim, cand.params[self.n_model_params :])
        return cand.state

    def build(self, cand: _Candidate) -> IndirectModel:
        """The candidate's recalibrated model, from the model cache if the family keeps one.

        The key is what a build reads besides x0: the phi angle (never -0.0:
        draws and the periodic wrap give +0.0) or the probe amplitudes'
        bytes, so window angles that describe one probe (a polar angle of 0
        mutes the phase) share one model.
        """
        family, params = self.describe(cand)
        models = self.models
        if models is None:
            return self.recalibrate(build_model(family, params, self.x0))
        key = tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in params.values())
        model = models.get(key)
        if model is None:
            if len(models) == MODEL_CACHE_SIZE:
                del models[next(iter(models))]  # the oldest
            model = models[key] = self.recalibrate(build_model(family, params, self.x0))
        return model

    def describe(self, cand: _Candidate) -> tuple[str, dict]:
        """The scenario family and its model_params of a candidate."""
        if self.family is Family.SIGMA_PHI:
            return "sigma_phi", {"phi_degrees": cand.params[0]}
        if self.family is Family.SHIFT:
            probe_amps = self.fixed_probe
            if probe_amps is None:
                lo, hi = self.window
                window_state = _state_from_angles(hi - lo + 1, cand.params[: self.n_model_params])
                probe_amps = np.zeros(self.probe_dim, dtype=complex)
                probe_amps[lo : hi + 1] = window_state.amplitudes
            return "shift", {"probe_dim": self.probe_dim, "probe_state": probe_amps}
        u, probe_amps = cand.context
        params = {"object_dim": self.object_dim, "unitary": u, "probe_state": probe_amps,
                  "meter": _graded_meter(self.probe_dim).matrix}
        return "explicit", params

    def evaluate(self, cand: _Candidate, relation_id, tol: float) -> tuple[float, RelationVerdict]:
        """(slack, verdict) of a candidate; a refine candidate equal to an evaluated sibling takes its result."""
        memo = cand.siblings
        if memo is not None and cand.params in memo:
            return memo[cand.params]
        if cand.model is None:
            cand.model = self.build(cand)
        verdict = _check(relation_id, cand.model, self.object_state(cand), self.x0, self.y0, tol)
        if memo is not None:
            memo[cand.params] = verdict.slack, verdict
        return verdict.slack, verdict

    def scenario_doc(self, cand: _Candidate, tol: float, seed: int, label: str) -> dict:
        family, params = self.describe(cand)
        return make_scenario_doc(
            family=family,
            model_params=params,
            state_spec=self.object_state(cand).amplitudes,
            x0_spec=self.x0_spec,
            y0_spec=self.y0_spec,
            value_map_spec=self.value_map_spec,
            tolerance=tol,
            seed=seed,
            scenario_id=label,
        )


@dataclass(frozen=True, eq=False)
class SearchResult:
    """One search's outcome: the best slack found and, unless the budget was 0, its witness.

    verdict is the witness's verdict, under the tolerance the search ran with.
    """

    relation_id: str
    family: str
    budget: int
    seed: int
    evaluations: int
    best_slack: float
    verdict: RelationVerdict | None
    witness_params: tuple[float, ...] | None
    witness_doc: dict | None
    rng_name: str = RNG_NAME

    def violation_found(self) -> bool:
        """Whether the witness violates the relation, read from its own verdict."""
        return self.verdict is not None and not self.verdict.holds


def search_min_slack(
    relation_id: RelationId | str,
    space: SearchSpace,
    budget: int,
    seed: int,
    *,
    tol: float = DEFAULT_TOL,
) -> SearchResult:
    """Minimize relation slack over a configuration family.

    budget counts configuration evaluations; budget 0 returns a result
    without a witness.  Deterministic in (space, relation, budget, seed).
    The integers budget and seed (never truncated), the space and tol are
    validated before the first evaluation, and no candidate validates them
    again; a candidate whose measurement values leave the scenario bound
    raises ScenarioError, so every evaluated slack is finite.
    """
    rid = RelationId(relation_id)
    budget = _at("budget", _integer, budget)
    seed = _at("seed", _integer, seed)
    for name, value in (("budget", budget), ("seed", seed)):
        if value < 0:
            raise ScenarioError(f"{name} must be nonnegative", name)
    tol = _at("tol", _tolerance, tol)
    impl = _SpaceImpl(space)
    rng = np.random.default_rng(seed)

    best_cand: _Candidate | None = None
    best_slack = math.inf
    best_verdict: RelationVerdict | None = None
    # Refine step k, counted from the last improvement, moves coordinate k % n by widths[k % n]
    # halved k // (2n) times (a power of two divides exactly).  Refinement ends after 2n steps at
    # each of the step sizes whose widest step is still at least MIN_STEP.
    n = impl.nparams
    widths = [(hi - lo) / 4.0 for lo, hi, _ in impl.bounds]
    k_limit = 2 * n * _step_sizes(max(widths, default=0.0))
    k = 0

    for t in range(budget):
        refine = best_cand is not None and k < k_limit and t % EXPLORE_EVERY != 0
        if refine:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            cand = impl.perturb(best_cand, k % n, math.ldexp(widths[k % n], -(k // (2 * n))), sign)
        else:
            cand = impl.random(rng)
        if refine and cand.params == best_cand.params:
            slack, verdict = best_slack, best_verdict  # the incumbent, clamped at a bound
        else:
            slack, verdict = impl.evaluate(cand, rid, tol)
        if not math.isfinite(slack):
            raise ArithmeticError(f"non-finite slack {slack!r} at evaluation {t}")
        if slack < best_slack:
            best_slack, best_cand, best_verdict = slack, cand, verdict
            k = 0
        elif refine:
            k += 1

    found = best_cand is not None
    label = f"witness-{rid.value}-{impl.family.value}-seed{seed}"
    return SearchResult(
        relation_id=rid.value,
        family=impl.family.value,
        budget=budget,
        seed=seed,
        evaluations=budget,
        best_slack=float(best_slack),
        verdict=best_verdict,
        witness_params=best_cand.params if found else None,
        witness_doc=impl.scenario_doc(best_cand, tol, seed, label) if found else None,
    )


def certify(result: SearchResult) -> RelationVerdict:
    """Re-evaluate a witness from its scenario document, from scratch.

    Raises CertificationError if the reproduced slack strays from the
    recorded one by more than CERTIFY_ATOL, or the recorded one is NaN.
    """
    if result.witness_doc is None:
        raise CertificationError("result carries no witness")
    cfg = build_configuration(scenario_from_dict(result.witness_doc))
    verdict = check(result.relation_id, cfg.model, cfg.state, cfg.x0, cfg.y0, tol=cfg.tolerance)
    if not abs(verdict.slack - result.best_slack) <= CERTIFY_ATOL:
        raise CertificationError(
            f"witness does not reproduce: recorded slack {result.best_slack!r}, "
            f"recomputed {verdict.slack!r}"
        )
    return verdict
