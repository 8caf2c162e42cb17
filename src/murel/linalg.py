"""Dense complex linear algebra on small finite-dimensional Hilbert spaces.

Operators are plain complex ndarrays; observables additionally carry a frozen
eigendecomposition so spectral functions and outcome enumeration stay cheap
and mutually consistent.  Composite indices are object-major throughout:
``|i> (x) |k>`` of an object/probe product sits at flat index
``i * probe_dim + k``, which matches ``numpy.kron(object_factor, probe_factor)``.

All containers are immutable after construction and every function is pure.

Trusted construction: user input is validated only where it enters the
system, at scenario parsing and in the public constructors, which check
every field.  Each container also has a private ``_trusted`` constructor
that skips those checks and freezes the arrays it is handed in place.  Only
code whose output is valid by construction may call it, such as ``eigh``'s
result, a normalized state, a Haar unitary, a model interaction assembled
from projectors and permutations, or ``scenario.build_model``'s parts, which
the ``Scenario`` constructor checked; that is how the search loop builds
unchecked.  ``Scenario._trusted`` is the scenario record's own: it serves
the literal fields of the reference table and ``make_scenario_doc``, which
writes the fields it is given unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = [
    "DEGENERACY_GAP",
    "HermitianObservable",
    "MixedState",
    "PureState",
    "adjoint",
    "apply_spectral",
    "as_complex_matrix",
    "commutator",
    "eigen_clusters",
    "expectation",
    "herm_eig",
    "max_abs",
    "probe_partial_expectation",
    "spectral_norm",
    "tensor",
]

HERM_STORE_ATOL = 1e-12   # hermiticity required of stored observable matrices
HERM_ACCEPT_ATOL = 1e-10  # drift tolerated on herm_eig input before rejection
RECON_ATOL = 1e-10        # eigendecomposition must reconstruct to this
STATE_NORM_ATOL = 1e-12
DEGENERACY_GAP = 1e-9     # eigenvalues closer than this form one cluster


def as_complex_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a square, finite, complex ndarray (copies its input)."""
    arr = np.array(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    return arr


def max_abs(a) -> float:
    """Largest |entry|, 0.0 for an empty array; np.max's own reduction, without its wrapper."""
    a = np.asarray(a)
    return float(np.maximum.reduce(np.abs(a), axis=None)) if a.size else 0.0


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a complex matrix, or of each matrix of a stack, descending.

    The gufunc svd that numpy.linalg.svd(a, compute_uv=False) calls, without
    its wrapper; the NaNs it returns where LAPACK does not converge raise
    LinAlgError, as svd does.
    """
    with np.errstate(all="ignore"):
        s = _umath_linalg.svd(a, signature="D->d")
    if np.isnan(s).any():
        raise LinAlgError("SVD did not converge")
    return s


def spectral_norm(a) -> float:
    """Largest singular value of a matrix."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    if a.ndim != 2:
        raise LinAlgError(f"{a.ndim}-dimensional array given. Array must be two-dimensional")
    return float(_singular_values(a)[0])


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _cached:
    """A method read as an attribute whose value is computed once per instance, on first read.

    The value is stored in the instance ``__dict__``, which later reads find
    before this non-data descriptor, so only the first read calls the method.
    Unlike Python 3.11's ``functools.cached_property`` it takes no lock.
    """

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError(f"state must be a vector, got shape {amp.shape}")
        if not np.isfinite(amp).all():
            raise ValueError("state has non-finite amplitudes")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, and rejected
            nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > STATE_NORM_ATOL:
            raise ValueError(f"state not normalized: ||psi|| = {nrm!r}")
        object.__setattr__(self, "amplitudes", _freeze(amp))

    @classmethod
    def _trusted(cls, amplitudes: np.ndarray) -> PureState:
        """A state from a complex vector that is unit-norm by construction."""
        state = object.__new__(cls)
        vars(state).update(amplitudes=_freeze(amplitudes))
        return state

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class MixedState:
    """Density matrix: Hermitian, unit trace, positive semidefinite."""

    rho: np.ndarray

    def __post_init__(self):
        rho = as_complex_matrix(self.rho, name="density matrix")
        if max_abs(rho - rho.conj().T) > HERM_STORE_ATOL:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        w = np.linalg.eigvalsh(rho)
        if float(w.min()) < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {w.min()!r}")
        object.__setattr__(self, "rho", _freeze(rho))

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True, eq=False)
class HermitianObservable:
    """Hermitian matrix together with a validated eigendecomposition.

    eigenvalues are ascending; eigenvectors are orthonormal columns, paired
    index-for-index with the eigenvalues.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, name="observable")
        if max_abs(m - m.conj().T) > HERM_STORE_ATOL:
            raise ValueError("observable matrix is not Hermitian")
        w = np.array(self.eigenvalues, dtype=float)
        v = as_complex_matrix(self.eigenvectors, name="eigenvectors")
        n = m.shape[0]
        if w.shape != (n,) or v.shape != (n, n):
            raise ValueError("eigendecomposition shape mismatch")
        if not np.isfinite(w).all():
            raise ValueError("eigenvalues must be finite")
        # each test reads `not x <= bound`, so a nan, such as an overflow leaves, fails it
        if not (np.diff(w) >= 0).all():
            raise ValueError("eigenvalues must be ascending")
        with np.errstate(over="ignore", invalid="ignore"):
            orthonormal = max_abs(v.conj().T @ v - np.eye(n))
            recon = max_abs((v * w) @ v.conj().T - m)
        if not orthonormal <= RECON_ATOL:
            raise ValueError("eigenvectors are not orthonormal")
        if not recon <= RECON_ATOL:
            raise ValueError("eigendecomposition does not reconstruct the matrix")
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "eigenvalues", _freeze(w))
        object.__setattr__(self, "eigenvectors", _freeze(v))

    @classmethod
    def _trusted(
        cls, matrix: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray
    ) -> HermitianObservable:
        """An observable from a Hermitian complex matrix and its own eigh decomposition."""
        obs = object.__new__(cls)
        vars(obs).update(
            matrix=_freeze(matrix), eigenvalues=_freeze(eigenvalues), eigenvectors=_freeze(eigenvectors)
        )
        return obs

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @_cached
    def _clusters(self) -> tuple[tuple[float, np.ndarray], ...]:
        """eigen_clusters of the spectrum, found once per observable; the index arrays are read-only."""
        return tuple((value, _freeze(idx)) for value, idx in eigen_clusters(self.eigenvalues))

    @_cached
    def _readout_layout(self) -> tuple[tuple[tuple[float, int, int], ...], tuple[np.ndarray | None, ...]]:
        """Each of _clusters' (value, group, index in the group), and the groups, by cluster width.

        The one-column group is None: it reads every column in place, and a
        cluster's index is its column.  The G clusters of a width k > 1 are
        a read-only (G, k) array of column indices.
        """
        widths = sorted({idx.size for _, idx in self._clusters})
        members: dict[int, list[np.ndarray]] = {k: [] for k in widths}
        slots = []
        for value, idx in self._clusters:
            same = members[idx.size]
            slots.append((value, widths.index(idx.size), int(idx[0]) if idx.size == 1 else len(same)))
            same.append(idx)
        return tuple(slots), tuple(None if k == 1 else _freeze(np.array(members[k])) for k in widths)

    @_cached
    def _conj_eigenvectors(self) -> np.ndarray:
        """eigenvectors.conj(), read-only, computed once per observable."""
        return _freeze(self.eigenvectors.conj())


def herm_eig(a) -> HermitianObservable:
    """Eigendecompose a Hermitian matrix into a HermitianObservable.

    Input may drift from exact hermiticity by up to HERM_ACCEPT_ATOL; it is
    symmetrized before decomposition.  Larger drift is rejected.  The
    decomposition is eigh's own, the gufunc eigh_lo that numpy.linalg.eigh
    calls, without its wrapper, so it is not re-checked; the NaNs the gufunc
    returns where LAPACK does not converge raise LinAlgError, as eigh does.
    Finite entries whose symmetrization or eigenvalues overflow the float
    range raise ValueError.
    """
    m = as_complex_matrix(a, name="observable")
    with np.errstate(all="ignore"):  # an overflow reads as inf or nan and is rejected below
        drift = max_abs(m - m.conj().T)
        if not drift <= HERM_ACCEPT_ATOL:
            raise ValueError(f"matrix is not Hermitian (max |A - A^dag| = {drift!r})")
        m = (m + m.conj().T) / 2
        w, v = _umath_linalg.eigh_lo(m, signature="D->dD")
    if not np.isfinite(w).all():
        if np.isfinite(m).all() and not np.isinf(w).any():
            raise LinAlgError("Eigenvalues did not converge")
        raise ValueError("matrix too large: its eigenvalues overflow the float range")
    return HermitianObservable._trusted(m, w, v)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices, object factor first.

    The same elementwise products as numpy.kron, without its generic shape
    handling.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def adjoint(a) -> np.ndarray:
    return np.asarray(a, dtype=complex).conj().T


def commutator(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"commutator shape mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def expectation(state: PureState, a) -> complex:
    """<psi|A|psi>.  Returns the full complex value; callers take Re/abs."""
    a = np.asarray(a, dtype=complex)
    psi = state.amplitudes
    if a.shape != (psi.size, psi.size):
        raise ValueError(f"operator shape {a.shape} does not match state dim {psi.size}")
    return complex(psi.conj() @ (a @ psi))


def _mapped_spectrum(f: Callable[[float], float], eigenvalues: np.ndarray) -> np.ndarray:
    """f applied to each eigenvalue, in order; a non-finite value is rejected."""
    mapped = [float(f(w)) for w in eigenvalues.tolist()]
    if not all(map(math.isfinite, mapped)):
        raise ValueError("spectral function produced a non-finite value")
    return np.array(mapped)


def apply_spectral(f: Callable[[float], float], obs: HermitianObservable) -> HermitianObservable:
    """Apply a real scalar function to an observable through its spectrum.

    The input's orthonormal eigenvectors, sorted by mapped value, make it valid by construction.
    """
    mapped = _mapped_spectrum(f, obs.eigenvalues)
    order = np.argsort(mapped, kind="stable")
    w, v = mapped[order], obs.eigenvectors[:, order]
    m = (v * w) @ v.conj().T
    return HermitianObservable._trusted((m + m.conj().T) / 2, w, v)


def probe_partial_expectation(a, probe_state: PureState) -> np.ndarray:
    """Average a product-space operator over the probe factor.

    For A acting on object (x) probe, returns the object operator
    M[i, j] = sum_{k,l} conj(xi[k]) * A[(i,k),(j,l)] * xi[l].
    """
    a = as_complex_matrix(a, name="operator")
    dp = probe_state.dim
    d = a.shape[0]
    if d % dp != 0:
        raise ValueError(f"dimension factorization mismatch: {d} not divisible by probe dim {dp}")
    do = d // dp
    a4 = a.reshape(do, dp, do, dp)
    xi = probe_state.amplitudes
    return np.einsum("k,ikjl,l->ij", xi.conj(), a4, xi)


def eigen_clusters(values: np.ndarray, gap: float = DEGENERACY_GAP) -> list[tuple[float, np.ndarray]]:
    """Group ascending eigenvalues into clusters separated by more than `gap`.

    Returns (representative value, index array) per cluster, ascending.
    """
    values = np.asarray(values, dtype=float)
    clusters: list[tuple[float, np.ndarray]] = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i] - values[i - 1] > gap:
            idx = np.arange(start, i)
            clusters.append((float(np.mean(values[idx])), idx))
            start = i
    return clusters
