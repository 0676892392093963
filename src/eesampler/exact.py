"""Exact transition matrices and identity checks on enumerated spaces.

Everything here is computed by enumeration, independently of the sampling
code in :mod:`eesampler.kernels`, with two exceptions. The swap acceptance
matrix is the kernel set's own table, so the lockstep steps and the oracle
read one formula. The proposal matrix of K comes from the proposal class
(``matrix``), where each kind's law lives. The oracle still checks the
sampler independently: ``matrix`` is a formula of its own, not derived
from the ``index`` and ``indices`` maps that the moves run, and the three
are pinned against each other by an exact test over u-cells, by criterion
7 and by the generated scalar and lockstep cross-checks. Matrices are
assembled from the ladder densities, stationary vectors come from a linear
solve, and the Poisson equation is solved through the fundamental matrix.
This gives the simulation an oracle to be checked against, and makes the
identities behind the convergence argument (fixed point, q-fold
composition, mixture expansion, Lipschitz and continuity bounds)
machine-verifiable.

All matrices are row-stochastic: entry (x, y) is the probability of moving
from state x to state y. Measures are probability vectors over states.

Stacks. ``ring_conditionals``, ``q_matrix``, ``nonlinear_matrix``,
``ee_jump_matrix``, ``interacting_matrix``, ``assert_row_stochastic`` and
``stationary`` (and :func:`~eesampler.measures.tv_distance`) take an
optional leading stack axis: a (B, S) stack of feeder measures gives a
(B, S, S) stack of matrices, and a (B, S, S) stack gives (B, S) stationary
vectors, so a battery of random measures costs one call instead of B. Every
reduction runs along the last axis and every product is one BLAS call per
item, so item b of a stacked result has exactly the bits of the same call
on item b alone; a single measure or matrix is simply the stack-less case.
A failure on a stack names the index of the failing measure or matrix.
``stationary`` still makes one ``np.linalg.lstsq`` call per matrix: numpy
has no stacked least-squares solver, and replacing it by a stacked
``np.linalg.solve`` would change the bits of every stationary vector.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, StabilityError
from .kernels import KernelSet
from .measures import tv_distance
from .state_space import FiniteSpace

ROW_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-10


def _require_finite(model: KernelSet) -> int:
    if not isinstance(model.ladder.space, FiniteSpace):
        raise ConfigurationError("the exact oracle only works on finite spaces")
    return model.ladder.space.size


def _densities(model: KernelSet, level: int) -> np.ndarray:
    logw = model.ladder.log_table()[level]
    w = np.exp(logw - logw.max())
    return w / w.sum()


def _of_stack(P: np.ndarray, i: int) -> str:
    """Message suffix naming item i of a stack; empty for a single matrix."""
    return f" (matrix {i} of the stack)" if P.ndim == 3 else ""


def assert_row_stochastic(P: np.ndarray) -> None:
    """Raise :class:`NumericalError` unless P, an (S, S) matrix or a
    (B, S, S) stack, has finite, non-negative entries and rows summing to 1."""
    stack = P.reshape(-1, *P.shape[-2:])
    negative = np.any(stack < -ROW_SUM_TOL, axis=(1, 2))
    # a non-finite entry makes its row sum, and so err, non-finite
    err = np.abs(stack.sum(axis=-1) - 1.0).max(axis=-1, initial=0.0)
    bad = negative | ~(err <= ROW_SUM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        if not np.isfinite(err[i]):
            raise NumericalError(f"matrix has non-finite entries{_of_stack(P, i)}")
        if negative[i]:
            raise NumericalError(f"matrix has negative entries{_of_stack(P, i)}")
        raise NumericalError(f"rows deviate from 1 by {err[i]:.3e}{_of_stack(P, i)}")


# K depends only on the model and the level, and a KernelSet's fields are
# set once in __init__, so it is built once per (model, level) and shared
# read-only. Weak keys let a model's matrices go with the model.
_K_MATRICES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _build_k_matrix(model: KernelSet, level: int) -> np.ndarray:
    size = _require_finite(model)
    pi = _densities(model, level)
    with np.errstate(divide="ignore", invalid="ignore"):
        accept = np.minimum(1.0, np.outer(1.0 / pi, pi))
    P = model.proposals[level].matrix(size) * accept
    np.fill_diagonal(P, 0.0)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    assert_row_stochastic(P)
    return P


def k_matrix(model: KernelSet, level: int) -> np.ndarray:
    """Exact MH transition matrix for the configured proposal at `level`,
    0..r-1 (read-only, built once per model and level)."""
    model.require_level(level)
    built = _K_MATRICES.setdefault(model, {})
    if level not in built:
        K = _build_k_matrix(model, level)
        K.flags.writeable = False
        built[level] = K
    return built[level]


def swap_alpha(model: KernelSet, level: int) -> np.ndarray:
    """Matrix of swap acceptance probabilities alpha_i(x, z): the kernel
    set's read-only swap table, which the lockstep steps read too; `level`
    must be 1..r-1, as the feeder is level - 1."""
    _require_finite(model)
    return model.swap_table(level)


def ring_conditionals(model: KernelSet, mu: np.ndarray, *, allow_empty: bool = False):
    """Per-ring conditional masses of mu and the (S, S) matrix W with
    W[x, z] = mu_x({z}); rows of states in empty rings are zero when allowed.
    A (B, S) stack of measures gives (B, d) masses and a (B, S, S) W."""
    size = _require_finite(model)
    mu = np.asarray(mu, dtype=float)
    if mu.ndim not in (1, 2) or mu.shape[-1] != size:
        raise ConfigurationError(f"measure must have {size} entries, got {mu.shape}")
    labels = model.partition.labels()
    d = model.partition.d
    masses = np.stack([mu[..., labels == j].sum(axis=-1) for j in range(d)], axis=-1)
    empty = (masses <= 0.0).any(axis=-1)
    if not allow_empty and empty.any():
        i = int(np.argmax(empty))
        ring = int(np.argmin(masses.reshape(-1, d)[i]))
        which = f"feeder measure {i}" if mu.ndim == 2 else "feeder measure"
        raise StabilityError(f"{which} has zero mass on ring {ring}")
    ring_mass = masses[..., labels][..., None]
    same_ring = labels[:, None] == labels[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):  # empty rings, masked out
        W = np.where(same_ring & (ring_mass > 0.0), mu[..., None, :] / ring_mass, 0.0)
    return masses, W


def _empty_ring_fallback(model: KernelSet, P: np.ndarray, K: np.ndarray, masses) -> None:
    """Give every state whose ring carries no feeder mass the local K row,
    as the sampler falls back to its local move. A no-op unless
    ring_conditionals was allowed to return an empty ring."""
    empty = masses[..., model.partition.labels()] <= 0.0
    np.copyto(P, K, where=empty[..., None])


def q_matrix(
    model: KernelSet, level: int, mu: np.ndarray, *, empty_ring_fallback: bool = False
) -> np.ndarray:
    """Exact matrix of the selection/mutation kernel with feeder measure mu.

    Row x is the exact expectation over the ring-restricted feeder draw z:
    alpha(x, z) K-row(z) + (1 - alpha(x, z)) K-row(x). With
    ``empty_ring_fallback`` rows whose ring carries no feeder mass are
    replaced by the local K row, matching the sampler's logged fallback;
    otherwise an empty ring raises :class:`StabilityError`.
    """
    masses, W = ring_conditionals(model, mu, allow_empty=empty_ring_fallback)
    K = k_matrix(model, level)
    A = swap_alpha(model, level)
    WA = W * A
    Q = WA @ K + (1.0 - WA.sum(axis=-1))[..., None] * K
    _empty_ring_fallback(model, Q, K, masses)
    assert_row_stochastic(Q)
    return Q


def ee_jump_matrix(
    model: KernelSet,
    level: int,
    mu: np.ndarray,
    epsilon: float | None = None,
    *,
    empty_ring_fallback: bool = False,
) -> np.ndarray:
    """Exact matrix of the original EE-jump kernel with feeder measure mu."""
    eps = model.epsilons[level] if epsilon is None else float(epsilon)
    masses, W = ring_conditionals(model, mu, allow_empty=empty_ring_fallback)
    K = k_matrix(model, level)
    A = swap_alpha(model, level)
    J = W * A
    diagonal = np.arange(J.shape[-1])
    J[..., diagonal, diagonal] += 1.0 - J.sum(axis=-1)
    _empty_ring_fallback(model, J, K, masses)
    P = (1.0 - eps) * K + eps * J
    assert_row_stochastic(P)
    return P


def nonlinear_matrix(
    model: KernelSet,
    level: int,
    mu: np.ndarray,
    epsilon: float | None = None,
    *,
    empty_ring_fallback: bool = False,
) -> np.ndarray:
    """(1 - eps) K + eps Q with feeder measure mu."""
    eps = model.epsilons[level] if epsilon is None else float(epsilon)
    K = k_matrix(model, level)
    Q = q_matrix(model, level, mu, empty_ring_fallback=empty_ring_fallback)
    P = (1.0 - eps) * K + eps * Q
    assert_row_stochastic(P)
    return P


def interacting_matrix(
    model: KernelSet, level: int, mu: np.ndarray, epsilon: float | None = None
) -> np.ndarray:
    """Exact matrix of the model's interacting kernel at `level` against
    feeder mu, as the sampler steps it: ``ee_jump_matrix`` or
    ``nonlinear_matrix`` by the model's variant (epsilon defaults to the
    level's), with rings that carry no feeder mass taking the local move."""
    build = ee_jump_matrix if model.variant == "ee-jump" else nonlinear_matrix
    return build(model, level, mu, epsilon, empty_ring_fallback=True)


def stationary(P: np.ndarray) -> np.ndarray:
    """The unique probability vector w with wP = w, by linear least squares;
    a (B, S, S) stack gives the (B, S) stack of vectors.

    Raises :class:`NumericalError` with diagnostics if the solve does not
    meet the 1e-10 residual contract.
    """
    P = np.asarray(P, dtype=float)
    stack = P.reshape(-1, *P.shape[-2:])
    size = P.shape[-1]
    assert_row_stochastic(P)
    A = np.empty((len(stack), size + 1, size))
    A[:, :size] = stack.transpose(0, 2, 1) - np.eye(size)
    A[:, size] = 1.0
    b = np.zeros(size + 1)
    b[-1] = 1.0
    w = np.empty((len(stack), size))
    for i, a in enumerate(A):  # numpy has no stacked lstsq
        w[i] = np.linalg.lstsq(a, b, rcond=None)[0]
    residual = np.abs((w[:, None, :] @ stack)[:, 0] - w).max(axis=-1, initial=0.0)
    sums = w.sum(axis=-1)
    bad = (residual > RESIDUAL_TOL) | np.any(w < -1e-10, axis=-1) | (np.abs(sums - 1.0) > 1e-10)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(
            f"stationary solve failed{_of_stack(P, i)}: residual={residual[i]:.3e}, "
            f"min={w[i].min():.3e}, sum={sums[i]:.17g}"
        )
    w = np.maximum(w, 0.0)
    return (w / w.sum(axis=-1, keepdims=True)).reshape(P.shape[:-1])


@dataclass(frozen=True)
class PoissonSolution:
    """Solution fhat of fhat - P fhat = f - w(f) 1, centered so w(fhat) = 0."""

    fhat: np.ndarray
    f: np.ndarray
    omega: np.ndarray
    omega_f: float
    residual: float


def poisson_solve(P: np.ndarray, f: np.ndarray) -> PoissonSolution:
    """Solve the Poisson equation via the fundamental matrix.

    fhat = (I - P + 1 w^T)^{-1} (f - w(f) 1); the additive constant is fixed
    by w(fhat) = 0, the natural centering of the series representation.
    """
    P = np.asarray(P, dtype=float)
    f = np.asarray(f, dtype=float)
    size = P.shape[0]
    w = stationary(P)
    omega_f = float(w @ f)
    centered = f - omega_f
    try:
        fhat = np.linalg.solve(np.eye(size) - P + np.outer(np.ones(size), w), centered)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"fundamental-matrix solve failed: {exc}") from exc
    residual = float(np.abs(fhat - P @ fhat - centered).max())
    if residual > RESIDUAL_TOL:
        raise NumericalError(f"poisson residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    return PoissonSolution(fhat=fhat, f=f, omega=w, omega_f=omega_f, residual=residual)


def poisson_series_partial(
    P: np.ndarray, f: np.ndarray, n_terms: int, omega: np.ndarray | None = None
) -> np.ndarray:
    """Partial sum sum_{n<n_terms} (P^n f - w(f) 1) of the series form;
    omega is P's stationary vector w, solved for when omitted."""
    P = np.asarray(P, dtype=float)
    f = np.asarray(f, dtype=float)
    w = stationary(P) if omega is None else omega
    omega_f = float(w @ f)
    term = f.copy()
    acc = np.zeros_like(f)
    for _ in range(n_terms):
        acc += term - omega_f
        term = P @ term
    return acc


@dataclass(frozen=True)
class GeometricRate:
    """Doeblin pair (M, rho) plus the fitted TV decay of sup_x ||P^n(x,.) - w||."""

    m: float
    rho: float
    rho_fitted: float
    tv_curve: np.ndarray


def geometric_rate_estimate(
    P: np.ndarray, n_max: int = 50, omega: np.ndarray | None = None
) -> GeometricRate:
    """Constructive Doeblin bound rho = 1 - sum_y min_x P(x, y), M = 1,
    plus an empirical geometric fit of the worst-case TV decay; omega is P's
    stationary vector, solved for when omitted."""
    P = np.asarray(P, dtype=float)
    w = stationary(P) if omega is None else omega
    phi = float(P.min(axis=0).sum())
    rho = 1.0 - phi
    curve = np.empty(n_max)
    Pn = P.copy()
    for n in range(n_max):
        curve[n] = 0.5 * np.abs(Pn - w[None, :]).sum(axis=1).max()
        Pn = Pn @ P
    # fit well above the floating-noise floor; a numerical plateau is not
    # decay, and points near it drag the fitted rate by more than the
    # 1e-9 comparison allowance
    usable = np.nonzero(curve > 1e-6)[0]
    if usable.size >= 2:
        ns = usable + 1.0
        slope = np.polyfit(ns, np.log(curve[usable]), 1)[0]
        rho_fitted = float(np.exp(slope))
    else:
        rho_fitted = 0.0
    return GeometricRate(m=1.0, rho=rho, rho_fitted=rho_fitted, tv_curve=curve)


def composition_identity_check(
    model: KernelSet, level: int, mu: np.ndarray, f: np.ndarray, q: int
) -> float:
    """Max discrepancy between the q-fold selection-kernel power applied to f
    and the ring-sum representation evaluated by brute-force enumeration.

    The left side is matrix_power(Q_mu, q) @ f. The right side enumerates
    every ring tuple (i_1, ..., i_q) and every feeder-draw tuple
    (x_1, ..., x_q) in E^q weighted by the product measure mu x ... x mu,
    with the pair kernel P((a, b), dy) = alpha(a,b) K(b, dy)
    + (1 - alpha(a,b)) K(a, dy) composed along the path and the indicator of
    ring i_{j+1} applied to each intermediate landing state.
    """
    size = _require_finite(model)
    d = model.partition.d
    if q not in (1, 2, 3):
        raise ConfigurationError(f"composition check supports q in {{1,2,3}}, got {q}")
    if size > 8 or d > 3:
        raise ConfigurationError(
            f"enumeration is sized for S <= 8, d <= 3 (got S={size}, d={d})"
        )
    f = np.asarray(f, dtype=float)
    mu = np.asarray(mu, dtype=float)
    labels = model.partition.labels()
    masses, _ = ring_conditionals(model, mu)

    Q = q_matrix(model, level, mu)
    lhs = np.linalg.matrix_power(Q, q) @ f

    K = k_matrix(model, level)
    A = swap_alpha(model, level)
    # pair kernel by feeder draw: by_draw[b, a, y] = P((a, b), {y})
    by_draw = A.T[:, :, None] * K[:, None, :] + (1.0 - A.T)[:, :, None] * K[None, :, :]

    ring_members = [np.nonzero(labels == j)[0] for j in range(d)]
    ring_indicator = [(labels == j).astype(float) for j in range(d)]

    # Each ring tuple's draw tuples go through the backward pass together,
    # as stacked mat-vecs; the terms are then added in enumeration order by
    # a cumsum from a zero row, the sequential adds of a running sum.
    terms = [np.zeros((1, size))]
    for rings in itertools.product(range(d), repeat=q):
        start_coeff = ring_indicator[rings[0]] / np.prod([masses[j] for j in rings])
        draws = np.array(
            list(itertools.product(*(ring_members[j] for j in rings))), dtype=np.intp
        ).reshape(-1, q)
        weight = mu[draws].prod(axis=1)
        nonzero = weight != 0.0
        draws, weight = draws[nonzero], weight[nonzero]
        # backward pass over the path y_q .. y_1, one row per draw tuple
        vec = f
        for j in range(q - 1, 0, -1):
            vec = ring_indicator[rings[j]] * (by_draw[draws[:, j]] @ vec[..., None])[..., 0]
        vec = (by_draw[draws[:, 0]] @ vec[..., None])[..., 0]  # start-state row, no indicator
        terms.append(start_coeff * weight[:, None] * vec)
    rhs = np.cumsum(np.concatenate(terms), axis=0)[-1]
    return float(np.abs(lhs - rhs).max())


def mixture_expansion_check(K: np.ndarray, P: np.ndarray, epsilon: float, n: int) -> float:
    """Max entrywise discrepancy between ((1-eps) K + eps P)^n and the
    binomial word sum over all kernel words of length n."""
    if n > 6:
        raise ConfigurationError(f"word enumeration is sized for n <= 6, got {n}")
    K = np.asarray(K, dtype=float)
    P = np.asarray(P, dtype=float)
    eps = float(epsilon)
    direct = np.linalg.matrix_power((1.0 - eps) * K + eps * P, n)
    size = K.shape[0]
    total = np.zeros((size, size))
    for word in itertools.product((0, 1), repeat=n):
        M = np.eye(size)
        for bit in word:
            M = M @ (P if bit else K)
        l = sum(word)
        total += eps**l * (1.0 - eps) ** (n - l) * M
    return float(np.abs(direct - total).max())


def lipschitz_check(
    model: KernelSet, level: int, mu: np.ndarray, xi: np.ndarray, fs: np.ndarray
):
    """Max over the test functions f in fs of
    max_x |Q_mu(f)(x) - Q_xi(f)(x)| / (2 ||f||_inf sup_x tv(mu_x, xi_x));
    the selection kernel is 2-Lipschitz in the feeder so this never exceeds 1.

    mu and xi are (S,) measures with fs an (n_funcs, S) array, or (B, S)
    stacks of pairs with fs (B, n_funcs, S); the result is one ratio per
    pair (a float for a single pair), 0 where the conditionals coincide.
    """
    _, Wmu = ring_conditionals(model, mu)
    _, Wxi = ring_conditionals(model, xi)
    labels = model.partition.labels()
    first = [np.nonzero(labels == j)[0][0] for j in range(model.partition.d)]
    sup_tv = (0.5 * np.abs(Wmu[..., first, :] - Wxi[..., first, :]).sum(axis=-1)).max(axis=-1)
    fs = np.asarray(fs, dtype=float)
    # one mat-vec per (pair, function), as Q @ f on each alone
    Qmu_f = (q_matrix(model, level, mu)[..., None, :, :] @ fs[..., None])[..., 0]
    Qxi_f = (q_matrix(model, level, xi)[..., None, :, :] @ fs[..., None])[..., 0]
    lhs = np.abs(Qmu_f - Qxi_f).max(axis=-1)
    norm = np.abs(fs).max(axis=-1)
    apart = sup_tv[..., None] != 0.0  # identical conditionals: lhs is 0 up to roundoff
    ratio = np.divide(lhs, 2.0 * norm * sup_tv[..., None], out=np.zeros_like(lhs), where=apart)
    worst = ratio.max(axis=-1, initial=0.0)
    return float(worst) if worst.ndim == 0 else worst


def invariant_continuity_check(
    model: KernelSet, level: int, mu: np.ndarray, xi: np.ndarray, epsilon: float | None = None
):
    """Ratio tv(w(K_mu), w(K_xi)) / sup-norm distance of the two non-linear
    matrices; exhibits the empirical continuity constant of invariant
    measures. Guarded to 0 when the kernels coincide. (B, S) stacks of mu
    and xi give one ratio per pair (a float for a single pair)."""
    size = _require_finite(model)
    Kmu = nonlinear_matrix(model, level, mu, epsilon).reshape(-1, size, size)
    Kxi = nonlinear_matrix(model, level, xi, epsilon).reshape(-1, size, size)
    den = np.abs(Kmu - Kxi).sum(axis=-1).max(axis=-1)
    apart = den >= 1e-14
    ratio = np.zeros(den.shape)
    ratio[apart] = tv_distance(stationary(Kmu[apart]), stationary(Kxi[apart])) / den[apart]
    return float(ratio[0]) if np.ndim(mu) == 1 else ratio
