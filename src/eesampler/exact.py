"""Exact transition matrices and identity checks on enumerated spaces.

Everything here is computed by enumeration, independently of the sampling
code in :mod:`eesampler.kernels`: matrices are assembled row by row from the
ladder densities, stationary vectors come from a linear solve, and the
Poisson equation is solved through the fundamental matrix. This gives the
simulation an oracle to be checked against, and makes the identities behind
the convergence argument (fixed point, q-fold composition, mixture
expansion, Lipschitz and continuity bounds) machine-verifiable.

All matrices are row-stochastic: entry (x, y) is the probability of moving
from state x to state y. Measures are probability vectors over states.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, StabilityError
from .kernels import KernelSet, NeighborProposal, UniformProposal
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


def assert_row_stochastic(P: np.ndarray) -> None:
    if np.any(P < -ROW_SUM_TOL):
        raise NumericalError("matrix has negative entries")
    err = np.abs(P.sum(axis=1) - 1.0).max()
    if err > ROW_SUM_TOL:
        raise NumericalError(f"rows deviate from 1 by {err:.3e}")


# K and the swap-alpha matrix depend only on the model and the level, and a
# KernelSet's fields are set once in __init__, so each is built once per
# (model, level) and shared read-only. Weak keys let a model's entries go
# with the model.
_BUILT: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _built_once(model: KernelSet, kind: str, level: int, build) -> np.ndarray:
    built = _BUILT.setdefault(model, {})
    key = (kind, level)
    if key not in built:
        matrix = build(model, level)
        matrix.flags.writeable = False
        built[key] = matrix
    return built[key]


def _build_k_matrix(model: KernelSet, level: int) -> np.ndarray:
    size = _require_finite(model)
    pi = _densities(model, level)
    prop = model.proposals[level]
    if isinstance(prop, UniformProposal):
        q = np.full((size, size), 1.0 / size)
    elif isinstance(prop, NeighborProposal):
        q = np.zeros((size, size))
        for x in range(size):
            q[x, x] += 0.5
            q[x, (x + 1) % size] += 0.25
            q[x, (x - 1) % size] += 0.25
    else:
        raise ConfigurationError("exact MH matrices need a finite-space proposal")
    with np.errstate(divide="ignore", invalid="ignore"):
        accept = np.minimum(1.0, np.outer(1.0 / pi, pi))
    P = q * accept
    np.fill_diagonal(P, 0.0)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    assert_row_stochastic(P)
    return P


def _build_swap_alpha(model: KernelSet, level: int) -> np.ndarray:
    _require_finite(model)
    logw = model.ladder.log_table()
    li, lf = logw[level], logw[level - 1]
    # alpha(x, z) = min(1, pi_i(z) pi_{i-1}(x) / (pi_i(x) pi_{i-1}(z)))
    log_ratio = li[None, :] + lf[:, None] - li[:, None] - lf[None, :]
    return np.exp(np.minimum(0.0, log_ratio))


def k_matrix(model: KernelSet, level: int) -> np.ndarray:
    """Exact MH transition matrix for the configured proposal at `level`
    (read-only, built once per model and level)."""
    return _built_once(model, "k", level, _build_k_matrix)


def swap_alpha(model: KernelSet, level: int) -> np.ndarray:
    """Matrix of swap acceptance probabilities alpha_i(x, z) (read-only,
    built once per model and level)."""
    return _built_once(model, "alpha", level, _build_swap_alpha)


def ring_conditionals(model: KernelSet, mu: np.ndarray, *, allow_empty: bool = False):
    """Per-ring conditional masses of mu and the (S, S) matrix W with
    W[x, z] = mu_x({z}); rows of states in empty rings are zero when allowed."""
    size = _require_finite(model)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (size,):
        raise ConfigurationError(f"measure must have {size} entries, got {mu.shape}")
    labels = model.partition.labels()
    masses = np.array([mu[labels == j].sum() for j in range(model.partition.d)])
    if not allow_empty and np.any(masses <= 0.0):
        ring = int(np.argmin(masses))
        raise StabilityError(f"feeder measure has zero mass on ring {ring}")
    ring_mass = masses[labels][:, None]
    same_ring = labels[:, None] == labels[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):  # empty rings, masked out
        W = np.where(same_ring & (ring_mass > 0.0), mu[None, :] / ring_mass, 0.0)
    return masses, W


def _empty_ring_fallback(model: KernelSet, P: np.ndarray, K: np.ndarray, masses) -> None:
    """Give every state whose ring carries no feeder mass the local K row,
    as the sampler falls back to its local move. A no-op unless
    ring_conditionals was allowed to return an empty ring."""
    empty = masses[model.partition.labels()] <= 0.0
    P[empty] = K[empty]


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
    Q = WA @ K + (1.0 - WA.sum(axis=1))[:, None] * K
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
    J = J + np.diag(1.0 - J.sum(axis=1))
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


def stationary(P: np.ndarray) -> np.ndarray:
    """The unique probability vector w with wP = w, by linear least squares.

    Raises :class:`NumericalError` with diagnostics if the solve does not
    meet the 1e-10 residual contract.
    """
    P = np.asarray(P, dtype=float)
    size = P.shape[0]
    assert_row_stochastic(P)
    A = np.vstack([P.T - np.eye(size), np.ones(size)])
    b = np.zeros(size + 1)
    b[-1] = 1.0
    w, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.abs(w @ P - w).max())
    if residual > RESIDUAL_TOL or np.any(w < -1e-10) or abs(w.sum() - 1.0) > 1e-10:
        raise NumericalError(
            f"stationary solve failed: residual={residual:.3e}, "
            f"min={w.min():.3e}, sum={w.sum():.17g}"
        )
    w = np.maximum(w, 0.0)
    return w / w.sum()


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
    # pair kernel tensor: pair_kernel[a, b, y] = P((a, b), {y})
    pair_kernel = A[:, :, None] * K[None, :, :] + (1.0 - A)[:, :, None] * K[:, None, :]

    ring_members = [np.nonzero(labels == j)[0] for j in range(d)]
    ring_indicator = [(labels == j).astype(float) for j in range(d)]

    rhs = np.zeros(size)
    for rings in itertools.product(range(d), repeat=q):
        start_coeff = ring_indicator[rings[0]] / np.prod([masses[j] for j in rings])
        for draws in itertools.product(*(ring_members[j] for j in rings)):
            weight = np.prod([mu[x] for x in draws])
            if weight == 0.0:
                continue
            # backward pass over the path y_q .. y_1 for this draw tuple
            vec = f
            for j in range(q - 1, 0, -1):
                vec = ring_indicator[rings[j]] * (pair_kernel[:, draws[j], :] @ vec)
            vec = pair_kernel[:, draws[0], :] @ vec  # start-state row, no indicator
            rhs += start_coeff * weight * vec
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
    model: KernelSet,
    level: int,
    mu: np.ndarray,
    xi: np.ndarray,
    n_funcs: int,
    rng: np.random.Generator,
) -> float:
    """Max over random bounded f of
    max_x |Q_mu(f)(x) - Q_xi(f)(x)| / (2 ||f||_inf sup_x tv(mu_x, xi_x));
    the selection kernel is 2-Lipschitz in the feeder so this never exceeds 1.
    """
    size = _require_finite(model)
    _, Wmu = ring_conditionals(model, mu)
    _, Wxi = ring_conditionals(model, xi)
    labels = model.partition.labels()
    sup_tv = 0.0
    for j in range(model.partition.d):
        rows = np.nonzero(labels == j)[0]
        sup_tv = max(sup_tv, 0.5 * float(np.abs(Wmu[rows[0]] - Wxi[rows[0]]).sum()))
    Qmu = q_matrix(model, level, mu)
    Qxi = q_matrix(model, level, xi)
    worst = 0.0
    for _ in range(n_funcs):
        f = rng.uniform(-1.0, 1.0, size)
        norm = np.abs(f).max()
        lhs = float(np.abs(Qmu @ f - Qxi @ f).max())
        if sup_tv == 0.0:
            continue  # identical conditionals: lhs is 0 up to roundoff
        worst = max(worst, lhs / (2.0 * norm * sup_tv))
    return worst


def invariant_continuity_check(
    model: KernelSet, level: int, mu: np.ndarray, xi: np.ndarray, epsilon: float | None = None
) -> float:
    """Ratio tv(w(K_mu), w(K_xi)) / sup-norm distance of the two non-linear
    matrices; exhibits the empirical continuity constant of invariant
    measures. Guarded to 0 when the kernels coincide."""
    Kmu = nonlinear_matrix(model, level, mu, epsilon)
    Kxi = nonlinear_matrix(model, level, xi, epsilon)
    den = float(np.abs(Kmu - Kxi).sum(axis=1).max())
    if den < 1e-14:
        return 0.0
    num = tv_distance(stationary(Kmu), stationary(Kxi))
    return num / den
