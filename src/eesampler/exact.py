"""Exact transition matrices and identity checks on enumerated spaces.

Everything here is computed by enumeration, independently of the sampling
code in :mod:`eesampler.kernels`, with two exceptions. The swap acceptance
matrix is the kernel set's own ``swap_table``, so the lockstep steps and
the oracle read one formula. The proposal matrix of K comes from the
proposal class (``matrix``), where each kind's law lives. The oracle still checks the
sampler independently: ``matrix`` is a formula of its own, not derived
from the ``index`` and ``indices`` maps that the moves run, and the three
are pinned against each other by an exact test over u-cells, by criterion
7 and by the generated scalar and lockstep cross-checks. Matrices are
assembled from the ladder densities, stationary vectors come from a square
linear solve, and the Poisson equation is solved through the fundamental
matrix.
This gives the simulation an oracle to be checked against, and makes the
identities behind the convergence argument (fixed point, q-fold
composition, mixture expansion, Lipschitz and continuity bounds)
machine-verifiable.

All matrices are row-stochastic: entry (x, y) is the probability of moving
from state x to state y. Measures are probability vectors over states.

Interactions. ``interacting_matrix`` is the kernel the sampler steps and
the one place that mixes, (1 - eps) K + eps X: X is the variant's
interaction, the kernel at epsilon 1, ``q_matrix`` for selection-mutation
and ``ee_jump_matrix`` for the ee-jump.

Stacks. ``ring_conditionals``, the three kernel builders,
``assert_row_stochastic``, ``stationary``, ``poisson_solve``,
``poisson_series_partial``, ``geometric_rate_estimate`` and the
composition, Lipschitz and continuity checks (and
:func:`~eesampler.measures.tv_distance`) take an optional leading stack
axis: a (B, S) stack of feeder measures gives a (B, S, S) stack of
matrices, a (B, S, S) stack gives (B, S) stationary vectors, and with
(B, S) functions it gives B Poisson solutions, rates or check statistics,
so a battery of random measures or chains costs one call instead of B.
Every reduction runs within an item, every product is one BLAS call and
every solve one LAPACK call per item, so item b of a stacked result has
exactly the bits of the same call on item b alone; a single measure or
matrix is simply the stack-less case. A failure on a stack names the index
of the failing measure or matrix. ``stationary`` makes one
``np.linalg.solve`` call per stack, on the square system
(I - P + 1 1^T)^T w = 1.
"""

from __future__ import annotations

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


def k_matrix(model: KernelSet, level: int) -> np.ndarray:
    """Exact MH transition matrix for the configured proposal at `level`,
    0..r-1 (read-only, built once per model and level by the model's
    table memo)."""
    size = _require_finite(model)

    def build():
        pi = model.ladder.density_table()[model.require_level(level)]
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = np.minimum(1.0, np.outer(1.0 / pi, pi))
        P = model.proposals[level].matrix(size) * accept
        np.fill_diagonal(P, 0.0)
        np.fill_diagonal(P, 1.0 - P.sum(axis=1))
        assert_row_stochastic(P)
        return P

    return model._table(("k", level), build)


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
    # contiguous rows, so a ring of 8+ states sums pairwise on a stack too
    masses = np.stack([np.ascontiguousarray(mu[..., labels == j]).sum(axis=-1)
                       for j in range(d)], axis=-1)
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


def _interaction(model: KernelSet, level: int, mu: np.ndarray, jump: bool) -> np.ndarray:
    """The jump J = W∘A + diag(1 - rowsum(W∘A)) or the selection kernel
    Q = (W∘A) K + diag(1 - rowsum(W∘A)) K with feeder mu; every state whose
    ring carries no feeder mass takes the local K row, as the sampler falls
    back to its local move (the oracle's one empty-ring fallback)."""
    masses, W = ring_conditionals(model, mu, allow_empty=True)
    K = k_matrix(model, level)
    X = W * model.swap_table(level)
    if jump:
        diagonal = np.arange(X.shape[-1])
        X[..., diagonal, diagonal] += 1.0 - X.sum(axis=-1)
    else:
        X = X @ K + (1.0 - X.sum(axis=-1))[..., None] * K
    empty = masses[..., model.partition.labels()] <= 0.0
    np.copyto(X, K, where=empty[..., None])
    assert_row_stochastic(X)
    return X


def q_matrix(model: KernelSet, level: int, mu: np.ndarray) -> np.ndarray:
    """Exact selection/mutation interaction with feeder mu (the kernel at
    epsilon 1): row x is the expectation over the ring-restricted feeder
    draw z of alpha(x, z) K-row(z) + (1 - alpha(x, z)) K-row(x)."""
    return _interaction(model, level, mu, jump=False)


def ee_jump_matrix(model: KernelSet, level: int, mu: np.ndarray) -> np.ndarray:
    """Exact original equi-energy jump with feeder mu (the kernel at epsilon
    1): to the ring-restricted feeder draw z with probability alpha(x, z),
    else stay."""
    return _interaction(model, level, mu, jump=True)


def interacting_matrix(
    model: KernelSet, level: int, mu: np.ndarray, epsilon: float | None = None
) -> np.ndarray:
    """Exact matrix (1 - eps) K + eps X of the model's interacting kernel at
    `level` against feeder mu, as the sampler steps it: X is
    ``ee_jump_matrix`` or ``q_matrix`` by the model's variant, and epsilon
    defaults to the level's. At epsilon 1 it is X itself, bit for bit."""
    build = ee_jump_matrix if model.variant == "ee-jump" else q_matrix
    X = build(model, level, mu)
    eps = model.epsilons[level] if epsilon is None else float(epsilon)
    P = (1.0 - eps) * k_matrix(model, level) + eps * X
    assert_row_stochastic(P)
    return P


def stationary(P: np.ndarray) -> np.ndarray:
    """The unique probability vector w with wP = w, as the solution of
    w (I - P + 1 1^T) = 1^T (right-multiplying by 1 gives w 1 = 1, and then
    wP = w); a (B, S, S) stack gives the (B, S) stack of vectors, from one
    ``np.linalg.solve`` call.

    Raises :class:`NumericalError` with diagnostics if the system is
    singular or the solve does not meet the 1e-10 residual contract. A
    reducible P has no unique stationary vector, and the solver need not
    notice; callers leave ring-closed kernels out.
    """
    P = np.asarray(P, dtype=float)
    stack = P.reshape(-1, *P.shape[-2:])
    size = P.shape[-1]
    assert_row_stochastic(P)
    A = np.eye(size) - stack.transpose(0, 2, 1) + 1.0
    try:  # b as (B, S, 1): a stack of columns under every numpy version
        w = np.linalg.solve(A, np.ones((len(stack), size, 1)))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"stationary solve failed: {exc}") from exc
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
    """Solution fhat of fhat - P fhat = f - w(f) 1, centered so w(fhat) = 0;
    for a stack, fhat and omega are (B, S) and omega_f and residual (B,)."""

    fhat: np.ndarray
    f: np.ndarray
    omega: np.ndarray
    omega_f: float
    residual: float


def _stationary_rows(P: np.ndarray, omega) -> np.ndarray:
    """The stationary vectors of P, a matrix or a stack, as (B, S) rows:
    omega when given, else solved for."""
    w = stationary(P) if omega is None else np.asarray(omega, dtype=float)
    return w.reshape(-1, P.shape[-1])


def poisson_solve(P: np.ndarray, f: np.ndarray) -> PoissonSolution:
    """Solve the Poisson equation via the fundamental matrix.

    fhat = (I - P + 1 w^T)^{-1} (f - w(f) 1); the additive constant is fixed
    by w(fhat) = 0, the natural centering of the series representation. A
    (B, S, S) stack with (B, S) f is solved in one call per solver.
    """
    P = np.asarray(P, dtype=float)
    stack = P.reshape(-1, *P.shape[-2:])
    fs = np.asarray(f, dtype=float).reshape(len(stack), -1)
    size = P.shape[-1]
    w = stationary(P).reshape(-1, size)
    omega_f = (w[:, None, :] @ fs[..., None])[:, 0, 0]
    centered = fs - omega_f[:, None]
    try:
        fhat = np.linalg.solve(
            np.eye(size) - stack + np.ones((size, 1)) * w[:, None, :], centered[..., None]
        )[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"fundamental-matrix solve failed: {exc}") from exc
    residual = np.abs(fhat - (stack @ fhat[..., None])[..., 0] - centered).max(axis=-1)
    bad = residual > RESIDUAL_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(
            f"poisson residual {residual[i]:.3e} exceeds {RESIDUAL_TOL}{_of_stack(P, i)}"
        )
    if P.ndim == 2:
        return PoissonSolution(fhat[0], fs[0], w[0], float(omega_f[0]), float(residual[0]))
    return PoissonSolution(fhat, fs, w, omega_f, residual)


def poisson_series_partial(
    P: np.ndarray, f: np.ndarray, n_terms: int, omega: np.ndarray | None = None
) -> np.ndarray:
    """Partial sum sum_{n<n_terms} (P^n f - w(f) 1) of the series form;
    omega is P's stationary vector w, solved for when omitted. A (B, S, S)
    stack with (B, S) f (and omega) gives the (B, S) partial sums."""
    P = np.asarray(P, dtype=float)
    stack = P.reshape(-1, *P.shape[-2:])
    term = np.asarray(f, dtype=float).reshape(len(stack), -1)
    omega_f = (_stationary_rows(P, omega)[:, None, :] @ term[..., None])[..., 0]
    acc = np.zeros_like(term)
    for _ in range(n_terms):
        acc += term - omega_f
        term = (stack @ term[..., None])[..., 0]
    return acc.reshape(np.shape(f))


@dataclass(frozen=True)
class GeometricRate:
    """Doeblin pair (M, rho) plus the fitted TV decay of sup_x ||P^n(x,.) - w||;
    for a stack, rho and rho_fitted are (B,) and tv_curve (B, n_max)."""

    m: float
    rho: float
    rho_fitted: float
    tv_curve: np.ndarray


def _fitted_rate(curve: np.ndarray) -> float:
    # fit well above the floating-noise floor; a numerical plateau is not
    # decay, and points near it drag the fitted rate by more than the
    # 1e-9 comparison allowance
    usable = np.nonzero(curve > 1e-6)[0]
    if usable.size < 2:
        return 0.0
    slope = np.polyfit(usable + 1.0, np.log(curve[usable]), 1)[0]
    return float(np.exp(slope))


def geometric_rate_estimate(
    P: np.ndarray, n_max: int = 50, omega: np.ndarray | None = None
) -> GeometricRate:
    """Constructive Doeblin bound rho = 1 - sum_y min_x P(x, y), M = 1,
    plus an empirical geometric fit of the worst-case TV decay; omega is P's
    stationary vector, solved for when omitted. A (B, S, S) stack (with
    (B, S) omega) gives one rate per matrix, each fitted on its own."""
    P = np.asarray(P, dtype=float)
    stack = P.reshape(-1, *P.shape[-2:])
    w = _stationary_rows(P, omega)[:, None, :]
    rho = 1.0 - stack.min(axis=-2).sum(axis=-1)
    curve = np.empty((len(stack), n_max))
    Pn = stack
    for n in range(n_max):
        curve[:, n] = 0.5 * np.abs(Pn - w).sum(axis=-1).max(axis=-1)
        Pn = Pn @ stack
    rho_fitted = np.array([_fitted_rate(c) for c in curve])
    if P.ndim == 2:
        return GeometricRate(1.0, float(rho[0]), float(rho_fitted[0]), curve[0])
    return GeometricRate(1.0, rho, rho_fitted, curve)


def composition_identity_check(
    model: KernelSet, level: int, mu: np.ndarray, f: np.ndarray, q: int
):
    """Max discrepancy between the q-fold interaction power applied to f
    and the ring-sum representation evaluated by brute-force enumeration.

    The left side is matrix_power(X_mu, q) @ f, X the configured variant's
    interaction. The right side enumerates every ring tuple (i_1, ..., i_q)
    and every feeder-draw tuple (x_1, ..., x_q) in E^q weighted by the
    product measure mu x ... x mu, with the pair kernel
    P((a, b), dy) = alpha(a,b) M(b, dy) + (1 - alpha(a,b)) M(a, dy) composed
    along the path and the indicator of ring i_{j+1} applied to each
    intermediate landing state; the move after the swap is M = K for
    selection-mutation and M = I for the ee-jump.

    mu and f are (S,) vectors, or (B, S) stacks with one discrepancy per
    item (a float for a single pair), the enumeration built once. Every
    ring must carry mass under mu, so a zero-weight draw tuple adds 0.
    """
    size = _require_finite(model)
    d = model.partition.d
    if q not in (1, 2, 3):
        raise ConfigurationError(f"composition check supports q in {{1,2,3}}, got {q}")
    if size > 8 or d > 3:
        raise ConfigurationError(
            f"enumeration is sized for S <= 8, d <= 3 (got S={size}, d={d})"
        )
    mu = np.asarray(mu, dtype=float)
    masses, _ = ring_conditionals(model, mu)
    mus, masses = mu.reshape(-1, size), masses.reshape(-1, d)
    fs = np.asarray(f, dtype=float).reshape(len(mus), size)
    labels = model.partition.labels()

    Xq = np.linalg.matrix_power(interacting_matrix(model, level, mus, 1.0), q)
    lhs = (Xq @ fs[..., None])[..., 0]  # one mat-vec per item, as X^q @ f

    K = k_matrix(model, level)
    M = np.eye(size) if model.variant == "ee-jump" else K
    A = model.swap_table(level)
    # pair kernel by feeder draw: by_draw[b, a, y] = P((a, b), {y})
    by_draw = A.T[:, :, None] * M[:, None, :] + (1.0 - A.T)[:, :, None] * M[None, :, :]

    ring_indicator = (np.arange(d)[:, None] == labels).astype(float)

    # Every draw tuple of E^q, in enumeration order: ring tuples in theirs,
    # each one's draw tuples in theirs (a stable sort of E^q, listed
    # lexicographically, by ring tuple). Its ring tuple is its labels.
    draws = np.indices((size,) * q).reshape(q, -1).T
    rings = labels[draws]
    order = np.argsort(rings @ d ** np.arange(q - 1, -1, -1), kind="stable")
    draws, rings = draws[order], rings[order]
    weight = mus[:, draws].prod(axis=-1)
    start_coeff = ring_indicator[rings[:, 0]] / masses[:, rings].prod(axis=-1)[..., None]
    # one backward pass over the path y_q .. y_1, one row per (item, draw
    # tuple), as stacked mat-vecs; the terms are then added in enumeration
    # order by a cumsum from a zero row, the sequential adds of a running sum
    vec = fs[:, None, :]
    for j in range(q - 1, 0, -1):
        vec = ring_indicator[rings[:, j]] * (by_draw[draws[:, j]] @ vec[..., None])[..., 0]
    vec = (by_draw[draws[:, 0]] @ vec[..., None])[..., 0]  # start-state row, no indicator
    terms = start_coeff * weight[..., None] * vec
    zero = np.zeros((len(mus), 1, size))
    rhs = np.cumsum(np.concatenate([zero, terms], axis=1), axis=1)[:, -1]
    worst = np.abs(lhs - rhs).max(axis=-1)
    return float(worst[0]) if mu.ndim == 1 else worst


def mixture_expansion_check(K: np.ndarray, P: np.ndarray, epsilon: float, n: int) -> float:
    """Max entrywise discrepancy between ((1-eps) K + eps P)^n and the
    binomial word sum over all kernel words of length n."""
    if n > 6:
        raise ConfigurationError(f"word enumeration is sized for n <= 6, got {n}")
    K = np.asarray(K, dtype=float)
    P = np.asarray(P, dtype=float)
    eps = float(epsilon)
    direct = np.linalg.matrix_power((1.0 - eps) * K + eps * P, n)
    # the words of each length in enumeration order (bit 1 picks P), each
    # product made from its prefix's as M_prefix @ X: the left-to-right
    # chain I @ X_1 @ ... @ X_n of a word-by-word loop, one stacked product
    # per length; the terms are added in enumeration order by one cumsum
    letters = np.stack([K, P])
    words = np.eye(K.shape[0])[None]
    for _ in range(n):
        words = (words[:, None] @ letters).reshape(-1, *K.shape)
    p_letters = [bin(i).count("1") for i in range(len(words))]
    coeff = np.array([eps**l * (1.0 - eps) ** (n - l) for l in p_letters])
    terms = np.concatenate([np.zeros((1, *K.shape)), coeff[:, None, None] * words])
    return float(np.abs(direct - np.cumsum(terms, axis=0)[-1]).max())


def lipschitz_check(
    model: KernelSet, level: int, mu: np.ndarray, xi: np.ndarray, fs: np.ndarray
):
    """Max over the test functions f in fs of
    max_x |X_mu(f)(x) - X_xi(f)(x)| / (2 ||f||_inf sup_x tv(mu_x, xi_x)), X
    the configured variant's interaction. It never exceeds 1: X_mu(f)(x) is
    the mu_x-mean of g(z) = M(f)(x) + alpha(x, z)(M(f)(z) - M(f)(x)), M = K
    for the selection kernel and I for the jump, and g lies in an interval
    of length 2 ||f||_inf, so both kernels are 2-Lipschitz in the feeder.

    mu and xi are (S,) measures with fs an (n_funcs, S) array, or (B, S)
    stacks of pairs with fs (B, n_funcs, S); the result is one ratio per
    pair (a float for a single pair), 0 where the conditionals coincide.
    Every ring must carry mass under both measures.
    """
    _, Wmu = ring_conditionals(model, mu)
    _, Wxi = ring_conditionals(model, xi)
    labels = model.partition.labels()
    first = [np.nonzero(labels == j)[0][0] for j in range(model.partition.d)]
    sup_tv = (0.5 * np.abs(Wmu[..., first, :] - Wxi[..., first, :]).sum(axis=-1)).max(axis=-1)
    fs = np.asarray(fs, dtype=float)
    # one mat-vec per (pair, function), as X @ f on each alone
    Xmu_f = (interacting_matrix(model, level, mu, 1.0)[..., None, :, :] @ fs[..., None])[..., 0]
    Xxi_f = (interacting_matrix(model, level, xi, 1.0)[..., None, :, :] @ fs[..., None])[..., 0]
    lhs = np.abs(Xmu_f - Xxi_f).max(axis=-1)
    norm = np.abs(fs).max(axis=-1)
    apart = sup_tv[..., None] != 0.0  # identical conditionals: lhs is 0 up to roundoff
    ratio = np.divide(lhs, 2.0 * norm * sup_tv[..., None], out=np.zeros_like(lhs), where=apart)
    worst = ratio.max(axis=-1, initial=0.0)
    return float(worst) if worst.ndim == 0 else worst


def invariant_continuity_check(model: KernelSet, level: int, mu: np.ndarray, xi: np.ndarray):
    """Ratio tv(w(K_mu), w(K_xi)) / sup-norm distance of the two
    interacting matrices (``interacting_matrix``) at the level's epsilon;
    exhibits the empirical continuity constant of invariant measures.
    Guarded to 0 when the kernels coincide. (B, S) stacks of mu and xi give one ratio per pair (a
    float for a single pair). A ring-closed kernel has no unique invariant
    measure; callers leave it out."""
    size = _require_finite(model)
    Kmu = interacting_matrix(model, level, mu).reshape(-1, size, size)
    Kxi = interacting_matrix(model, level, xi).reshape(-1, size, size)
    den = np.abs(Kmu - Kxi).sum(axis=-1).max(axis=-1)
    apart = den >= 1e-14
    ratio = np.zeros(den.shape)
    ratio[apart] = tv_distance(stationary(Kmu[apart]), stationary(Kxi[apart])) / den[apart]
    return float(ratio[0]) if np.ndim(mu) == 1 else ratio
