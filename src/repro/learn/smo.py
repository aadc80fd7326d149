"""Sequential minimal optimization (SMO) for the soft-margin SVM dual.

Solves::

    max_a  sum(a) - 1/2 * sum_ij a_i a_j y_i y_j K_ij
    s.t.   0 <= a_i <= C,    sum_i a_i y_i = 0

using the maximal-violating-pair working-set selection of Keerthi et
al. -- the same algorithm family as LIBSVM.  Each iteration picks the
pair ``(i, j)`` that most violates the KKT conditions, solves the
two-variable subproblem analytically, and updates a cached gradient.

The Gram matrix is precomputed when the problem is small enough
(quadratic memory); otherwise kernel columns are computed on demand
and kept in a bounded :class:`repro.learn.columns.KernelColumnCache`.
A caller that already holds the Gram matrix (e.g. the subset kernel
cache of :mod:`repro.runtime`) can pass it in directly via ``gram=``
and skip the kernel evaluation entirely.

The solver also supports **warm starts**: ``alpha_init`` seeds the
dual variables from a previous (related) solution.  An infeasible
seed is repaired deterministically -- clipped into the ``[0, C]`` box
and shrunk in index order until the equality constraint
``sum_i alpha_i y_i = 0`` holds -- so a warm start never changes which
problem is solved, only how many iterations it takes.

Every result reports whether the penalty ``C`` ever influenced the run
(:attr:`SMOResult.c_bound`).  When it did not, the run is bitwise the
run for any larger ``C`` -- the exactness contract that lets
:func:`repro.learn.model_selection.grid_search` reuse a fit along an
ascending ``C`` path.
"""

import numpy as np

from repro.errors import LearningError
from repro.learn.columns import KernelColumnCache
from repro.telemetry import get_telemetry

#: Default KKT violation tolerance.
DEFAULT_TOL = 1e-3
#: Problems up to this size precompute the full Gram matrix.
PRECOMPUTE_LIMIT = 6000


def repair_alpha(alpha, y, C):
    """Project a dual seed onto the feasible set of the SMO problem.

    Clips ``alpha`` into ``[0, C]`` and then restores the equality
    constraint ``sum_i alpha_i y_i = 0`` by shrinking, in index order,
    the coefficients whose label contributes to the surplus.  The
    procedure is deterministic, so warm-started runs are reproducible
    bit-for-bit across processes.

    Returns the repaired vector, or ``None`` when no feasible repair
    was found (callers then fall back to a cold start).
    """
    a = np.clip(np.asarray(alpha, dtype=float), 0.0, float(C))
    y = np.asarray(y, dtype=float)
    if a.shape != y.shape:
        return None
    s = float(np.dot(a, y))
    for i in range(a.size):
        if abs(s) <= 1e-12:
            break
        if a[i] > 0.0 and y[i] * s > 0.0:
            take = min(a[i], abs(s))
            a[i] -= take
            s -= take * y[i]
    if abs(float(np.dot(a, y))) > 1e-9:
        return None
    return a


class SMOResult:
    """Solution of the dual problem."""

    def __init__(self, alpha, bias, iterations, converged, c_bound=True):
        #: Dual coefficients, one per training sample.
        self.alpha = alpha
        #: Intercept of the decision function.
        self.bias = bias
        #: Number of two-variable updates performed.
        self.iterations = iterations
        #: False when the iteration limit was hit before the KKT gap closed.
        self.converged = converged
        #: False when ``C`` never influenced the run: no alpha reached
        #: ``C - 1e-12``, no step box was cut by ``C``, and the solve
        #: did not end on a degenerate-box or stall break.  The result
        #: is then bitwise the result for every larger ``C``.
        self.c_bound = c_bound


def solve_smo(kernel, X, y, C, tol=DEFAULT_TOL, max_iter=None,
              cache_columns=512, gram=None, columns=None,
              alpha_init=None):
    """Run SMO on ``(X, y)`` with penalty ``C`` and kernel ``kernel``.

    Parameters
    ----------
    kernel:
        Callable ``(A, B) -> Gram`` (see
        :func:`repro.learn.kernels.kernel_function`).  Ignored when
        ``gram`` is given.
    X:
        Training matrix ``(n, m)``.
    y:
        Labels in {-1, +1}.
    C:
        Soft-margin penalty (> 0).
    tol:
        KKT gap tolerance; iteration stops when
        ``b_low - b_up <= 2 * tol``.
    max_iter:
        Hard ceiling on two-variable updates (default ``max(2000,
        200 * n)``).
    cache_columns:
        Kernel-column cache size for large problems.
    gram:
        Optional precomputed ``(n, n)`` Gram matrix; skips all kernel
        evaluations (used by the :mod:`repro.runtime` kernel cache).
    columns:
        Optional external column source with a ``column(i)`` method
        returning kernel column ``i`` (e.g. the bounded block cache of
        :mod:`repro.learn.columns`).  Consulted only for problems
        *above* :data:`PRECOMPUTE_LIMIT`: below it the Gram matrix is
        precomputed exactly as without a source, so attaching one
        never changes small-problem results, while large problems get
        block-fetched columns that are bit-identical to the internal
        cache's at a caller-bounded working set.
    alpha_init:
        Optional dual warm start; repaired with :func:`repair_alpha`
        and silently ignored when no feasible repair exists.

    Returns
    -------
    SMOResult
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if y.shape != (n,):
        raise LearningError("y shape mismatch")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise LearningError("labels must be -1/+1")
    if C <= 0:
        raise LearningError("C must be positive")
    if max_iter is None:
        max_iter = max(2000, 200 * n)

    cache = None
    if gram is not None:
        K = np.asarray(gram, dtype=float)
        if K.shape != (n, n):
            raise LearningError(
                "precomputed gram must be ({n}, {n}); got {shape}".format(
                    n=n, shape=K.shape))
        get_col = K.__getitem__
        route = "precomputed"
    elif n <= PRECOMPUTE_LIMIT:
        K = kernel(X, X)
        get_col = K.__getitem__
        route = "dense"
    elif columns is not None:
        get_col = columns.column
        route = "columns"
    else:
        cache = KernelColumnCache(X, max_bytes=8 * n * cache_columns)
        get_col = cache.provider(kernel).column
        route = "cache"

    # The one upper-bound threshold every membership test compares to.
    c_top = C - 1e-12
    alpha = np.zeros(n)
    warm_started = False
    c_bound = bool(c_top <= 0.0)
    if alpha_init is not None:
        # A seed entry at the bound is clipped or shrunk by the repair,
        # which then depends on C.
        c_bound = c_bound or bool(
            np.any(np.asarray(alpha_init, dtype=float) >= c_top))
        repaired = repair_alpha(alpha_init, y, C)
        if repaired is not None:
            alpha = repaired
            warm_started = True
    # F_i = f_i - y_i where f_i = sum_j alpha_j y_j K_ij (zero at a
    # cold start; reconstructed from the seed's kernel rows otherwise).
    nonzero = np.flatnonzero(alpha)
    if nonzero.size:
        F = np.zeros(n)
        for k in nonzero:
            F += (alpha[k] * y[k]) * get_col(int(k))
        F -= y
    else:
        F = -y.copy()

    # The two-variable step runs on Python floats mirrored from alpha
    # and y: the same IEEE operations in the same order as on numpy
    # scalars, without their per-operation overhead.  I_up / I_low
    # membership depends only on (alpha, y) and changes at the two
    # updated indices, so it is kept incrementally as penalty vectors
    # (0 inside, +/-inf outside): each side's selection is one add into
    # a reused buffer plus one argmin/argmax.
    alpha_l = alpha.tolist()
    y_l = y.tolist()
    up_l = [(yk > 0 and ak < c_top) or (yk < 0 and ak > 1e-12)
            for ak, yk in zip(alpha_l, y_l)]
    low_l = [(yk > 0 and ak > 1e-12) or (yk < 0 and ak < c_top)
             for ak, yk in zip(alpha_l, y_l)]
    pen_up = np.where(up_l, 0.0, np.inf)
    pen_low = np.where(low_l, 0.0, -np.inf)
    up_count = sum(up_l)
    low_count = sum(low_l)
    inf = np.inf
    gap = 2.0 * tol
    F_sel = np.empty(n)
    step_i = np.empty(n)
    step_j = np.empty(n)
    add, multiply = np.add, np.multiply

    iterations = 0
    converged = False
    while iterations < max_iter:
        if up_count == 0 or low_count == 0:
            converged = True
            break
        add(F, pen_up, out=F_sel)
        i = int(F_sel.argmin())
        add(F, pen_low, out=F_sel)
        j = int(F_sel.argmax())
        b_up = F.item(i)
        b_low = F.item(j)
        if b_low - b_up <= gap:
            converged = True
            break

        Ki = get_col(i)
        Kj = get_col(j)
        # The diagonal terms come from the fetched columns themselves
        # (Ki[i] is exactly K[i, i]), so no route needs an upfront
        # diagonal pass and all routes agree bitwise.
        eta = Ki.item(i) + Kj.item(j) - 2.0 * Ki.item(j)
        if eta <= 1e-12:
            eta = 1e-12

        # Two-variable analytic step (Platt 1998, with F_k playing the
        # role of Platt's prediction error E_k = f_k - y_k).  Every
        # branch where C shapes the step marks the run C-bound.
        yi = y_l[i]
        yj = y_l[j]
        ai_old = alpha_l[i]
        aj_old = alpha_l[j]
        s = yi * yj
        if s > 0:
            total = ai_old + aj_old
            if total > C:
                c_bound = True
            L = max(0.0, total - C)
            H = min(C, total)
        else:
            L = max(0.0, aj_old - ai_old)
            H = min(C, C + aj_old - ai_old)
        if H - L < 1e-14:
            # Degenerate box for the maximal violating pair: the pair
            # selection can make no further progress.
            c_bound = True
            break
        aj_new = max(aj_old + yj * (b_up - b_low) / eta, L)
        if aj_new > H:
            aj_new = H
            if s < 0:
                c_bound = True
        ai_new = ai_old + s * (aj_old - aj_new)

        dai = ai_new - ai_old
        daj = aj_new - aj_old
        if abs(daj) < 1e-14:
            # Numerical stall: no representable progress on this pair.
            c_bound = True
            break
        alpha_l[i] = ai_new
        alpha_l[j] = aj_new
        # F += (dai*yi)*Ki + (daj*yj)*Kj, through reused buffers.
        multiply(Ki, dai * yi, out=step_i)
        multiply(Kj, daj * yj, out=step_j)
        add(step_i, step_j, out=step_i)
        add(F, step_i, out=F)
        for k in (i, j):
            ak = alpha_l[k]
            yk = y_l[k]
            if ak >= c_top:
                c_bound = True
            new_up = (yk > 0 and ak < c_top) or (yk < 0 and ak > 1e-12)
            if new_up != up_l[k]:
                up_l[k] = new_up
                up_count += 1 if new_up else -1
                pen_up[k] = 0.0 if new_up else inf
            new_low = (yk > 0 and ak > 1e-12) or (yk < 0 and ak < c_top)
            if new_low != low_l[k]:
                low_l[k] = new_low
                low_count += 1 if new_low else -1
                pen_low[k] = 0.0 if new_low else -inf
        iterations += 1
    alpha = np.array(alpha_l)

    # Bias from the KKT mid-point of the final up/low bounds.
    candidates = []
    if up_count:
        candidates.append(float(np.min(np.where(up_l, F, np.inf))))
    if low_count:
        candidates.append(float(np.max(np.where(low_l, F, -np.inf))))
    if candidates:
        bias = -sum(candidates) / len(candidates)
    else:
        bias = 0.0

    tel = get_telemetry()
    if tel.enabled:
        tel.counter("repro_learn_smo_solves_total", 1, route=route)
        tel.counter("repro_learn_smo_iterations_total", iterations)
        if not converged:
            tel.counter("repro_learn_smo_unconverged_total", 1)
        if warm_started:
            tel.counter("repro_learn_warm_starts_total", 1)
        if cache is not None:
            tel.counter("repro_learn_column_cache_hits_total", cache.n_hits)
            tel.counter("repro_learn_column_cache_misses_total",
                        cache.n_fetches)
    return SMOResult(alpha, bias, iterations, converged, c_bound)
