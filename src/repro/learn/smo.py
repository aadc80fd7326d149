"""Sequential minimal optimization (SMO) for the soft-margin SVM dual.

Solves::

    max_a  sum(a) - 1/2 * sum_ij a_i a_j y_i y_j K_ij
    s.t.   0 <= a_i <= C,    sum_i a_i y_i = 0

using LIBSVM's second-order working-set selection (WSS2 of Fan, Chen &
Lin, "Working Set Selection Using Second Order Information for Training
SVM", JMLR 6, 2005).  Each iteration takes ``i`` as the most violating
index of ``I_up`` (as in Keerthi et al.'s maximal violating pair), then
the ``j`` of ``I_low`` whose two-variable step would raise the dual
objective most, solves that subproblem analytically, and updates a
cached gradient.  The rule needs the kernel diagonal up front: the
in-RAM routes read it off the Gram matrix, the large-problem route from
:meth:`repro.learn.columns.KernelColumnCache.diagonal`, in the very
bits the column fetches carry.

The Gram matrix is precomputed when the problem is small enough
(quadratic memory, at most :data:`PRECOMPUTE_LIMIT` rows); otherwise
the solver builds its own :class:`repro.learn.columns.KernelColumnCache`
within :data:`CACHE_BYTES` and computes kernel columns on demand.  A
caller that already holds the Gram matrix (e.g. the
:class:`~repro.learn.kernels.SharedGram` of a guard-band pair's fit)
can pass it in directly via ``gram=`` and skip the kernel evaluation
entirely.

The solver also supports **warm starts**: ``alpha_init`` seeds the
dual variables from a previous (related) solution.  An infeasible
seed is repaired deterministically -- clipped into the ``[0, C]`` box
and shrunk in index order until the equality constraint
``sum_i alpha_i y_i = 0`` holds -- so a warm start never changes which
problem is solved, only how many iterations it takes.

**Lockstep stacks.** :func:`solve_smo_stack` solves B independent
problems in one WSS2 loop.  At the fold sizes model selection fits
(tens of rows), numpy's per-call overhead, not the vector length, sets
the cost of a step, so a step over a stack costs little more than a
step of one problem (GPU SVM solvers such as ThunderSVM batch small
SMO subproblems for the same reason).  The problems are padded to the
largest size ``n_max``: padding has ``pen_up = +inf``,
``pen_low = -inf``, zero kernel rows and columns and a unit diagonal,
so it is never selected.  The selection, the ``eta`` rows and the
gradient update run on ``(A, n_max)`` arrays of the A problems still
active (the gradient kept as its two masked copies ``F + pen_up`` and
``F + pen_low``, which saves a numpy call per step); ``argmin`` /
``argmax`` along axis 1 keep the first-index tie rule.  The
two-variable step stays on Python floats, per problem, in the order of
a single solve.  A problem that converges, reaches ``max_iter`` or
takes the degenerate-box or stall break is frozen and dropped from the
active arrays, so every problem's result is bitwise its solve alone.
:func:`solve_smo` is the B = 1 call of the same loop.

**Step bookkeeping.**  At these sizes a step costs interpreter work,
kept small without moving a floating-point operation: the box clipping
runs on plain comparisons that return exactly what builtin ``max`` /
``min`` return (ties and signed zeros included); kernel rows, memoized
``eta`` rows and, on a memo miss, every active ``K_ii`` are gathered
by one ``take`` each (``"wrap"`` mode skips the bounds-check copy of
indices known to be in range); memo keys and tags are checked by
C-level ``map`` calls.  ``b_up`` and the step coefficients stay one
scalar store per problem, cheaper than a slice assignment from a list
below about ten problems, and most steps step one.
"""

from operator import add as add_int

import numpy as np

from repro.errors import LearningError
from repro.learn.columns import KernelColumnCache
from repro.telemetry import get_telemetry

#: Default KKT violation tolerance.
DEFAULT_TOL = 1e-3
#: Problems up to this size precompute the full Gram matrix.
PRECOMPUTE_LIMIT = 6000
#: Byte budget of the kernel-column cache of a larger problem.  It
#: decides only which column blocks stay cached, never a bit of the fit.
CACHE_BYTES = 256 * 1024 * 1024
#: Byte budget of the solver's memo of pair-curvature rows (every row
#: is kept up to n = 1024; larger problems keep fewer and recompute).
ETA_CACHE_BYTES = 8 * 1024 * 1024
#: Byte budget of one lockstep stack: its padded Gram matrices plus its
#: eta memo.  :func:`split_stack` cuts a larger set of problems into
#: stacks within it (a problem too large for it alone is a stack of one).
STACK_BYTES = 4 * ETA_CACHE_BYTES


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

    def __init__(self, alpha, bias, iterations, converged):
        #: Dual coefficients, one per training sample.
        self.alpha = alpha
        #: Intercept of the decision function.
        self.bias = bias
        #: Number of two-variable updates performed.
        self.iterations = iterations
        #: False when the iteration limit was hit before the KKT gap closed.
        self.converged = converged


class SMOProblem:
    """One dual problem of :func:`solve_smo_stack`.

    The fields are :func:`solve_smo`'s arguments of the same names; the
    problem is solved on ``gram`` when given, else on ``kernel(X, X)``.
    """

    def __init__(self, kernel, X, y, C, tol=DEFAULT_TOL, max_iter=None,
                 gram=None, alpha_init=None):
        self.kernel = kernel
        self.X = X
        self.y = y
        self.C = C
        self.tol = tol
        self.max_iter = max_iter
        self.gram = gram
        self.alpha_init = alpha_init


def _checked(X, y, C, tol):
    """``(X, y)`` as float arrays, or :class:`LearningError`."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if y.shape != (n,):
        raise LearningError("y shape mismatch")
    if not ((y == 1.0) | (y == -1.0)).all():
        raise LearningError("labels must be -1/+1")
    if C <= 0:
        raise LearningError("C must be positive")
    if tol < 0:
        raise LearningError("tol must be non-negative")
    return X, y


def _eta_slots(n):
    """Rows of ``n`` floats one problem's eta memo keeps."""
    return max(1, min(n, ETA_CACHE_BYTES // (8 * n)))


def split_stack(sizes):
    """Cut problems of these sizes, in order, into stacks.

    A stack of B problems padded to ``n_max`` rows holds B Gram
    matrices and B eta memos of ``n_max``-long rows; each stack stays
    within :data:`STACK_BYTES` unless one problem alone exceeds it.
    Returns lists of positions into ``sizes``.
    """
    stacks = []
    n_max = 0
    for k, n in enumerate(sizes):
        wider = max(n_max, n)
        if stacks and ((len(stacks[-1]) + 1) * 8 * wider
                       * (wider + _eta_slots(wider)) <= STACK_BYTES):
            stacks[-1].append(k)
            n_max = wider
        else:
            stacks.append([k])
            n_max = n
    return stacks


class _Member:
    """One problem's scalar state in the lockstep loop."""

    __slots__ = ("n", "C", "c_top", "gap", "max_iter", "route", "y",
                 "alpha", "up", "low", "up_count", "low_count", "F0",
                 "warm_started", "result")

    def __init__(self, y, C, tol, max_iter, alpha_init, get_col, route):
        n = y.shape[0]
        self.n = n
        self.C = C
        # The one upper-bound threshold every membership test compares to.
        c_top = self.c_top = C - 1e-12
        self.gap = 2.0 * tol
        self.max_iter = max(2000, 200 * n) if max_iter is None else max_iter
        self.route = route
        alpha = np.zeros(n)
        self.warm_started = False
        if alpha_init is not None:
            repaired = repair_alpha(alpha_init, y, C)
            if repaired is not None:
                alpha = repaired
                self.warm_started = True
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
        # The two-variable step runs on Python floats mirrored from
        # alpha and y: the same IEEE operations in the same order as on
        # numpy scalars, without their per-operation overhead.  I_up /
        # I_low membership depends only on (alpha, y) and changes at
        # the two updated indices, so it is kept incrementally (the
        # loop keeps the gradient masked by it).
        self.alpha = alpha.tolist()
        self.y = y.tolist()
        positive = y > 0
        above, below = alpha > 1e-12, alpha < c_top
        up = np.where(positive, below, above)
        low = np.where(positive, above, below)
        self.up, self.low = up.tolist(), low.tolist()
        self.up_count = int(np.count_nonzero(up))
        self.low_count = int(np.count_nonzero(low))
        # F masked to I_up (+inf outside) and to I_low (-inf outside).
        self.F0 = np.where(up, F, np.inf), np.where(low, F, -np.inf)
        self.result = None

    def finish(self, F_up, F_low, converged, iterations):
        """Freeze the problem, given its gradient masked to ``I_up``
        (+inf outside) and to ``I_low`` (-inf outside)."""
        # Bias from the KKT mid-point of the final up/low bounds.
        candidates = []
        if self.up_count:
            candidates.append(float(F_up[:self.n].min()))
        if self.low_count:
            candidates.append(float(F_low[:self.n].max()))
        if candidates:
            bias = -sum(candidates) / len(candidates)
        else:
            bias = 0.0
        self.result = SMOResult(np.array(self.alpha), bias, iterations,
                                converged)


class _ColumnRows:
    """Kernel rows of one problem from a column cache, indexed like a
    Gram matrix by one-row slices (the kernel is symmetric)."""

    def __init__(self, get_col):
        self.get_col = get_col

    def __getitem__(self, rows):
        return self.get_col(rows.start)[None]


def _lockstep(members, G, D):
    """Run the WSS2 loop over a padded stack; return its step count.

    ``members`` are the stack's problems in stack order; each ends with
    its :class:`SMOResult` in ``result``.  ``G`` holds their kernel rows
    as ``(B * n_max, n_max)``: row ``s * n_max + i`` is row ``i`` of
    problem ``s``.  A one-problem stack may pass any object whose
    one-row slices are kernel rows.  ``D`` holds the ``(B, n_max)``
    kernel diagonals, 1 on padding.

    The gradient is kept as two masked copies, ``F_up = F + pen_up``
    and ``F_low = F + pen_low`` with the 0/+-inf penalties of
    ``I_up`` / ``I_low`` (padding: +inf and -inf), each updated by the
    same step: an entry inside its set is ``F`` bit for bit (F is never
    -0.0), one outside stays infinite, and an index that joins a set
    takes its ``F`` from the step's own operands (``b_up`` or ``F_j``).
    """
    B, n_max = D.shape
    inf = np.inf
    F_up = np.full((B, n_max), inf)
    F_low = np.full((B, n_max), -inf)
    for s, m in enumerate(members):
        F_up[s, :m.n], F_low[s, :m.n] = m.F0
        m.F0 = None
    # K_ii is read by G-row index from the diagonals of the whole stack.
    D_rows = D.reshape(-1)
    # Full-size buffers, viewed [:A] while A problems are active.
    # Array operands (not Python floats) for the per-step floors:
    # array-array ufuncs skip the scalar conversion.
    full = [np.zeros((B, n_max)), np.full((B, n_max), 1e-12)] + [
        np.empty((B, n_max)) for _ in range(5)]
    # Per-problem operands (b_up, K_ii, and the two step coefficients),
    # read as an (A, 1) column, or as a 0-d view for one problem: a 0-d
    # array operand skips the Python-float conversion too.
    cols = [np.empty(B) for _ in range(4)]
    b_col, d_col, ci_col, cj_col = cols
    # Floored eta_it rows, memoized direct-mapped within ETA_CACHE_BYTES
    # per problem: row i of problem s lives in slot s * slots + i % slots,
    # tagged with i, and is recomputed whenever another row took the slot.
    slots = _eta_slots(n_max)
    memo = np.empty((B * slots, n_max))
    tags = [-1] * (B * slots)
    slot_of = slots.__rmod__
    add, subtract, multiply = np.add, np.subtract, np.multiply
    divide, maximum = np.divide, np.maximum

    live = list(members)
    stack = list(range(B))
    A = 0
    steps = 0
    settle = True
    while True:
        if settle:
            # Freeze the problems that are done -- at max_iter, with an
            # empty side, or finished during the last step -- and drop
            # their rows from the active arrays.
            settle = False
            keep = []
            for a, m in enumerate(live):
                if m.result is None:
                    if steps >= m.max_iter:
                        m.finish(F_up[a], F_low[a], False, steps)
                    elif not m.up_count or not m.low_count:
                        m.finish(F_up[a], F_low[a], True, steps)
                    else:
                        keep.append(a)
            if not keep:
                return steps
            if len(keep) < len(live):
                live = [live[a] for a in keep]
                stack = [stack[a] for a in keep]
                F_up, F_low, D = F_up[keep], F_low[keep], D[keep]
            if len(keep) != A:
                A = len(keep)
                gaps = [m.gap for m in live]
                state = [(a, m, m.y, m.alpha, m.C, m.c_top, m.up, m.low)
                         for a, m in enumerate(live)]
                cap = min(m.max_iter for m in live)
                base = [s * n_max for s in stack]
                memo_base = [s * slots for s in stack]
                zeros, eta_floor, gain, den_rows, step_i, step_j, rows = (
                    buf[:A] for buf in full)
                d_set = d_col[:A]
                b_up, d_i, coef_i, coef_j = (
                    col[0, ...] if A == 1 else col[:A, None] for col in cols)

        # b_low - b_up <= 2 tol is the KKT stop.  Rounding is monotone,
        # so b_low - b_up is bitwise the maximum of gain - b_up below.
        I = F_up.argmin(1).tolist()
        b_vals = []
        for a, t in enumerate(F_low.argmax(1).tolist()):
            b = F_up.item(a, I[a])
            b_col[a] = b
            b_vals.append(b)
            if F_low.item(a, t) - b <= gaps[a]:
                m = live[a]
                m.finish(F_up[a], F_low[a], True, steps)
                settle = True
        if settle and all(m.result is not None for m in live):
            continue
        steps += 1
        # gain holds F_t - b_up over I_low, -inf outside.
        subtract(F_low, b_up, gain)

        # Second-order choice of j (Fan, Chen & Lin 2005, WSS2): over
        # t in I_low with F_t > b_up, maximize the dual increase of the
        # unclipped step, (F_t - b_up)**2 / eta_it with
        # eta_it = (K_ii + d_t) - 2 K_it floored at 1e-12 (K_it + K_it
        # is 2 K_it exactly).
        if A == 1:
            i = I[0]
            f = base[0] + i
            Ki = G[f:f + 1]
            k = memo_base[0] + i % slots
            den = memo[k:k + 1]
            fresh = tags[k] != i
            if fresh:
                tags[k] = i
                d_set[0] = D_rows.item(f)
        else:
            # One miss recomputes (and re-memoizes) every active row.
            at = list(map(add_int, base, I))
            Ki = G.take(at, 0, rows, "wrap")
            keys = list(map(add_int, memo_base, map(slot_of, I)))
            den = den_rows
            fresh = list(map(tags.__getitem__, keys)) != I
            if fresh:
                for k, i in zip(keys, I):
                    tags[k] = i
                D_rows.take(at, 0, d_set, "wrap")
            else:
                memo.take(keys, 0, den, "wrap")
        if fresh:
            add(D, d_i, den)
            add(Ki, Ki, step_i)
            subtract(den, step_i, den)
            maximum(den, eta_floor, out=den)
            if A > 1:
                memo[keys] = den
        maximum(gain, zeros, out=gain)
        multiply(gain, gain, gain)
        divide(gain, den, gain)
        J = gain.argmax(1).tolist()

        # Two-variable analytic step (Platt 1998, with F_k playing the
        # role of Platt's prediction error E_k = f_k - y_k), per
        # problem, on plain comparisons: ``max(x, y)`` is ``y if y > x
        # else x`` and ``min(x, y)`` is ``y if y < x else x``, ties and
        # signed zeros included.  A problem that stops steps by zero.
        # Every active problem has made steps - 1 updates so far.
        for (a, m, y_l, alpha_l, C, c_top, up_l, low_l), i, j, F_i in zip(
                state, I, J, b_vals):
            if m.result is not None:
                ci_col[a] = cj_col[a] = 0.0
                continue
            yi = y_l[i]
            yj = y_l[j]
            ai_old = alpha_l[i]
            aj_old = alpha_l[j]
            s = yi * yj
            if s > 0:
                total = ai_old + aj_old
                L = total - C
                H = total if total < C else C
            else:
                L = aj_old - ai_old
                H = C + aj_old - ai_old
                if not H < C:
                    H = C
            if not L > 0.0:
                L = 0.0
            if H - L < 1e-14:
                # Degenerate box for the selected pair: the pair
                # selection can make no further progress.
                m.finish(F_up[a], F_low[a], False, steps - 1)
                settle = True
                ci_col[a] = cj_col[a] = 0.0
                continue
            # F_j: j is in I_low unless every gain underflowed to 0.
            F_j = F_low.item(a, j) if low_l[j] else F_up.item(a, j)
            aj_new = aj_old + yj * (F_i - F_j) / den.item(a, j)
            if L > aj_new:
                aj_new = L
            if aj_new > H:
                aj_new = H
            ai_new = ai_old + s * (aj_old - aj_new)

            dai = ai_new - ai_old
            daj = aj_new - aj_old
            if -1e-14 < daj < 1e-14:
                # Numerical stall: no representable progress on this pair.
                m.finish(F_up[a], F_low[a], False, steps - 1)
                settle = True
                ci_col[a] = cj_col[a] = 0.0
                continue
            alpha_l[i] = ai_new
            alpha_l[j] = aj_new
            ci_col[a] = dai * yi
            cj_col[a] = daj * yj
            for k in (i, j):
                ak = alpha_l[k]
                yk = y_l[k]
                new_up = (yk > 0 and ak < c_top) or (yk < 0 and ak > 1e-12)
                if new_up != up_l[k]:
                    up_l[k] = new_up
                    F_up[a, k] = (F_i if k == i else F_j) if new_up else inf
                    m.up_count += 1 if new_up else -1
                    settle = settle or not m.up_count
                new_low = (yk > 0 and ak > 1e-12) or (yk < 0 and ak < c_top)
                if new_low != low_l[k]:
                    low_l[k] = new_low
                    F_low[a, k] = ((F_i if k == i else F_j) if new_low
                                   else -inf)
                    m.low_count += 1 if new_low else -1
                    settle = settle or not m.low_count
        if steps >= cap:
            settle = True
        # F += (dai*yi)*Ki + (daj*yj)*Kj, through reused buffers (Kj
        # may take Ki's rows once (dai*yi)*Ki is formed), on both
        # masked copies.
        multiply(Ki, coef_i, step_i)
        if A == 1:
            f = base[0] + J[0]
            Kj = G[f:f + 1]
        else:
            Kj = G.take(list(map(add_int, base, J)), 0, rows, "wrap")
        multiply(Kj, coef_j, step_j)
        add(step_i, step_j, step_i)
        add(F_up, step_i, F_up)
        add(F_low, step_i, F_low)


def _record(members, steps, cache=None):
    """Count one loop's solves, per problem, and its lockstep steps."""
    tel = get_telemetry()
    if not tel.enabled:
        return
    tel.counter("repro_learn_smo_lockstep_steps_total", steps)
    for m in members:
        tel.counter("repro_learn_smo_solves_total", 1, route=m.route)
        tel.counter("repro_learn_smo_iterations_total", m.result.iterations)
        if not m.result.converged:
            tel.counter("repro_learn_smo_unconverged_total", 1)
        if m.warm_started:
            tel.counter("repro_learn_warm_starts_total", 1)
    if cache is not None:
        tel.counter("repro_learn_column_cache_hits_total", cache.n_hits)
        tel.counter("repro_learn_column_cache_misses_total", cache.n_fetches)


def solve_smo_stack(problems):
    """Solve :class:`SMOProblem` s in one lockstep WSS2 loop.

    The problems are padded to the largest one and stacked whole, Gram
    matrices included (see :func:`split_stack` for cutting a large set
    into stacks within :data:`STACK_BYTES`).  Every result is bitwise
    the :func:`solve_smo` result of its problem alone: the stack shares
    only the numpy calls of each step.

    Returns
    -------
    (results, steps)
        One :class:`SMOResult` per problem, in order, and the number of
        lockstep steps the stack took (at most the largest iteration
        count, plus one).
    """
    return _solve_stack(
        problems, [_checked(p.X, p.y, p.C, p.tol) for p in problems])


def _solve_stack(problems, checked):
    """:func:`solve_smo_stack` on problems whose ``(X, y)`` are checked."""
    if not problems:
        return [], 0
    B = len(problems)
    n_max = max(X.shape[0] for X, _ in checked)
    if B > 1:
        G = np.zeros((B, n_max, n_max))
        D = np.ones((B, n_max))
    members = []
    for s, (p, (X, y)) in enumerate(zip(problems, checked)):
        n = X.shape[0]
        if p.gram is not None:
            K = np.asarray(p.gram, dtype=float)
            if K.shape != (n, n):
                raise LearningError(
                    "precomputed gram must be ({n}, {n}); got {shape}".format(
                        n=n, shape=K.shape))
            route = "precomputed"
        else:
            K = p.kernel(X, X)
            route = "dense"
        if B == 1:
            G = K
            D = np.diagonal(K).copy()[None]
        else:
            G[s, :n, :n] = K
            D[s, :n] = np.diagonal(K)
        members.append(_Member(y, p.C, p.tol, p.max_iter, p.alpha_init,
                               K.__getitem__, route))
    del K
    steps = _lockstep(members, G.reshape(B * n_max, n_max), D)
    _record(members, steps)
    return [m.result for m in members], steps


def solve_smo(kernel, X, y, C, tol=DEFAULT_TOL, max_iter=None,
              gram=None, alpha_init=None):
    """Run SMO on ``(X, y)`` with penalty ``C`` and kernel ``kernel``.

    The B = 1 call of the lockstep loop of :func:`solve_smo_stack`.

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
    gram:
        Optional precomputed ``(n, n)`` Gram matrix; skips all kernel
        evaluations (used by :class:`repro.learn.svm.SVC` when a
        :class:`~repro.learn.kernels.SharedGram` serves its fit).
    alpha_init:
        Optional dual warm start; repaired with :func:`repair_alpha`
        and silently ignored when no feasible repair exists.

    Returns
    -------
    SMOResult
    """
    X, y = _checked(X, y, C, tol)
    n = X.shape[0]
    if gram is not None or n <= PRECOMPUTE_LIMIT:
        (result,), _ = _solve_stack([SMOProblem(
            kernel, X, y, C, tol=tol, max_iter=max_iter, gram=gram,
            alpha_init=alpha_init)], [(X, y)])
        return result
    cache = KernelColumnCache(X, kernel, CACHE_BYTES)
    member = _Member(y, C, tol, max_iter, alpha_init, cache.column, "cache")
    steps = _lockstep([member], _ColumnRows(cache.column),
                      cache.diagonal()[None])
    _record([member], steps, cache)
    return member.result
