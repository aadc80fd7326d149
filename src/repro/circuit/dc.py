"""DC operating-point analysis (Newton-Raphson with homotopy fallbacks).

The solver assembles the static MNA system once, then iterates the
nonlinear companion stamps.  Convergence aids, applied in order when the
plain iteration fails:

1. **gmin stepping** -- a shunt conductance from every node to ground is
   swept from large to tiny, each solution seeding the next.
2. **source stepping** -- all independent sources are scaled from 0 to 1
   (valid because independent sources only enter the right-hand side).

Both are standard SPICE homotopies and make the two-stage op-amp bias
point converge reliably across Monte-Carlo corners.
"""

import numpy as np

from repro.errors import CircuitError, ConvergenceError

#: Default absolute node-voltage convergence tolerance (V).
VTOL = 1e-9
#: Maximum Newton update per iteration (V); larger steps are clamped.
MAX_STEP = 0.5
#: Default iteration limit for a single Newton solve.
MAX_ITER = 120


class DCResult:
    """The solution of a DC operating-point analysis.

    Provides node-voltage and branch-current accessors so callers never
    need to know matrix indices.
    """

    def __init__(self, circuit, x, iterations):
        self._circuit = circuit
        self.x = x
        self.iterations = iterations

    def v(self, node):
        """Voltage of ``node`` (0.0 for ground)."""
        idx = self._circuit.node_id(node)
        return 0.0 if idx < 0 else float(self.x[idx])

    def branch_current(self, device_name):
        """Current through a device that carries an auxiliary unknown.

        Works for voltage sources, inductors and VCVS elements; the
        positive direction is from the ``n+`` terminal through the
        device to ``n-``.
        """
        device = self._circuit.device(device_name)
        if device.aux is None:
            raise ConvergenceError(
                "device {!r} has no branch-current unknown".format(device_name))
        return float(self.x[device.aux])

    def __repr__(self):
        return "DCResult(n={}, iterations={})".format(
            self.x.size, self.iterations)


def assemble_static_G(circuit):
    """Build the static (device-value) conductance matrix only.

    The static stamps are independent of the source values, so one
    assembly serves every homotopy fallback attempt of a solve.
    """
    n = circuit.n_unknowns
    G = np.zeros((n, n))
    for device in circuit.devices:
        device.stamp_static(G)
    return G


#: Zero-size stand-in for ``G`` once a circuit's stamp_dc hooks are
#: known not to touch it (writing to it raises, never silently drops).
_NO_G = np.zeros((0, 0))


def assemble_dc_b(circuit):
    """Build the DC right-hand side (source values, inductor shorts).

    No built-in ``stamp_dc`` writes to ``G``.  A user device that does
    would silently lose its contribution here (the matrix is assembled
    separately), so the first assembly of a circuit stamps into a
    scratch matrix and rejects such devices loudly; the verdict is
    cached per device list, keeping every later call -- this is the
    Monte-Carlo hot path -- allocation- and scan-free.
    """
    n = circuit.n_unknowns
    b = np.zeros(n)
    if getattr(circuit, "_stamp_dc_pure_count", None) == len(circuit):
        for device in circuit.devices:
            device.stamp_dc(_NO_G, b)
        return b
    scratch_G = np.zeros((n, n))
    for device in circuit.devices:
        device.stamp_dc(scratch_G, b)
    if scratch_G.any():
        raise CircuitError(
            "a stamp_dc implementation in {!r} writes to G; the split "
            "DC assembly requires conductance stamps to live in "
            "stamp_static".format(circuit.title))
    circuit._stamp_dc_pure_count = len(circuit)
    return b


def _assemble_static(circuit):
    """Build the static conductance matrix and DC right-hand side.

    Split into :func:`assemble_static_G` / :func:`assemble_dc_b` like
    the batched kernel, which replays ``stamp_dc`` as right-hand-side
    rows only; no built-in ``stamp_dc`` touches ``G``, so splitting the
    loops preserves every accumulation order bit for bit.
    """
    return assemble_static_G(circuit), assemble_dc_b(circuit)


def _newton(circuit, G0, b0, nonlinear, x0, gshunt=0.0, source_scale=1.0,
            max_iter=MAX_ITER, vtol=VTOL):
    """One Newton-Raphson solve; returns ``(x, iterations)`` or raises."""
    n = circuit.n_unknowns
    n_nodes = circuit.n_nodes
    x = x0.copy()
    for iteration in range(1, max_iter + 1):
        G = G0.copy()
        b = source_scale * b0
        if gshunt > 0.0:
            G[np.arange(n_nodes), np.arange(n_nodes)] += gshunt
        for device in nonlinear:
            device.stamp_nonlinear(G, b, x)
        try:
            x_new = np.linalg.solve(G, b)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "singular MNA matrix in DC solve of {!r}".format(
                    circuit.title), iterations=iteration)
        delta = x_new - x
        # Clamp node-voltage updates; branch currents are left free.
        dv = delta[:n_nodes]
        np.clip(dv, -MAX_STEP, MAX_STEP, out=dv)
        x = x + delta
        if np.max(np.abs(dv), initial=0.0) < vtol:
            return x, iteration
    raise ConvergenceError(
        "DC Newton iteration did not converge in {} steps".format(max_iter),
        iterations=max_iter,
        residual=float(np.max(np.abs(delta))))


def solve_dc(circuit, x0=None, max_iter=MAX_ITER, vtol=VTOL,
             use_homotopy=True):
    """Compute the DC operating point of ``circuit``.

    Parameters
    ----------
    circuit:
        The :class:`~repro.circuit.netlist.Circuit` to solve.
    x0:
        Optional initial guess (defaults to all zeros).
    max_iter, vtol:
        Newton iteration limit and node-voltage tolerance.
    use_homotopy:
        When True (default), fall back to gmin stepping and then source
        stepping if the plain Newton iteration fails.  The static
        assembly is shared across all fallback attempts of one call.

    Returns
    -------
    DCResult

    Raises
    ------
    ConvergenceError
        If no strategy converges.
    """
    circuit.compile()
    _, nonlinear, _ = circuit.partition()
    G0, b0 = _assemble_static(circuit)
    n = circuit.n_unknowns
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()

    try:
        x_sol, iters = _newton(circuit, G0, b0, nonlinear, x,
                               max_iter=max_iter, vtol=vtol)
        return DCResult(circuit, x_sol, iters)
    except ConvergenceError:
        if not use_homotopy:
            raise

    # gmin stepping: relax a global shunt conductance toward zero.
    total_iters = 0
    x_seed = x.copy()
    try:
        for gshunt in np.logspace(-2, -12, 11):
            x_seed, iters = _newton(circuit, G0, b0, nonlinear, x_seed,
                                    gshunt=gshunt, max_iter=max_iter,
                                    vtol=vtol)
            total_iters += iters
        x_sol, iters = _newton(circuit, G0, b0, nonlinear, x_seed,
                               max_iter=max_iter, vtol=vtol)
        return DCResult(circuit, x_sol, total_iters + iters)
    except ConvergenceError:
        pass

    # Source stepping: ramp all independent sources from 0 to full value.
    x_seed = np.zeros(n)
    total_iters = 0
    try:
        for scale in np.linspace(0.05, 1.0, 20):
            x_seed, iters = _newton(circuit, G0, b0, nonlinear, x_seed,
                                    source_scale=scale, max_iter=max_iter,
                                    vtol=vtol)
            total_iters += iters
        return DCResult(circuit, x_seed, total_iters)
    except ConvergenceError as exc:
        raise ConvergenceError(
            "DC analysis of {!r} failed after Newton, gmin stepping and "
            "source stepping".format(circuit.title),
            iterations=exc.iterations, residual=exc.residual) from exc
