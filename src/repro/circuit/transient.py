"""Transient (time-domain) analysis with companion-model integration.

Reactive devices are replaced by their trapezoidal (default) or
backward-Euler companion models; nonlinear devices are iterated with
Newton-Raphson at every time step.  The step size is fixed, with an
automatic local halving retry when a step fails to converge (the step
is re-integrated as several sub-steps so the output grid is preserved).
"""

import numpy as np

from repro.errors import ConvergenceError

#: Newton tolerance on node voltages within a time step (V).
VTOL = 1e-7
#: Newton iteration limit per time step.
MAX_ITER = 60
#: Maximum number of local step-halving retries.
MAX_HALVINGS = 6


class TransientResult:
    """Time-domain waveforms for every node and auxiliary branch."""

    def __init__(self, circuit, t, X):
        self._circuit = circuit
        #: 1-D array of time points (s), including t=0.
        self.t = t
        self._X = X  # shape (n_points, n_unknowns)

    def v(self, node):
        """Waveform array of the voltage at ``node``."""
        idx = self._circuit.node_id(node)
        if idx < 0:
            return np.zeros_like(self.t)
        return self._X[:, idx]

    def branch_current(self, device_name):
        """Waveform array of the branch current through an aux device."""
        device = self._circuit.device(device_name)
        if device.aux is None:
            raise ConvergenceError(
                "device {!r} has no branch-current unknown".format(device_name))
        return self._X[:, device.aux]

    def __repr__(self):
        return "TransientResult({} points, t_end={:g}s)".format(
            len(self.t), self.t[-1] if len(self.t) else 0.0)


def _newton_step(circuit, G_static, b_step, nonlinear, x_guess,
                 max_iter=MAX_ITER, vtol=VTOL):
    """Newton iteration for a single time step; returns the solution."""
    n_nodes = circuit.n_nodes
    x = x_guess.copy()
    for iteration in range(1, max_iter + 1):
        G = G_static.copy()
        b = b_step.copy()
        for device in nonlinear:
            device.stamp_nonlinear(G, b, x)
        try:
            x_new = np.linalg.solve(G, b)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "singular transient system in {!r}".format(circuit.title),
                iterations=iteration)
        delta = x_new - x
        dv = delta[:n_nodes]
        np.clip(dv, -0.5, 0.5, out=dv)
        x = x + delta
        if np.max(np.abs(dv), initial=0.0) < vtol:
            return x
    raise ConvergenceError(
        "transient Newton iteration failed", iterations=max_iter)


def _assemble_tran_static(circuit, dt, method):
    """Static G for a given step size: resistive stamps + companions."""
    n = circuit.n_unknowns
    G = np.zeros((n, n))
    for device in circuit.devices:
        device.stamp_static(G)
    for device in circuit.devices:
        if device.reactive:
            device._method = method
            device.stamp_tran_G(G, dt)
    return G


def _build_b(circuit, reactive, t, dt, states):
    """Per-step right-hand side: sources at time ``t`` + history currents."""
    b = np.zeros(circuit.n_unknowns)
    for device in circuit.devices:
        device.stamp_tran_b(b, t, states.get(device.name))
    return b


def solve_transient(circuit, t_stop, dt, x0=None, method="trap"):
    """Integrate ``circuit`` from 0 to ``t_stop`` with fixed step ``dt``.

    Parameters
    ----------
    circuit:
        The circuit to integrate.  Time-varying sources follow their
        :class:`~repro.circuit.devices.Waveform` definitions.
    t_stop, dt:
        Total simulated time and the output step size (seconds).
    x0:
        Initial solution vector; defaults to the DC operating point at
        ``t = 0`` (sources evaluated at their DC values).
    method:
        ``"trap"`` (trapezoidal, default) or ``"be"`` (backward Euler).
        The very first step always uses backward Euler to avoid the
        trapezoidal start-up ringing artifact.  Every unknown is
        recorded (the systems here are small).

    Returns
    -------
    TransientResult
    """
    from repro.circuit.dc import solve_dc  # local import: avoids a cycle

    circuit.compile()
    if method not in ("trap", "be"):
        raise ConvergenceError("unknown integration method {!r}".format(method))
    _, nonlinear, reactive_all = circuit.partition()
    reactive = tuple(reactive_all)

    if x0 is None:
        x = solve_dc(circuit).x
    else:
        x = np.asarray(x0, dtype=float).copy()

    states = {d.name: d.init_state(x) for d in reactive}

    n_steps = int(round(t_stop / dt))
    t_grid = np.linspace(0.0, n_steps * dt, n_steps + 1)
    X = np.empty((n_steps + 1, circuit.n_unknowns))
    X[0] = x

    # First step with backward Euler, then the requested method.
    G_be = _assemble_tran_static(circuit, dt, "be")
    G_main = (_assemble_tran_static(circuit, dt, method)
              if method != "be" else G_be)

    for k in range(1, n_steps + 1):
        t_new = t_grid[k]
        step_method = "be" if k == 1 else method
        G_static = G_be if step_method == "be" else G_main
        for device in reactive:
            device._method = step_method
            device.prepare_step(states[device.name], dt)
        b_step = _build_b(circuit, reactive, t_new, dt, states)
        try:
            x = _newton_step(circuit, G_static, b_step, nonlinear, x)
            for device in reactive:
                states[device.name] = device.update_state(
                    states[device.name], x, dt)
        except ConvergenceError:
            x = _substep(circuit, nonlinear, reactive, states, x,
                         t_grid[k - 1], dt, method)
        X[k] = x
    return TransientResult(circuit, t_grid, X)


def _substep(circuit, nonlinear, reactive, states, x, t_start, dt, method):
    """Re-integrate one output step as progressively finer sub-steps.

    Backward Euler is used for robustness at the reduced step size.
    States are advanced through the sub-steps so the caller can resume
    the nominal step size afterwards.
    """
    last_error = None
    for halving in range(1, MAX_HALVINGS + 1):
        n_sub = 2 ** halving
        h = dt / n_sub
        x_try = x.copy()
        saved = {name: dict(state) for name, state in states.items()}
        G_static = _assemble_tran_static(circuit, h, "be")
        try:
            for s in range(1, n_sub + 1):
                t_new = t_start + s * h
                for device in reactive:
                    device._method = "be"
                    device.prepare_step(saved[device.name], h)
                b_step = _build_b(circuit, reactive, t_new, h, saved)
                x_try = _newton_step(circuit, G_static, b_step, nonlinear,
                                     x_try)
                for device in reactive:
                    saved[device.name] = device.update_state(
                        saved[device.name], x_try, h)
            states.update(saved)
            # Restore the nominal integration method on the devices.
            for device in reactive:
                device._method = method
            return x_try
        except ConvergenceError as exc:
            last_error = exc
    raise ConvergenceError(
        "transient step at t={:g}s failed after {} halvings".format(
            t_start, MAX_HALVINGS)) from last_error
