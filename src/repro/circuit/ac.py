"""Small-signal AC (frequency-domain) analysis.

The circuit is linearized around a DC operating point: nonlinear
devices contribute their small-signal conductances (``gm``, ``gds``,
junction conductance) and reactive devices contribute ``j*omega``
admittances.  Independent sources contribute their AC amplitudes; the
DC values are irrelevant here because the analysis solves for
small-signal deviations.
"""

import numpy as np

from repro.errors import AnalysisError


class _StampRecorder:
    """Captures ``(index, value)`` pairs from a device stamp call.

    The stamping helpers write ``G[i, j] += value``; handing them this
    recorder instead of a matrix turns one stamp call into an explicit
    entry list that can be replayed cheaply (``0.0 + value`` is exact,
    so recorded values equal stamped values bit for bit).
    """

    def __init__(self):
        self.entries: list = []

    def __getitem__(self, key):
        return 0.0

    def __setitem__(self, key, value):
        self.entries.append((key, value))


def reactive_entry_list(circuit, reactive):
    """Hoisted per-frequency stamp entries of the reactive devices.

    Returns ``[((i, j), coef), ...]`` such that adding
    ``omega * coef`` at ``(i, j)`` -- in list order -- reproduces the
    per-frequency ``stamp_ac`` calls exactly: every built-in reactive
    admittance is linear in ``omega`` (``j*omega*C``, ``-j*omega*L``)
    and multiplying the unit-frequency coefficient by ``omega`` rounds
    identically to stamping at ``omega`` directly.  Non-linear-in-omega
    devices raise so the hoist can never silently change a result
    (:func:`solve_ac` catches this and falls back to per-frequency
    stamping; the batched kernel, which requires the hoist, rejects
    such devices at compile time).
    """
    unit = _StampRecorder()
    double = _StampRecorder()
    dummy_b = np.zeros(circuit.n_unknowns, dtype=complex)
    for device in reactive:
        device.stamp_ac(unit, dummy_b, 1.0)
        device.stamp_ac(double, dummy_b, 2.0)
    checked = [(key, 2.0 * coef) for key, coef in unit.entries]
    if checked != double.entries:
        raise AnalysisError(
            "reactive stamps of {!r} are not linear in omega; cannot "
            "hoist the AC assembly".format(circuit.title))
    return unit.entries


class ACResult:
    """Frequency sweep result: complex node voltages vs frequency."""

    def __init__(self, circuit, freqs, X):
        self._circuit = circuit
        #: Array of analysis frequencies in Hz.
        self.freqs = freqs
        self._X = X  # shape (n_freqs, n_unknowns), complex

    def v(self, node):
        """Complex voltage phasor array for ``node`` across the sweep."""
        idx = self._circuit.node_id(node)
        if idx < 0:
            return np.zeros(len(self.freqs), dtype=complex)
        return self._X[:, idx]

    def branch_current(self, device_name):
        """Complex branch-current phasor array for an aux-carrying device."""
        device = self._circuit.device(device_name)
        if device.aux is None:
            raise AnalysisError(
                "device {!r} has no branch-current unknown".format(device_name))
        return self._X[:, device.aux]

    def __repr__(self):
        return "ACResult({} frequencies)".format(len(self.freqs))


def solve_ac(circuit, freqs, op):
    """Run an AC sweep of ``circuit`` linearized at operating point ``op``.

    Parameters
    ----------
    circuit:
        The circuit to analyze.
    freqs:
        Iterable of analysis frequencies in Hz (must be positive).
    op:
        A :class:`~repro.circuit.dc.DCResult` from :func:`solve_dc` on
        the *same* circuit, providing the linearization point.

    Returns
    -------
    ACResult
    """
    circuit.compile()
    freqs = np.asarray(list(freqs), dtype=float)
    if freqs.size == 0:
        raise AnalysisError("AC analysis needs at least one frequency")
    if np.any(freqs <= 0):
        raise AnalysisError("AC analysis frequencies must be positive")

    n = circuit.n_unknowns
    linear, nonlinear, reactive = circuit.partition()

    # Frequency-independent part: static stamps + linearized devices.
    G_base = np.zeros((n, n), dtype=complex)
    b = np.zeros(n, dtype=complex)
    for device in circuit.devices:
        device.stamp_static(G_base)
        device.stamp_ac_linearized(G_base, op.x)
    # AC source amplitudes (right-hand side) are frequency independent.
    for device in circuit.devices:
        if not device.reactive:
            device.stamp_ac(G_base, b, 0.0)
    # Careful: non-reactive stamp_ac implementations only touch b.

    # Hoisted reactive stamps: the static assembly above and this entry
    # list are built once; the per-frequency loop only scales and adds.
    # A (user) reactive device that is not linear in omega keeps the
    # original per-frequency stamping loop instead.
    try:
        entries = reactive_entry_list(circuit, reactive)
    except AnalysisError:
        entries = None
    dummy_b = np.zeros(n, dtype=complex)

    X = np.empty((freqs.size, n), dtype=complex)
    for k, f in enumerate(freqs):
        omega = 2.0 * np.pi * f
        G = G_base.copy()
        if entries is None:
            for device in reactive:
                device.stamp_ac(G, dummy_b, omega)
        else:
            for (i, j), coef in entries:
                G[i, j] += omega * coef
        try:
            X[k] = np.linalg.solve(G, b)
        except np.linalg.LinAlgError:
            raise AnalysisError(
                "singular AC system at {:g} Hz in {!r}".format(
                    f, circuit.title)) from None
    return ACResult(circuit, freqs, X)
