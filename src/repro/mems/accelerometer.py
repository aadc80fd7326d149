"""Electrical-equivalent simulation of the accelerometer.

The mechanical system ``m x'' + c x' + k x = F`` maps onto a series
RLC branch under the force-voltage analogy::

    force F       ->  source voltage V
    velocity x'   ->  branch current I
    mass m        ->  inductance L
    damping c     ->  resistance R
    compliance    ->  capacitance C = 1/k

so the displacement phasor is ``X(w) = I(w) / (j*w) =
V / (k - w^2 m + j*w*c)``.  The netlist is built with
:class:`repro.circuit.netlist.Circuit` and swept with
:func:`repro.circuit.ac.solve_ac`, i.e. the accelerometer runs through
exactly the same simulator substrate as the op-amp -- mirroring the
paper, where both devices go through Spectre.
"""

import numpy as np

from repro.circuit.ac import solve_ac
from repro.circuit.batch import CircuitBatch
from repro.circuit.dc import solve_dc
from repro.circuit.netlist import Circuit
from repro.errors import ReproError
from repro.mems import mechanics


def build_equivalent_circuit(geometry, temperature_c=mechanics.T_ROOM,
                             force_amplitude=1.0):
    """Series-RLC equivalent netlist of one accelerometer instance.

    Returns ``(circuit, lumped)`` where ``lumped`` is a dict with the
    physical ``m``, ``c``, ``k`` used for the mapping (handy for tests
    and documentation).
    """
    m = mechanics.effective_mass(geometry)
    c = mechanics.damping_coefficient(geometry, temperature_c)
    k = mechanics.spring_constant(geometry, temperature_c)

    ckt = Circuit("accel-equivalent@{:g}C".format(temperature_c))
    ckt.voltage_source("Fdrive", "force", "0", dc=0.0, ac=force_amplitude)
    ckt.inductor("Lmass", "force", "vel", m)
    ckt.resistor("Rdamp", "vel", "spr", c)
    ckt.capacitor("Ckinv", "spr", "0", 1.0 / k)
    return ckt, {"m": m, "c": c, "k": k}


def frequency_response(geometry, freqs, temperature_c=mechanics.T_ROOM):
    """Displacement magnitude |x(f)| per unit force, via AC analysis.

    Parameters
    ----------
    geometry:
        :class:`~repro.mems.geometry.AccelerometerGeometry`.
    freqs:
        Frequencies to sweep (Hz).
    temperature_c:
        Die temperature in degrees Celsius.

    Returns
    -------
    numpy.ndarray
        ``|x|`` in meters per newton at each frequency.
    """
    ckt, _ = build_equivalent_circuit(geometry, temperature_c)
    op = solve_dc(ckt)
    ac = solve_ac(ckt, freqs, op)
    velocity = ac.branch_current("Fdrive")
    omega = 2.0 * np.pi * np.asarray(list(freqs), dtype=float)
    # The source current flows from + through the source, i.e. opposite
    # to the branch current delivered into the RLC; magnitude is what
    # the displacement extraction needs.
    displacement = np.abs(velocity) / omega
    return displacement


def frequency_response_batch(geometries, freqs,
                             temperature_c=mechanics.T_ROOM):
    """Displacement responses of many instances through one solve stack.

    The batched counterpart of :func:`frequency_response`: every
    instance's series-RLC equivalent is stacked into one
    :class:`~repro.circuit.batch.CircuitBatch` and the whole
    instance x frequency sweep goes through stacked LAPACK solves --
    values bit-identical to the scalar path per instance.

    Returns
    -------
    (numpy.ndarray, list)
        ``(B, n_freqs)`` displacement magnitudes (NaN rows for failed
        instances) and the per-instance error list (``None`` on
        success).  A failure -- e.g. thermal buckling making the
        equivalent circuit unbuildable -- stays confined to its
        instance.
    """
    n = len(geometries)
    errors = [None] * n
    keys, circuits = [], []
    for k, geometry in enumerate(geometries):
        try:
            circuits.append(
                build_equivalent_circuit(geometry, temperature_c)[0])
        except ReproError as exc:
            errors[k] = exc
        else:
            keys.append(k)

    omega = 2.0 * np.pi * np.asarray(list(freqs), dtype=float)
    displacement = np.full((n, omega.size), np.nan)
    if keys:
        batch = CircuitBatch(circuits)
        op = batch.solve_dc()
        live = [pos for pos in range(len(keys))
                if op.errors[pos] is None]
        ac = batch.solve_ac(freqs, op.x, active=live)
        velocity = ac.branch_current("Fdrive")
        live_set = set(live)
        for pos, k in enumerate(keys):
            error = op.errors[pos] or ac.errors[pos]
            if error is not None:
                errors[k] = error
            elif pos in live_set:
                displacement[k] = np.abs(velocity[pos]) / omega
    return displacement, errors
