"""Device models for the MNA circuit simulator.

Stamping conventions
--------------------

The simulator solves ``G @ x = b`` where ``x`` stacks node voltages
followed by auxiliary branch currents (one per voltage-source-like
device).  KCL rows state that the sum of currents *leaving* a node
through devices equals the current *injected* into the node by
independent sources.  The ground node has index ``-1``; stamping helpers
silently drop ground rows/columns.

Every device implements a subset of the stamping hooks:

``stamp_static(G)``
    Constant, voltage-independent conductance pattern (resistors, the
    incidence pattern of sources, controlled-source gains).  Valid for
    DC, AC and transient alike.
``stamp_dc(G, b)``
    DC-only contributions: source DC values, inductor shorts.
``stamp_nonlinear(G, b, x)``
    Linearized companion model around the candidate solution ``x``
    (MOSFETs, diodes).  Called once per Newton-Raphson iteration.
``stamp_ac(G, b, omega)``
    Small-signal frequency-dependent stamps (capacitors, inductors, AC
    source amplitudes) into a complex system.
``stamp_ac_linearized(G, x_op)``
    Frequency-independent small-signal conductances of nonlinear
    devices evaluated at the operating point ``x_op``.
``stamp_tran_G(G, dt)`` / ``stamp_tran_b(b, t, state)``
    Companion-model conductance (fixed per time step size) and history
    current for reactive devices, plus time-varying source values.
``init_state(x)`` / ``update_state(state, x, dt)``
    Reactive-device history bookkeeping for the integration method.
"""

import math

import numpy as np

from repro.errors import CircuitError

#: Minimum conductance placed across nonlinear junctions to aid convergence.
GMIN = 1e-12

#: Thermal voltage at room temperature (V).
VT_ROOM = 0.02585


def _add(G, i, j, value):
    """Accumulate ``value`` into ``G[i, j]`` unless either index is ground."""
    if i >= 0 and j >= 0:
        G[i, j] += value


def _add_b(b, i, value):
    """Accumulate ``value`` into ``b[i]`` unless ``i`` is ground."""
    if i >= 0:
        b[i] += value


# ---------------------------------------------------------------------------
# Source waveforms
# ---------------------------------------------------------------------------

class Waveform:
    """Base class for time-dependent source values.

    Subclasses provide :attr:`dc` (the operating-point value) and
    :meth:`at` (the instantaneous transient value).  :meth:`at_grid`
    evaluates a whole time grid at once; a subclass that vectorizes it
    must return, element for element, exactly what :meth:`at` returns.
    """

    dc = 0.0

    def at(self, t):
        """Return the source value at time ``t`` (seconds)."""
        raise NotImplementedError

    def at_grid(self, t):
        """Values at every time of the 1-D grid ``t``, bitwise :meth:`at`."""
        return np.array([self.at(ti) for ti in t], dtype=float)


class Dc(Waveform):
    """A constant source value."""

    def __init__(self, value):
        self.dc = float(value)

    def at(self, t):
        return self.dc

    def at_grid(self, t):
        return np.full(len(t), self.dc)

    def __repr__(self):
        return "Dc({:g})".format(self.dc)


class Pulse(Waveform):
    """A SPICE-style pulse waveform.

    Parameters
    ----------
    v1, v2:
        Initial and pulsed values.
    delay:
        Time at which the first edge starts.
    rise, fall:
        Edge durations (must be positive to keep transient solves
        well-conditioned).
    width:
        Duration at ``v2`` between the edges (non-negative).
    period:
        Repetition period (positive); ``None`` means a single pulse.
    """

    def __init__(self, v1, v2, delay=0.0, rise=1e-9, fall=1e-9,
                 width=1.0, period=None):
        if rise <= 0 or fall <= 0:
            raise CircuitError("pulse rise/fall times must be positive")
        if width < 0:
            raise CircuitError("pulse width must be non-negative")
        if period is not None and period <= 0:
            raise CircuitError("pulse period must be positive")
        self.v1 = float(v1)
        self.v2 = float(v2)
        self.delay = float(delay)
        self.rise = float(rise)
        self.fall = float(fall)
        self.width = float(width)
        self.period = None if period is None else float(period)
        self.dc = self.v1

    def at(self, t):
        t = t - self.delay
        if self.period is not None and t > 0:
            t = t % self.period
        if t <= 0:
            return self.v1
        if t < self.rise:
            return self.v1 + (self.v2 - self.v1) * t / self.rise
        t -= self.rise
        if t < self.width:
            return self.v2
        t -= self.width
        if t < self.fall:
            return self.v2 + (self.v1 - self.v2) * t / self.fall
        return self.v1

    def at_grid(self, t):
        # :meth:`at`'s expressions in its order; np.remainder rounds as
        # Python's float % does for a positive period.
        t = np.asarray(t, dtype=float) - self.delay
        if self.period is not None:
            t = np.where(t > 0, np.remainder(t, self.period), t)
        rising = self.v1 + (self.v2 - self.v1) * t / self.rise
        t_high = t - self.rise
        t_fall = t_high - self.width
        falling = self.v2 + (self.v1 - self.v2) * t_fall / self.fall
        return np.select(
            [t <= 0, t < self.rise, t_high < self.width,
             t_fall < self.fall],
            [self.v1, rising, self.v2, falling], self.v1)


class Sine(Waveform):
    """A sinusoidal source ``offset + amplitude*sin(2*pi*freq*(t-delay))``."""

    def __init__(self, offset, amplitude, freq, delay=0.0, phase_deg=0.0):
        self.offset = float(offset)
        self.amplitude = float(amplitude)
        self.freq = float(freq)
        self.delay = float(delay)
        self.phase = math.radians(phase_deg)
        self.dc = self.offset

    def at(self, t):
        if t < self.delay:
            return self.offset
        arg = 2.0 * math.pi * self.freq * (t - self.delay) + self.phase
        return self.offset + self.amplitude * math.sin(arg)


class Pwl(Waveform):
    """A piecewise-linear waveform defined by ``(times, values)`` points."""

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise CircuitError("PWL needs matching 1-D times/values, >=2 points")
        if np.any(np.diff(times) <= 0):
            raise CircuitError("PWL times must be strictly increasing")
        self.times = times
        self.values = values
        self.dc = float(values[0])

    def at(self, t):
        return float(np.interp(t, self.times, self.values))


def _as_waveform(value):
    """Coerce a number or :class:`Waveform` into a :class:`Waveform`."""
    if isinstance(value, Waveform):
        return value
    return Dc(float(value))


# ---------------------------------------------------------------------------
# Device base class
# ---------------------------------------------------------------------------

class Device:
    """Common bookkeeping for every circuit element.

    Subclasses set :attr:`n_aux` (number of auxiliary branch-current
    unknowns) and :attr:`nonlinear`/:attr:`reactive` class flags, then
    implement the relevant stamping hooks documented in the module
    docstring.
    """

    n_aux = 0
    nonlinear = False
    reactive = False

    def __init__(self, name, node_names):
        self.name = str(name)
        self.node_names = tuple(str(n) for n in node_names)
        self.nodes = None          # integer node ids, bound by the circuit
        self.aux = None            # first auxiliary unknown index, if any

    def bind(self, node_ids, aux_base):
        """Attach resolved node indices and the auxiliary index base."""
        self.nodes = tuple(node_ids)
        self.aux = aux_base if self.n_aux else None

    # Default no-op hooks -------------------------------------------------
    def stamp_static(self, G):
        """Stamp voltage- and frequency-independent conductances."""

    def stamp_dc(self, G, b):
        """Stamp DC-only contributions (source values, inductor shorts)."""

    def stamp_nonlinear(self, G, b, x):
        """Stamp the linearized companion model at candidate solution ``x``."""

    def stamp_ac(self, G, b, omega):
        """Stamp frequency-dependent small-signal contributions."""

    def stamp_ac_linearized(self, G, x_op):
        """Stamp small-signal conductances at the DC operating point."""

    def stamp_tran_G(self, G, dt):
        """Stamp the companion conductance for time step ``dt``."""

    def stamp_tran_b(self, b, t, state):
        """Stamp time-varying source values and companion history currents."""

    def init_state(self, x):
        """Return the initial integration state from the DC solution ``x``."""
        return None

    def update_state(self, state, x, dt):
        """Advance the integration state after a converged time step."""
        return state

    def __repr__(self):
        return "{}({!r}, nodes={})".format(
            type(self).__name__, self.name, self.node_names)


# ---------------------------------------------------------------------------
# Linear two-terminal devices
# ---------------------------------------------------------------------------

class Resistor(Device):
    """An ideal linear resistor between two nodes."""

    def __init__(self, name, n1, n2, resistance):
        super().__init__(name, (n1, n2))
        resistance = float(resistance)
        if resistance <= 0:
            raise CircuitError(
                "resistor {!r} must have positive resistance".format(name))
        self.resistance = resistance

    def stamp_static(self, G):
        i, j = self.nodes
        g = 1.0 / self.resistance
        _add(G, i, i, g)
        _add(G, j, j, g)
        _add(G, i, j, -g)
        _add(G, j, i, -g)

    # The static stamp already covers AC; re-used via stamp_static.


class Capacitor(Device):
    """An ideal linear capacitor.

    Open circuit at DC, admittance ``j*omega*C`` in AC, and a
    trapezoidal (or backward-Euler) companion model in transient.
    """

    reactive = True

    def __init__(self, name, n1, n2, capacitance):
        super().__init__(name, (n1, n2))
        capacitance = float(capacitance)
        if capacitance <= 0:
            raise CircuitError(
                "capacitor {!r} must have positive capacitance".format(name))
        self.capacitance = capacitance
        self._method = "trap"

    def stamp_ac(self, G, b, omega):
        i, j = self.nodes
        y = 1j * omega * self.capacitance
        _add(G, i, i, y)
        _add(G, j, j, y)
        _add(G, i, j, -y)
        _add(G, j, i, -y)

    def _geq(self, dt):
        factor = 2.0 if self._method == "trap" else 1.0
        return factor * self.capacitance / dt

    def stamp_tran_G(self, G, dt):
        i, j = self.nodes
        g = self._geq(dt)
        _add(G, i, i, g)
        _add(G, j, j, g)
        _add(G, i, j, -g)
        _add(G, j, i, -g)

    def stamp_tran_b(self, b, t, state):
        # Companion current source in parallel with geq: i = geq*v - ieq.
        i, j = self.nodes
        _add_b(b, i, state["ieq"])
        _add_b(b, j, -state["ieq"])

    def _voltage(self, x):
        i, j = self.nodes
        vi = x[i] if i >= 0 else 0.0
        vj = x[j] if j >= 0 else 0.0
        return vi - vj

    def init_state(self, x):
        return {"v": self._voltage(x), "i": 0.0, "ieq": 0.0, "dt": None}

    def prepare_step(self, state, dt):
        """Compute the companion history current for the upcoming step."""
        g = self._geq(dt)
        if self._method == "trap":
            state["ieq"] = g * state["v"] + state["i"]
        else:
            state["ieq"] = g * state["v"]
        state["dt"] = dt

    def update_state(self, state, x, dt):
        v_new = self._voltage(x)
        g = self._geq(dt)
        state["i"] = g * v_new - state["ieq"]
        state["v"] = v_new
        return state


class Inductor(Device):
    """An ideal linear inductor with an auxiliary branch current.

    Short circuit at DC, impedance ``j*omega*L`` in AC, trapezoidal
    companion model in transient.  The branch current (from ``n1`` to
    ``n2``) is exposed as auxiliary unknown for measurement.
    """

    n_aux = 1
    reactive = True

    def __init__(self, name, n1, n2, inductance):
        super().__init__(name, (n1, n2))
        inductance = float(inductance)
        if inductance <= 0:
            raise CircuitError(
                "inductor {!r} must have positive inductance".format(name))
        self.inductance = inductance
        self._method = "trap"

    def stamp_static(self, G):
        i, j = self.nodes
        k = self.aux
        _add(G, i, k, 1.0)
        _add(G, j, k, -1.0)
        _add(G, k, i, 1.0)
        _add(G, k, j, -1.0)

    # DC: the aux row reads v_i - v_j = 0 (short); nothing extra needed.

    def stamp_ac(self, G, b, omega):
        _add(G, self.aux, self.aux, -1j * omega * self.inductance)

    def _req(self, dt):
        factor = 2.0 if self._method == "trap" else 1.0
        return factor * self.inductance / dt

    def stamp_tran_G(self, G, dt):
        _add(G, self.aux, self.aux, -self._req(dt))

    def stamp_tran_b(self, b, t, state):
        _add_b(b, self.aux, -state["veq"])

    def _voltage(self, x):
        i, j = self.nodes
        vi = x[i] if i >= 0 else 0.0
        vj = x[j] if j >= 0 else 0.0
        return vi - vj

    def init_state(self, x):
        return {"i": x[self.aux], "v": self._voltage(x), "veq": 0.0}

    def prepare_step(self, state, dt):
        """Compute the companion history voltage for the upcoming step."""
        if self._method == "trap":
            state["veq"] = self._req(dt) * state["i"] + state["v"]
        else:
            state["veq"] = self._req(dt) * state["i"]

    def update_state(self, state, x, dt):
        state["i"] = x[self.aux]
        state["v"] = self._voltage(x)
        return state


# ---------------------------------------------------------------------------
# Independent sources
# ---------------------------------------------------------------------------

class VoltageSource(Device):
    """An independent voltage source with DC, AC and transient values.

    Parameters
    ----------
    dc:
        Either a number (constant value) or a :class:`Waveform`.
    ac:
        Complex small-signal amplitude used by AC analysis (0 disables).

    The branch current flowing from ``n+`` through the source to ``n-``
    is an auxiliary unknown, retrievable from analysis results.
    """

    n_aux = 1

    def __init__(self, name, npos, nneg, dc=0.0, ac=0.0):
        super().__init__(name, (npos, nneg))
        self.wave = _as_waveform(dc)
        self.ac = complex(ac)

    def stamp_static(self, G):
        i, j = self.nodes
        k = self.aux
        _add(G, i, k, 1.0)
        _add(G, j, k, -1.0)
        _add(G, k, i, 1.0)
        _add(G, k, j, -1.0)

    def stamp_dc(self, G, b):
        _add_b(b, self.aux, self.wave.dc)

    def stamp_ac(self, G, b, omega):
        _add_b(b, self.aux, self.ac)

    def stamp_tran_b(self, b, t, state):
        _add_b(b, self.aux, self.wave.at(t))


class CurrentSource(Device):
    """An independent current source (flows from ``n+`` to ``n-``)."""

    def __init__(self, name, npos, nneg, dc=0.0, ac=0.0):
        super().__init__(name, (npos, nneg))
        self.wave = _as_waveform(dc)
        self.ac = complex(ac)

    def _stamp_value(self, b, value):
        i, j = self.nodes
        _add_b(b, i, -value)
        _add_b(b, j, value)

    def stamp_dc(self, G, b):
        self._stamp_value(b, self.wave.dc)

    def stamp_ac(self, G, b, omega):
        if self.ac != 0:
            self._stamp_value(b, self.ac)

    def stamp_tran_b(self, b, t, state):
        self._stamp_value(b, self.wave.at(t))


# ---------------------------------------------------------------------------
# Controlled sources
# ---------------------------------------------------------------------------

class Vcvs(Device):
    """A voltage-controlled voltage source (SPICE ``E`` element)."""

    n_aux = 1

    def __init__(self, name, npos, nneg, ncpos, ncneg, gain):
        super().__init__(name, (npos, nneg, ncpos, ncneg))
        self.gain = float(gain)

    def stamp_static(self, G):
        i, j, ci, cj = self.nodes
        k = self.aux
        _add(G, i, k, 1.0)
        _add(G, j, k, -1.0)
        _add(G, k, i, 1.0)
        _add(G, k, j, -1.0)
        _add(G, k, ci, -self.gain)
        _add(G, k, cj, self.gain)


class Vccs(Device):
    """A voltage-controlled current source (SPICE ``G`` element)."""

    def __init__(self, name, npos, nneg, ncpos, ncneg, transconductance):
        super().__init__(name, (npos, nneg, ncpos, ncneg))
        self.gm = float(transconductance)

    def stamp_static(self, G):
        i, j, ci, cj = self.nodes
        g = self.gm
        _add(G, i, ci, g)
        _add(G, i, cj, -g)
        _add(G, j, ci, -g)
        _add(G, j, cj, g)


# ---------------------------------------------------------------------------
# Nonlinear devices
# ---------------------------------------------------------------------------

class Diode(Device):
    """An exponential junction diode with Newton companion model.

    ``i = Is * (exp(v / (n*Vt)) - 1)`` with voltage limiting to keep the
    exponential from overflowing during Newton iterations.
    """

    nonlinear = True

    def __init__(self, name, npos, nneg, isat=1e-14, n=1.0):
        super().__init__(name, (npos, nneg))
        self.isat = float(isat)
        self.nvt = float(n) * VT_ROOM
        # Critical voltage beyond which the exponential is linearized.
        self.vcrit = self.nvt * math.log(self.nvt / (math.sqrt(2.0) * self.isat))

    def _vd(self, x):
        i, j = self.nodes
        vi = x[i] if i >= 0 else 0.0
        vj = x[j] if j >= 0 else 0.0
        return vi - vj

    def stamp_nonlinear(self, G, b, x):
        vd = min(self._vd(x), self.vcrit + 5.0 * self.nvt)
        e = math.exp(min(vd / self.nvt, 80.0))
        idd = self.isat * (e - 1.0)
        gd = self.isat * e / self.nvt + GMIN
        ieq = idd - gd * vd
        i, j = self.nodes
        _add(G, i, i, gd)
        _add(G, j, j, gd)
        _add(G, i, j, -gd)
        _add(G, j, i, -gd)
        _add_b(b, i, -ieq)
        _add_b(b, j, ieq)

    def stamp_ac_linearized(self, G, x_op):
        vd = min(self._vd(x_op), self.vcrit + 5.0 * self.nvt)
        gd = self.isat * math.exp(min(vd / self.nvt, 80.0)) / self.nvt + GMIN
        i, j = self.nodes
        _add(G, i, i, gd)
        _add(G, j, j, gd)
        _add(G, i, j, -gd)
        _add(G, j, i, -gd)


class Mosfet(Device):
    """A level-1 (square-law) MOSFET with channel-length modulation.

    Parameters
    ----------
    kind:
        ``"n"`` for NMOS or ``"p"`` for PMOS.
    w, l:
        Channel width and length in meters.
    kp:
        Process transconductance ``mu * Cox`` (A/V^2).
    vth:
        Threshold voltage magnitude (positive for both kinds).
    lam:
        Channel-length modulation coefficient (1/V), scaled by ``l``
        internally as ``lam / (l / 1e-6)`` so longer devices have higher
        output resistance, mirroring real processes.

    Nodes are ``(drain, gate, source)``; the bulk terminal is assumed
    tied to the appropriate rail (no body effect), which is accurate
    enough for the op-amp testbench while keeping Newton iterations
    robust.  A ``GMIN`` conductance is stamped drain-to-source for
    convergence.
    """

    nonlinear = True

    def __init__(self, name, drain, gate, source, kind="n", w=10e-6, l=1e-6,
                 kp=100e-6, vth=0.7, lam=0.05):
        super().__init__(name, (drain, gate, source))
        kind = str(kind).lower()
        if kind not in ("n", "p"):
            raise CircuitError("MOSFET kind must be 'n' or 'p'")
        if w <= 0 or l <= 0 or kp <= 0:
            raise CircuitError(
                "MOSFET {!r} needs positive w, l and kp".format(name))
        self.kind = kind
        self.w = float(w)
        self.l = float(l)
        self.kp = float(kp)
        self.vth = float(vth)
        self.lam = float(lam) / (self.l / 1e-6)
        self.beta = self.kp * self.w / self.l

    # -- electrical evaluation -------------------------------------------
    def _terminal_voltages(self, x):
        d, g, s = self.nodes
        vd = x[d] if d >= 0 else 0.0
        vg = x[g] if g >= 0 else 0.0
        vs = x[s] if s >= 0 else 0.0
        return vd, vg, vs

    def evaluate(self, x):
        """Return ``(id, gm, gds)`` referenced to the drain terminal.

        ``id`` is the current entering the drain (negative for PMOS in
        normal operation).  ``gm = d id / d vgs`` and
        ``gds = d id / d vds`` with voltages taken gate-to-source and
        drain-to-source regardless of polarity.
        """
        vd, vg, vs = self._terminal_voltages(x)
        sign = 1.0 if self.kind == "n" else -1.0
        # Map PMOS onto the NMOS equations via polarity reflection.
        vgs = sign * (vg - vs)
        vds = sign * (vd - vs)
        swapped = vds < 0.0
        if swapped:
            # Source and drain exchange roles; device is symmetric.
            vgs = vgs - vds
            vds = -vds
        vov = vgs - self.vth
        if vov <= 0.0:
            idn, gm, gds = 0.0, 0.0, GMIN
        elif vds < vov:
            clm = 1.0 + self.lam * vds
            idn = self.beta * (vov * vds - 0.5 * vds * vds) * clm
            gm = self.beta * vds * clm
            gds = (self.beta * (vov - vds) * clm
                   + self.beta * (vov * vds - 0.5 * vds * vds) * self.lam)
        else:
            clm = 1.0 + self.lam * vds
            idn = 0.5 * self.beta * vov * vov * clm
            gm = self.beta * vov * clm
            gds = 0.5 * self.beta * vov * vov * self.lam
        if swapped:
            # Undo the source/drain exchange: current reverses, and the
            # conductances transform per the chain rule.
            idn = -idn
            gds = gds + gm
            gm = -gm
        # Undo the polarity reflection: gm and gds are invariant, the
        # current flips sign for PMOS.
        return sign * idn, gm, gds + GMIN

    def stamp_nonlinear(self, G, b, x):
        vd, vg, vs = self._terminal_voltages(x)
        idd, gm, gds = self.evaluate(x)
        d, g, s = self.nodes
        vgs = vg - vs
        vds = vd - vs
        ieq = idd - gm * vgs - gds * vds
        _add(G, d, g, gm)
        _add(G, d, d, gds)
        _add(G, d, s, -(gm + gds))
        _add(G, s, g, -gm)
        _add(G, s, d, -gds)
        _add(G, s, s, gm + gds)
        _add_b(b, d, -ieq)
        _add_b(b, s, ieq)

    def stamp_ac_linearized(self, G, x_op):
        _, gm, gds = self.evaluate(x_op)
        d, g, s = self.nodes
        _add(G, d, g, gm)
        _add(G, d, d, gds)
        _add(G, d, s, -(gm + gds))
        _add(G, s, g, -gm)
        _add(G, s, d, -gds)
        _add(G, s, s, gm + gds)

    def operating_region(self, x):
        """Classify the operating region at solution ``x``.

        Returns one of ``"cutoff"``, ``"triode"`` or ``"saturation"``
        (useful for design debugging and bias verification in tests).
        """
        vd, vg, vs = self._terminal_voltages(x)
        sign = 1.0 if self.kind == "n" else -1.0
        vgs = sign * (vg - vs)
        vds = sign * (vd - vs)
        if vds < 0:
            vgs, vds = vgs - vds, -vds
        vov = vgs - self.vth
        if vov <= 0:
            return "cutoff"
        if vds < vov:
            return "triode"
        return "saturation"
