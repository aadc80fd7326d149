"""Batched MNA simulation kernel: one netlist topology, many instances.

Monte-Carlo populations simulate the *same* circuit topology hundreds
of times with different device values.  The scalar analyses in
:mod:`repro.circuit.dc` / :mod:`~repro.circuit.ac` /
:mod:`~repro.circuit.transient` pay the Python stamping loop and a tiny
dense :func:`numpy.linalg.solve` once per instance per Newton iteration
(or per frequency, or per time step) -- interpreter overhead dominates.
This module removes it:

**Stamp plan.**  :class:`CircuitBatch` compiles the shared topology
once into value banks and scatter plans.  The static stamps of every
device become one ``(B, S)`` value bank (per-instance values gathered
from the B device objects) plus the fixed flat matrix slot of each
entry (ground rows dropped).  A :class:`_ScatterPlan` adds value
columns into their slots in *layers*: the r-th addition into a slot
goes into layer r, so each layer is one vectorized add with unique
slots and every slot receives its additions in exactly the scalar
stamping order.  Assembly then stacks all instances' MNA systems into
one ``(B, n, n)`` / ``(B, n)`` pair, and one stacked
:func:`numpy.linalg.solve` call factors the whole population through
LAPACK's ``gesv``.

**Nonlinear plan.**  The MOSFETs and diodes are not stamped one device
position at a time.  :class:`_NonlinearPlan` gathers their parameters
into ``(B, k)`` banks and their terminals into index arrays, evaluates
every nonlinear device of every instance in one vectorized pass (the
scalar expressions in the scalar order), and scatters the values into
``G`` and ``b`` through layered plans in scalar device-then-entry
order.  DC and transient Newton start from a copy of the static
matrix, exactly as the scalar solvers do, so the nonlinear entries go
on top.  The AC base matrix is different: ``ac.solve_ac`` stamps each
device's static and linearized entries together, device by device, and
the op-amp's resistors sit among its MOSFETs.  The AC plan therefore
runs over the static and linearized entries interleaved in device
order; appending every linearized entry after the static ones would
change the rounding.

**Newton tick.**  DC and transient Newton share one stacked step,
:meth:`CircuitBatch._newton_tick`: stamp the nonlinear plan, solve the
stack, clip the node update, test convergence per row.  Each tick is
one nonlinear-plan pass and one stacked solve, and each row performs
exactly one scalar Newton iteration in it.

**Masked Newton (DC).**  All instances iterate together; an instance
leaves the active set the moment its own node voltages converge, so its
solution is frozen exactly where the scalar iteration would have
stopped.  Instances whose matrix turns singular mid-iteration, or that
fail to converge within the iteration limit, are *demoted*: they re-run
through the scalar :func:`~repro.circuit.dc.solve_dc` (with its full
gmin/source-stepping homotopy arsenal) individually, so one hard
instance never stalls -- or fails -- the batch.

**Batched AC.**  The linearized base matrix is assembled per instance
once; the reactive stamps are hoisted to an omega-linear entry list
(exactly as in the scalar :func:`~repro.circuit.ac.solve_ac`) and the
instance x frequency systems are stacked into memory-bounded chunks,
each solved with a single stacked LAPACK call.

**Batched transient: one step clock per instance.**  Fixed-step
integration with the companion conductance stacks (backward Euler for
step 1, the requested method after) assembled once per solve, and
every source evaluated over the whole time grid once, into a
``(n_steps + 1, B)`` bank (:meth:`~repro.circuit.devices.Waveform.at_grid`,
bitwise ``Waveform.at``).  Each instance keeps its own step index and
Newton count.  Every tick stacks every live instance, each at its own
step; an instance that converges records its step, advances its
companion history and starts its next step on the next tick,
warm-started from the solution just found.  No instance waits for the
slowest one of a step, so a solve takes about as many ticks as its
slowest instance takes Newton iterations in all.  An instance that
fails a step is demoted to the scalar
:func:`~repro.circuit.transient.solve_transient` (with its local
step-halving retries) for the whole run.

Parity contract
---------------

For every built-in device except the diode, a batched analysis is
**bit-identical** to running the scalar analysis on each instance:
the vectorized stamp formulas perform the same IEEE operations in the
same order (elementwise operations and ``np.where`` round the same at
any array shape), the layered plans replay the scalar per-slot
accumulation order, and LAPACK's ``gesv`` factors a stacked system
exactly as it factors each matrix alone.  The diode's exponential goes
through :func:`numpy.exp` instead of :func:`math.exp`, which may differ
in the last ulp; diode circuits are therefore equivalent only to
~1e-15 relative.  The parity suite in ``tests/circuit/test_batch.py`` pins
both statements down.

Demotion preserves the contract trivially: a demoted instance *is* the
scalar path.  Per-instance failures come back in the result's
``errors`` list (aligned with the batch) instead of aborting the other
instances.
"""

import time

import numpy as np

from repro.circuit import devices as dev
from repro.circuit import dc as _dc
from repro.circuit import transient as _tran
from repro.errors import AnalysisError, CircuitError, ConvergenceError
from repro.telemetry import get_telemetry

#: Upper bound on complex matrix entries per stacked AC solve chunk
#: (~8 MiB of workspace at 16 bytes per entry): the peak memory of a
#: simulation wave.  A 128-row MEMS sweep (5 unknowns x 121
#: frequencies) stays one chunk; the 14-unknown op-amp sweep is solved
#: in frequency blocks, so its peak does not grow with the wave size.
#: Chunk boundaries never change a value: LAPACK solves every system
#: alone.
AC_CHUNK_ENTRIES = 1 << 19

#: Node-voltage clamp per transient Newton iteration (V), matching the
#: scalar ``transient._newton_step``.
TRAN_MAX_STEP = 0.5


def _record(started, analysis, demotions, ticks=None, iterations=0):
    """Report one analysis call to telemetry; returns the registry.

    ``started`` is the call's ``time.perf_counter()`` start.  A Newton
    analysis passes ``ticks``, its count of stacked solves, and
    ``iterations``, the per-row Newton iterations they carried (a
    count, or an array of per-row counts).
    """
    seconds = time.perf_counter() - started
    tel = get_telemetry()
    if tel.enabled:
        tel.counter("repro_circuit_batch_solves_total", 1,
                    analysis=analysis)
        tel.counter("repro_circuit_batch_seconds_total", seconds,
                    analysis=analysis)
        if ticks is not None:
            tel.counter("repro_circuit_newton_ticks_total", ticks,
                        analysis=analysis)
            tel.counter("repro_circuit_newton_iterations_total",
                        int(np.sum(iterations)), analysis=analysis)
        if demotions:
            tel.counter("repro_circuit_demotions_total", demotions,
                        analysis=analysis)
    return tel


def _vcol(x, i):
    """Column ``i`` of the solution stack (zeros for ground)."""
    if i >= 0:
        return x[:, i]
    return np.zeros(x.shape[0])


def _pattern4(i, j, v):
    """The two-terminal conductance stamp pattern, ground-filtered."""
    entries = []
    if i >= 0:
        entries.append((i, i, v))
    if j >= 0:
        entries.append((j, j, v))
    if i >= 0 and j >= 0:
        entries.append((i, j, -v))
        entries.append((j, i, -v))
    return entries


def _aux_incidence(i, j, k):
    """The aux-branch incidence stamp pattern, ground-filtered.

    Shared by every device with a branch-current unknown (inductor,
    voltage source, VCVS); entry order matches the scalar stamps.
    """
    entries = []
    _entry(entries, i, k, 1.0)
    _entry(entries, j, k, -1.0)
    _entry(entries, k, i, 1.0)
    _entry(entries, k, j, -1.0)
    return entries


def _entry(entries, i, j, v):
    """Append one G entry unless a ground index drops it."""
    if i >= 0 and j >= 0:
        entries.append((i, j, v))


# ---------------------------------------------------------------------------
# Per-device-position batch handlers
# ---------------------------------------------------------------------------

class _BatchDevice:
    """Vectorized stamp recipe for one device position across a batch.

    ``column`` holds the B per-instance device objects of this
    position.  Matrix-slot indices are shared (validated by the batch);
    values are (B,) vectors.  Entry *order* inside every hook replays
    the corresponding scalar ``stamp_*`` method exactly, so per-entry
    accumulation rounds identically.
    """

    reactive = False
    #: True when the device adds to the transient right-hand side.
    transient_rhs = False

    def __init__(self, column):
        self.column = column
        proto = column[0]
        self.nodes = proto.nodes
        self.aux = proto.aux

    def _gather(self, attr):
        """(B,) array of one float attribute across the column."""
        return np.array([getattr(d, attr) for d in self.column],
                        dtype=float)

    # -- cached G-side entries (values fixed at compile time) ----------
    def static_entries(self):
        """``[(i, j, values)]`` mirroring ``stamp_static``."""
        return ()

    def reactive_entries(self):
        """``[(i, j, coef)]`` with ``G[i, j] += omega * coef`` per freq."""
        return ()

    def tran_G_entries(self, dt, trap):
        """``[(i, j, values)]`` mirroring ``stamp_tran_G``."""
        return ()

    # -- b-side rows (values read fresh per call) ----------------------
    def dc_b_rows(self, idx):
        """``[(row, values)]`` mirroring ``stamp_dc``."""
        return ()

    def ac_b_rows(self, idx):
        """``[(row, values)]`` mirroring the non-reactive ``stamp_ac``."""
        return ()

    def tran_b_rows(self, state, steps, idx):
        """``[(row, values)]`` mirroring ``stamp_tran_b``.

        ``idx`` are batch positions and ``steps`` each row's own time
        step (an index into the solve's time grid).
        """
        return ()

    # -- transient state -----------------------------------------------
    # State arrays span the whole batch and are indexed by batch
    # position; every hook touches only the rows ``idx`` it is given.
    def init_state(self, x, idx, t_grid):
        """Per-solve state from the ``(B, n)`` operating points ``x``.

        Reactive devices keep their integration history (vectorized
        ``init_state``); sources keep their source bank.
        """
        return None

    def prepare_step(self, state, dt, trap, idx):
        """Vectorized ``prepare_step`` (companion history values)."""

    def update_state(self, state, x, dt, trap, idx):
        """Vectorized ``update_state`` with the rows' converged ``x``."""


class _BatchResistor(_BatchDevice):
    def __init__(self, column):
        super().__init__(column)
        self.g = 1.0 / self._gather("resistance")

    def static_entries(self):
        i, j = self.nodes
        return _pattern4(i, j, self.g)


class _BatchCapacitor(_BatchDevice):
    reactive = True
    transient_rhs = True

    def __init__(self, column):
        super().__init__(column)
        self.c = self._gather("capacitance")

    def _geq(self, dt, trap):
        factor = 2.0 if trap else 1.0
        return factor * self.c / dt

    def reactive_entries(self):
        i, j = self.nodes
        return _pattern4(i, j, 1j * self.c)

    def tran_G_entries(self, dt, trap):
        i, j = self.nodes
        return _pattern4(i, j, self._geq(dt, trap))

    def _voltage(self, x):
        i, j = self.nodes
        return _vcol(x, i) - _vcol(x, j)

    def init_state(self, x, idx, t_grid):
        m = x.shape[0]
        return {"v": self._voltage(x), "i": np.zeros(m),
                "ieq": np.zeros(m)}

    def prepare_step(self, state, dt, trap, idx):
        g = self._geq(dt, trap)[idx]
        if trap:
            state["ieq"][idx] = g * state["v"][idx] + state["i"][idx]
        else:
            state["ieq"][idx] = g * state["v"][idx]

    def tran_b_rows(self, state, steps, idx):
        i, j = self.nodes
        ieq = state["ieq"][idx]
        rows = []
        if i >= 0:
            rows.append((i, ieq))
        if j >= 0:
            rows.append((j, -ieq))
        return rows

    def update_state(self, state, x, dt, trap, idx):
        v_new = self._voltage(x)
        g = self._geq(dt, trap)[idx]
        state["i"][idx] = g * v_new - state["ieq"][idx]
        state["v"][idx] = v_new


class _BatchInductor(_BatchDevice):
    reactive = True
    transient_rhs = True

    def __init__(self, column):
        super().__init__(column)
        self.l = self._gather("inductance")

    def _req(self, dt, trap):
        factor = 2.0 if trap else 1.0
        return factor * self.l / dt

    def static_entries(self):
        i, j = self.nodes
        return _aux_incidence(i, j, self.aux)

    def reactive_entries(self):
        return [(self.aux, self.aux, -1j * self.l)]

    def tran_G_entries(self, dt, trap):
        return [(self.aux, self.aux, -self._req(dt, trap))]

    def _voltage(self, x):
        i, j = self.nodes
        return _vcol(x, i) - _vcol(x, j)

    def init_state(self, x, idx, t_grid):
        m = x.shape[0]
        return {"i": x[:, self.aux].copy(), "v": self._voltage(x),
                "veq": np.zeros(m)}

    def prepare_step(self, state, dt, trap, idx):
        req = self._req(dt, trap)[idx]
        if trap:
            state["veq"][idx] = req * state["i"][idx] + state["v"][idx]
        else:
            state["veq"][idx] = req * state["i"][idx]

    def tran_b_rows(self, state, steps, idx):
        return [(self.aux, -state["veq"][idx])]

    def update_state(self, state, x, dt, trap, idx):
        state["i"][idx] = x[:, self.aux]
        state["v"][idx] = self._voltage(x)


def _source_bank(column, idx, t_grid):
    """``(n_steps + 1, B)`` source values of the rows ``idx``.

    Column ``k`` is ``column[k].wave.at_grid(t_grid)``, bitwise the
    scalar per-step ``wave.at(t)``; columns outside ``idx`` stay zero.
    Instances that share one waveform object share its evaluation.
    """
    bank = np.zeros((t_grid.size, len(column)))
    grids: dict = {}
    for k in idx:
        wave = column[k].wave
        values = grids.get(id(wave))
        if values is None:
            values = grids[id(wave)] = wave.at_grid(t_grid)
        bank[:, k] = values
    return bank


class _BatchVoltageSource(_BatchDevice):
    transient_rhs = True

    def static_entries(self):
        i, j = self.nodes
        return _aux_incidence(i, j, self.aux)

    def dc_b_rows(self, idx):
        vals = np.array([self.column[k].wave.dc for k in idx])
        return [(self.aux, vals)]

    def ac_b_rows(self, idx):
        vals = np.array([self.column[k].ac for k in idx])
        return [(self.aux, vals)]

    def init_state(self, x, idx, t_grid):
        return _source_bank(self.column, idx, t_grid)

    def tran_b_rows(self, state, steps, idx):
        return [(self.aux, state[steps, idx])]


class _BatchCurrentSource(_BatchDevice):
    transient_rhs = True

    def _value_rows(self, vals):
        i, j = self.nodes
        rows = []
        if i >= 0:
            rows.append((i, -vals))
        if j >= 0:
            rows.append((j, vals))
        return rows

    def dc_b_rows(self, idx):
        return self._value_rows(
            np.array([self.column[k].wave.dc for k in idx]))

    def ac_b_rows(self, idx):
        # The scalar stamp skips ac == 0 sources; adding the signed
        # zeros unconditionally is numerically identical.
        return self._value_rows(
            np.array([self.column[k].ac for k in idx]))

    def init_state(self, x, idx, t_grid):
        return _source_bank(self.column, idx, t_grid)

    def tran_b_rows(self, state, steps, idx):
        return self._value_rows(state[steps, idx])


class _BatchVcvs(_BatchDevice):
    def __init__(self, column):
        super().__init__(column)
        self.gain = self._gather("gain")

    def static_entries(self):
        i, j, ci, cj = self.nodes
        k = self.aux
        entries = _aux_incidence(i, j, k)
        _entry(entries, k, ci, -self.gain)
        _entry(entries, k, cj, self.gain)
        return entries


class _BatchVccs(_BatchDevice):
    def __init__(self, column):
        super().__init__(column)
        self.gm = self._gather("gm")

    def static_entries(self):
        i, j, ci, cj = self.nodes
        g = self.gm
        entries = []
        _entry(entries, i, ci, g)
        _entry(entries, i, cj, -g)
        _entry(entries, j, ci, -g)
        _entry(entries, j, cj, g)
        return entries


class _BatchDiode(_BatchDevice):
    """Parameters only: the stamps live in :class:`_NonlinearPlan`."""

    def __init__(self, column):
        super().__init__(column)
        self.isat = self._gather("isat")
        self.nvt = self._gather("nvt")
        self.vcrit = self._gather("vcrit")


class _BatchMosfet(_BatchDevice):
    """Parameters only: the stamps live in :class:`_NonlinearPlan`.

    ``sign`` is per instance: topology validation does not pin
    ``kind``, so one position may mix NMOS and PMOS instances.
    """

    def __init__(self, column):
        super().__init__(column)
        self.sign = np.array(
            [1.0 if d.kind == "n" else -1.0 for d in column])
        self.beta = self._gather("beta")
        self.vth = self._gather("vth")
        self.lam = self._gather("lam")


#: Exact-type handler registry.  Subclasses are rejected on purpose: a
#: subclass that overrides stamp behaviour would silently break the
#: scalar/batched parity contract.
_HANDLERS = {
    dev.Resistor: _BatchResistor,
    dev.Capacitor: _BatchCapacitor,
    dev.Inductor: _BatchInductor,
    dev.VoltageSource: _BatchVoltageSource,
    dev.CurrentSource: _BatchCurrentSource,
    dev.Vcvs: _BatchVcvs,
    dev.Vccs: _BatchVccs,
    dev.Diode: _BatchDiode,
    dev.Mosfet: _BatchMosfet,
}


# ---------------------------------------------------------------------------
# Compiled stamp plans
# ---------------------------------------------------------------------------

class _ScatterPlan:
    """Add value columns into fixed slots, replaying a scalar order.

    ``targets`` lists ``(slot, column)`` pairs in the order the scalar
    stamps accumulate them.  The r-th addition into a slot goes into
    layer r, so no layer writes a slot twice and each layer is one
    vectorized ``out[:, slots] += values[:, columns]``.  Running the
    layers in order hands every slot its additions in exactly the
    scalar order, so every slot rounds as the scalar stamps do.
    """

    def __init__(self, targets):
        layers: list = []
        depth: dict = {}
        for slot, column in targets:
            r = depth.get(slot, 0)
            depth[slot] = r + 1
            if r == len(layers):
                layers.append(([], []))
            layers[r][0].append(slot)
            layers[r][1].append(column)
        self.layers = [(np.array(slots, dtype=np.intp),
                        np.array(columns, dtype=np.intp))
                       for slots, columns in layers]

    def apply(self, out, values):
        """Accumulate ``values`` (m, width) into ``out`` (m, n_slots)."""
        for slots, columns in self.layers:
            out[:, slots] += values[:, columns]


#: MOSFET G entries in ``Mosfet.stamp_nonlinear`` order, as terminal
#: pairs (0 = drain, 1 = gate, 2 = source); entry ``e`` carries value
#: ``e`` of ``gm, gds, -(gm + gds), -gm, -gds, gm + gds``.
_MOSFET_G = ((0, 1), (0, 0), (0, 2), (2, 1), (2, 0), (2, 2))

#: Diode G entries in ``Diode.stamp_nonlinear`` order: terminal pair
#: and value (0 = ``gd``, 1 = ``-gd``).
_DIODE_G = ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))


class _NonlinearPlan:
    """Every nonlinear device of a batch, evaluated in one pass.

    The parameters of all MOSFET positions are gathered into ``(B, k)``
    banks (the diodes into their own ``(B, q)`` bank), and the terminal
    nodes into index arrays in which ground points at an appended zero
    column of ``x``.  :meth:`values` evaluates every device of every
    instance at once with the scalar expressions in the scalar order
    (elementwise IEEE operations and ``np.where`` round the same at any
    array shape); the G and b scatter plans then add the values in the
    scalar device-then-entry order.

    :meth:`values` returns one ``(m, width)`` matrix.  Its columns are:
    MOSFET value ``e`` of MOSFET ``p`` at ``e * k + p``; diode value
    ``v`` of diode ``p`` at ``6k + v * q + p``; then, with
    ``g_width = 6k + 2q``, ``-ieq`` and ``ieq`` of device ``c`` (MOSFETs
    first) at ``g_width + c`` and ``g_width + k + q + c``.
    """

    def __init__(self, handlers, n):
        mos = [h for h in handlers if isinstance(h, _BatchMosfet)]
        dio = [h for h in handlers if isinstance(h, _BatchDiode)]
        k, q = len(mos), len(dio)
        self.empty = not (k or q)
        # (4, B, k): sign, beta, vth, lam; (3, B, q): isat, nvt, vcrit.
        self.mos_params = (np.array([[h.sign, h.beta, h.vth, h.lam]
                                     for h in mos]).transpose(1, 2, 0)
                           if k else None)
        self.dio_params = (np.array([[h.isat, h.nvt, h.vcrit]
                                     for h in dio]).transpose(1, 2, 0)
                           if q else None)
        # (3, k) / (2, q) terminal indices; ground is the zero column n.
        self.mos_nodes = np.array(
            [[t if t >= 0 else n for t in h.nodes] for h in mos],
            dtype=np.intp).reshape(k, 3).T
        self.dio_nodes = np.array(
            [[t if t >= 0 else n for t in h.nodes] for h in dio],
            dtype=np.intp).reshape(q, 2).T
        g_width = 6 * k + 2 * q
        n_dev = k + q
        self.width = g_width + 2 * n_dev
        # Per handler, in device order: its G targets (none if linear).
        self.g_targets: list = []
        b_targets = []
        n_mos = n_dio = 0
        for handler in handlers:
            nodes = handler.nodes
            if isinstance(handler, _BatchMosfet):
                c, n_mos = n_mos, n_mos + 1
                entries = [(nodes[r], nodes[t], e * k + c)
                           for e, (r, t) in enumerate(_MOSFET_G)]
                rows = (nodes[0], nodes[2])  # drain -ieq, source +ieq
            elif isinstance(handler, _BatchDiode):
                c, n_dio = k + n_dio, n_dio + 1
                entries = [(nodes[r], nodes[t], 6 * k + v * q + c - k)
                           for (r, t, v) in _DIODE_G]
                rows = nodes
            else:
                self.g_targets.append([])
                continue
            self.g_targets.append([(r * n + t, col)
                                   for (r, t, col) in entries
                                   if r >= 0 and t >= 0])
            for row, col in zip(rows, (g_width + c, g_width + n_dev + c)):
                if row >= 0:
                    b_targets.append((row, col))
        self.g_plan = _ScatterPlan(
            [t for targets in self.g_targets for t in targets])
        self.b_plan = _ScatterPlan(b_targets)

    def values(self, x, idx):
        """The ``(m, width)`` value matrix at the stack ``x``.

        ``x`` is ``(m, n)``; ``idx`` gives the batch position of each
        row (for the parameter banks).
        """
        m = x.shape[0]
        xe = np.concatenate([x, np.zeros((m, 1))], axis=1)
        g_cols, neg, pos = [], [], []
        if self.mos_params is not None:
            sign, beta, vth, lam = self.mos_params[:, idx]
            v = xe[:, self.mos_nodes]
            vd, vg, vs = v[:, 0], v[:, 1], v[:, 2]
            # Mosfet.evaluate, branch for branch: the region and
            # polarity branches become masks, and shared left-to-right
            # prefixes of its products are computed once.
            dgs = vg - vs
            dds = vd - vs
            vgs = sign * dgs
            vds = sign * dds
            swapped = vds < 0.0
            vgs = np.where(swapped, vgs - vds, vgs)
            vds = np.where(swapped, -vds, vds)
            vov = vgs - vth
            clm = 1.0 + lam * vds
            half = beta * (vov * vds - 0.5 * vds * vds)
            idn_tri = half * clm
            gm_tri = beta * vds * clm
            gds_tri = beta * (vov - vds) * clm + half * lam
            sat = 0.5 * beta * vov * vov
            idn_sat = sat * clm
            gm_sat = beta * vov * clm
            gds_sat = sat * lam
            triode = vds < vov
            idn = np.where(triode, idn_tri, idn_sat)
            gm = np.where(triode, gm_tri, gm_sat)
            gds = np.where(triode, gds_tri, gds_sat)
            cutoff = vov <= 0.0
            idn = np.where(cutoff, 0.0, idn)
            gm = np.where(cutoff, 0.0, gm)
            gds = np.where(cutoff, dev.GMIN, gds)
            idn = np.where(swapped, -idn, idn)
            gds = np.where(swapped, gds + gm, gds)
            gm = np.where(swapped, -gm, gm)
            idd = sign * idn
            gds = gds + dev.GMIN
            # Mosfet.stamp_nonlinear: G values and companion current.
            total = gm + gds
            g_cols += [gm, gds, -total, -gm, -gds, total]
            ieq = idd - gm * dgs - gds * dds
            neg.append(-ieq)
            pos.append(ieq)
        if self.dio_params is not None:
            isat, nvt, vcrit = self.dio_params[:, idx]
            v = xe[:, self.dio_nodes]
            vd = np.minimum(v[:, 0] - v[:, 1], vcrit + 5.0 * nvt)
            # np.exp may differ from math.exp in the last ulp: diode
            # batches are ~1e-15-relative to scalar, not bit-identical.
            e = np.exp(np.minimum(vd / nvt, 80.0))
            idd = isat * (e - 1.0)
            gd = isat * e / nvt + dev.GMIN
            g_cols += [gd, -gd]
            ieq = idd - gd * vd
            neg.append(-ieq)
            pos.append(ieq)
        return np.concatenate(g_cols + neg + pos, axis=1)

    def stamp(self, G, b, x, idx):
        """Add the Newton companion stamps at candidate solution ``x``.

        ``G`` must be C-contiguous (a fresh stack), so that its flat
        ``(m, n * n)`` reshape is a view the plan writes through.
        """
        if self.empty:
            return
        values = self.values(x, idx)
        self.g_plan.apply(G.reshape(G.shape[0], -1), values)
        self.b_plan.apply(b, values)


# ---------------------------------------------------------------------------
# Batched analysis results
# ---------------------------------------------------------------------------

class _BatchResult:
    """Shared per-instance bookkeeping of a batched analysis.

    ``errors[k]`` carries the per-instance exception (``None`` on
    success or when the instance was outside the requested active set);
    ``ok`` is True exactly where a solution was produced.
    """

    def __init__(self, batch, errors, solved):
        self._batch = batch
        self.errors = errors
        self.ok = solved

    def _node_index(self, node):
        return self._batch.node_index(node)

    def _aux_index(self, device_name, kind):
        aux = self._batch.aux_index(device_name)
        if aux is None:
            raise kind(
                "device {!r} has no branch-current unknown".format(
                    device_name))
        return aux


class BatchDCResult(_BatchResult):
    """Stacked DC operating points: ``x`` is ``(B, n_unknowns)``.

    Rows of failed (or inactive) instances are NaN; per-instance
    failures are in :attr:`errors`.
    """

    def __init__(self, batch, x, iterations, errors, solved):
        super().__init__(batch, errors, solved)
        self.x = x
        self.iterations = iterations

    def v(self, node):
        """(B,) node voltages (zeros for ground)."""
        idx = self._node_index(node)
        if idx < 0:
            return np.zeros(self.x.shape[0])
        return self.x[:, idx]

    def branch_current(self, device_name):
        """(B,) branch currents of an aux-carrying device."""
        return self.x[:, self._aux_index(device_name, ConvergenceError)]

    def __repr__(self):
        return "BatchDCResult(B={}, n={}, solved={})".format(
            self.x.shape[0], self.x.shape[1], int(np.sum(self.ok)))


class BatchACResult(_BatchResult):
    """Stacked AC sweeps: complex ``(B, n_freqs, n_unknowns)``."""

    def __init__(self, batch, freqs, X, errors, solved):
        super().__init__(batch, errors, solved)
        self.freqs = freqs
        self._X = X

    def v(self, node):
        """(B, n_freqs) complex voltage phasors for ``node``."""
        idx = self._node_index(node)
        if idx < 0:
            return np.zeros(self._X.shape[:2], dtype=complex)
        return self._X[:, :, idx]

    def branch_current(self, device_name):
        """(B, n_freqs) complex branch-current phasors."""
        return self._X[:, :, self._aux_index(device_name, AnalysisError)]

    def __repr__(self):
        return "BatchACResult(B={}, {} frequencies)".format(
            self._X.shape[0], len(self.freqs))


class BatchTransientResult(_BatchResult):
    """Stacked transient waveforms: ``(B, n_points, n_unknowns)``."""

    def __init__(self, batch, t, X, errors, solved):
        super().__init__(batch, errors, solved)
        self.t = t
        self._X = X

    def v(self, node):
        """(B, n_points) waveforms of the voltage at ``node``."""
        idx = self._node_index(node)
        if idx < 0:
            return np.zeros(self._X.shape[:2])
        return self._X[:, :, idx]

    def branch_current(self, device_name):
        """(B, n_points) branch-current waveforms."""
        return self._X[:, :, self._aux_index(device_name,
                                             ConvergenceError)]

    def __repr__(self):
        return "BatchTransientResult(B={}, {} points)".format(
            self._X.shape[0], len(self.t))


# ---------------------------------------------------------------------------
# The batch itself
# ---------------------------------------------------------------------------

class CircuitBatch:
    """A population of identically-structured circuits, solved stacked.

    Parameters
    ----------
    circuits:
        Sequence of compiled-compatible
        :class:`~repro.circuit.netlist.Circuit` objects: same device
        count, and per position the same device *type*, name, node
        bindings and auxiliary index.  Device values may differ freely.

    Raises
    ------
    CircuitError
        On an empty batch, mismatched topology, or a device type the
        batched kernel has no vectorized stamp recipe for.
    """

    def __init__(self, circuits):
        self._circuits = list(circuits)
        if not self._circuits:
            raise CircuitError("CircuitBatch needs at least one circuit")
        for circuit in self._circuits:
            circuit.compile()
        proto = self._circuits[0]
        self._proto = proto
        self.n_unknowns = proto.n_unknowns
        self.n_nodes = proto.n_nodes
        self.size = len(self._circuits)
        self._validate_topology()
        self._handlers: list = []
        for position in range(len(proto.devices)):
            column = [c.devices[position] for c in self._circuits]
            handler_type = _HANDLERS.get(type(column[0]))
            if handler_type is None:
                raise CircuitError(
                    "batched simulation has no stamp recipe for "
                    "device type {!r} ({!r})".format(
                        type(column[0]).__name__, column[0].name))
            self._handlers.append(handler_type(column))
        self._reactive = [h for h in self._handlers if h.reactive]
        self._tran_rhs = [h for h in self._handlers if h.transient_rhs]
        self._nonlinear = _NonlinearPlan(self._handlers, self.n_unknowns)
        # Static G entries as one (B, S) value bank.  The static plan
        # replays stamp_static; the AC plan interleaves each device's
        # static and linearized entries as ac.solve_ac stamps them
        # (linearized values are columns 0..width-1, the bank after).
        n = self.n_unknowns
        width = self._nonlinear.width
        bank: list = []
        static_targets: list = []
        ac_targets: list = []
        for handler, linearized in zip(self._handlers,
                                       self._nonlinear.g_targets):
            for (i, j, vals) in handler.static_entries():
                static_targets.append((i * n + j, len(bank)))
                ac_targets.append((i * n + j, width + len(bank)))
                bank.append(np.broadcast_to(vals, (self.size,)))
            ac_targets.extend(linearized)
        self._static_bank = (np.stack(bank, axis=1) if bank
                             else np.zeros((self.size, 0)))
        self._static_plan = _ScatterPlan(static_targets)
        self._ac_plan = _ScatterPlan(ac_targets)
        # Reactive entry list (omega-linear coefficients), flattened in
        # the same order the scalar per-frequency loop stamps.
        self._reactive_entries: list = []
        for handler in self._reactive:
            self._reactive_entries.extend(handler.reactive_entries())

    def _validate_topology(self):
        proto = self._proto
        for circuit in self._circuits[1:]:
            if (circuit.n_unknowns != proto.n_unknowns
                    or len(circuit.devices) != len(proto.devices)):
                raise CircuitError(
                    "circuit {!r} does not share the batch topology of "
                    "{!r}".format(circuit.title, proto.title))
            for mine, theirs in zip(proto.devices, circuit.devices):
                if (type(mine) is not type(theirs)
                        or mine.name != theirs.name
                        or mine.nodes != theirs.nodes
                        or mine.aux != theirs.aux):
                    raise CircuitError(
                        "device {!r} of circuit {!r} does not match "
                        "the batch topology (got {!r})".format(
                            mine.name, circuit.title, theirs.name))

    # -- index helpers -----------------------------------------------------
    def node_index(self, node):
        """Matrix index of ``node`` (-1 for ground)."""
        if not self._proto.has_node(node):
            raise CircuitError(
                "no node named {!r} in batch topology {!r}".format(
                    node, self._proto.title))
        return self._proto.node_id(node)

    def aux_index(self, device_name):
        """Auxiliary unknown index of a device (None when it has none)."""
        return self._proto.device(device_name).aux

    def _resolve_active(self, active):
        if active is None:
            return np.arange(self.size)
        active = np.asarray(active)
        if active.dtype == bool:
            return np.flatnonzero(active)
        return active.astype(int)

    # -- stacked assembly --------------------------------------------------
    def _assemble_static(self, idx):
        """Stacked DC assembly, replaying ``dc._assemble_static``."""
        G = self._static_G(idx)
        b = np.zeros((idx.size, self.n_unknowns))
        for handler in self._handlers:
            for (i, vals) in handler.dc_b_rows(idx):
                b[:, i] += vals
        return G, b

    def _static_G(self, idx):
        """Stacked ``stamp_static`` conductances of the rows ``idx``."""
        m = idx.size
        n = self.n_unknowns
        G = np.zeros((m, n, n))
        self._static_plan.apply(G.reshape(m, n * n),
                                self._static_bank[idx])
        return G

    def _assemble_ac(self, x_op, idx):
        """Stacked AC base assembly, replaying ``ac.solve_ac``."""
        m = idx.size
        n = self.n_unknowns
        G = np.zeros((m, n, n), dtype=complex)
        b = np.zeros((m, n), dtype=complex)
        if self._nonlinear.empty:
            values = self._static_bank[idx]
        else:
            values = np.concatenate(
                [self._nonlinear.values(x_op[idx], idx),
                 self._static_bank[idx]], axis=1)
        self._ac_plan.apply(G.reshape(m, n * n), values)
        for handler in self._handlers:
            if not handler.reactive:
                for (i, vals) in handler.ac_b_rows(idx):
                    b[:, i] += vals
        return G, b

    def _assemble_tran_G(self, dt, trap, idx):
        """Stacked companion assembly, replaying ``_assemble_tran_static``."""
        G = self._static_G(idx)
        for handler in self._reactive:
            for (i, j, vals) in handler.tran_G_entries(dt, trap):
                G[:, i, j] += vals[idx]
        return G

    def _assemble_tran_b(self, states, steps, idx):
        """Stacked RHS of the rows ``idx``, each at its own step.

        Replays ``transient._build_b``: every row's source values from
        the banks at its step ``steps``, then its companion history,
        in handler order.
        """
        b = np.zeros((idx.size, self.n_unknowns))
        for handler, state in zip(self._tran_rhs, states):
            for (i, vals) in handler.tran_b_rows(state, steps, idx):
                b[:, i] += vals
        return b

    # -- stacked Newton ----------------------------------------------------
    def _newton_tick(self, G, b, x, idx, max_step, vtol):
        """One Newton iteration of every row: stamp, solve, clip, test.

        ``G`` / ``b`` are fresh ``(m, n, n)`` / ``(m, n)`` stacks that
        the nonlinear stamps write into, ``x`` the rows' iterates and
        ``idx`` their batch positions (for the per-instance parameter
        slices).  Each row performs exactly one scalar Newton
        iteration.  Returns ``(x_next, converged, ok)``: ``ok`` is None
        when every matrix factored, else False where a row's matrix is
        singular (its ``x_next`` row is then its ``x`` row, and it does
        not count as converged).
        """
        self._nonlinear.stamp(G, b, x, idx)
        ok = None
        try:
            x_sol = np.linalg.solve(G, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # Identify the singular rows individually; the per-matrix
            # gesv results are bit-identical to the stacked call for
            # the healthy ones.
            x_sol = x.copy()
            ok = np.ones(x.shape[0], dtype=bool)
            for pos in range(x.shape[0]):
                try:
                    x_sol[pos] = np.linalg.solve(
                        G[pos], b[pos, :, None])[:, 0]
                except np.linalg.LinAlgError:
                    ok[pos] = False
        delta = x_sol - x
        dv = delta[:, :self.n_nodes]
        np.clip(dv, -max_step, max_step, out=dv)
        converged = np.max(np.abs(dv), axis=1, initial=0.0) < vtol
        if ok is not None:
            converged &= ok
        return x + delta, converged, ok

    def _newton_masked(self, G0, b0, x0, idx, max_step, vtol, max_iter):
        """Newton-Raphson over a stack with per-instance convergence.

        ``idx`` maps local stack positions to batch positions.  Returns
        ``(x, iterations, failed, ticks)`` where ``failed`` lists the
        *local* positions that went singular or hit the iteration limit
        -- the caller demotes those to the scalar path -- and ``ticks``
        counts the stacked solves.
        """
        x = x0.copy()
        iterations = np.zeros(x0.shape[0], dtype=int)
        active = np.arange(x0.shape[0])
        singular: list = []
        ticks = 0
        for iteration in range(1, max_iter + 1):
            if active.size == 0:
                break
            ticks += 1
            # Advanced indexing yields fresh arrays for the stamps.
            x_next, converged, ok = self._newton_tick(
                G0[active], b0[active], x[active], idx[active],
                max_step, vtol)
            if ok is not None:
                singular.extend(int(p) for p in active[~ok])
                active, x_next, converged = (
                    active[ok], x_next[ok], converged[ok])
            x[active] = x_next
            iterations[active] = iteration
            active = active[~converged]
        failed = sorted(set(int(a) for a in active) | set(singular))
        return x, iterations, failed, ticks

    # -- analyses ----------------------------------------------------------
    def solve_dc(self, active=None, max_iter=_dc.MAX_ITER, vtol=_dc.VTOL,
                 use_homotopy=True):
        """Stacked DC operating points (masked Newton, scalar demotion).

        Equivalent to :func:`repro.circuit.dc.solve_dc` per instance
        (bit for bit; see the module parity contract).  Instances whose
        plain batched Newton fails re-run individually through the
        scalar solver's homotopy fallbacks; instances that still fail
        land in ``errors`` instead of raising.
        """
        started = time.perf_counter()
        idx = self._resolve_active(active)
        n = self.n_unknowns
        G0, b0 = self._assemble_static(idx)
        x0 = np.zeros((idx.size, n))
        x, iters, failed, ticks = self._newton_masked(
            G0, b0, x0, idx, _dc.MAX_STEP, vtol, max_iter)

        X = np.full((self.size, n), np.nan)
        iterations = np.zeros(self.size, dtype=int)
        errors: list = [None] * self.size
        solved = np.zeros(self.size, dtype=bool)
        X[idx] = x
        iterations[idx] = iters
        solved[idx] = True
        for local in failed:
            k = int(idx[local])
            solved[k] = False
            X[k] = np.nan
            try:
                res = _dc.solve_dc(self._circuits[k], max_iter=max_iter,
                                   vtol=vtol, use_homotopy=use_homotopy)
            except ConvergenceError as exc:
                errors[k] = exc
                continue
            X[k] = res.x
            iterations[k] = res.iterations
            solved[k] = True
        _record(started, "dc", len(failed), ticks, iters)
        return BatchDCResult(self, X, iterations, errors, solved)

    def solve_ac(self, freqs, x_op, active=None):
        """Stacked AC sweeps linearized at the operating points ``x_op``.

        ``x_op`` is the ``(B, n)`` stack from :meth:`solve_dc` (rows of
        inactive instances are ignored; an active instance whose row
        is non-finite -- its DC solve failed -- gets an
        :class:`AnalysisError` entry instead of silently solving a NaN
        system).  All instance x frequency
        systems are solved through stacked LAPACK calls in
        memory-bounded chunks; a singular instance is dropped from the
        stack with the scalar error recorded, never failing its peers.
        """
        freqs = np.asarray(list(freqs), dtype=float)
        if freqs.size == 0:
            raise AnalysisError("AC analysis needs at least one frequency")
        if np.any(freqs <= 0):
            raise AnalysisError("AC analysis frequencies must be positive")
        started = time.perf_counter()
        idx = self._resolve_active(active)
        n = self.n_unknowns
        n_freqs = freqs.size

        X = np.full((self.size, n_freqs, n), np.nan, dtype=complex)
        errors: list = [None] * self.size
        solved = np.zeros(self.size, dtype=bool)

        # An instance without a finite operating point (its DC solve
        # failed) cannot be linearized: record the failure instead of
        # silently stamping NaNs (LAPACK does not flag NaN systems).
        finite = np.all(np.isfinite(x_op[idx]), axis=1)
        for pos in np.flatnonzero(~finite):
            k = int(idx[pos])
            errors[k] = AnalysisError(
                "no finite operating point for {!r}; its DC solve "
                "failed".format(self._circuits[k].title))
        idx = idx[finite]

        work = idx.copy()
        G_base, b = self._assemble_ac(x_op, work)
        coefs = [(i, j, vals[work])
                 for (i, j, vals) in self._reactive_entries]

        block = max(1, AC_CHUNK_ENTRIES // max(1, work.size * n * n))
        n_chunks = 0
        n_singular = 0
        start = 0
        while start < n_freqs and work.size:
            n_chunks += 1
            f_blk = freqs[start:start + block]
            omega = 2.0 * np.pi * f_blk
            m, nb = work.size, f_blk.size
            G = np.repeat(G_base[:, None], nb, axis=1)
            for (i, j, coef) in coefs:
                G[:, :, i, j] += omega[None, :] * coef[:, None]
            rhs = np.repeat(b[:, None], nb, axis=1)[..., None]
            try:
                sol = np.linalg.solve(
                    G.reshape(m * nb, n, n),
                    rhs.reshape(m * nb, n, 1))
                X[work, start:start + nb] = sol[..., 0].reshape(m, nb, n)
            except np.linalg.LinAlgError:
                bad = []
                for p in range(m):
                    for q in range(nb):
                        try:
                            X[work[p], start + q] = np.linalg.solve(
                                G[p, q], rhs[p, q])[:, 0]
                        except np.linalg.LinAlgError:
                            bad.append(p)
                            errors[int(work[p])] = AnalysisError(
                                "singular AC system at {:g} Hz in "
                                "{!r}".format(
                                    f_blk[q],
                                    self._circuits[int(work[p])].title))
                            X[int(work[p])] = np.nan
                            break
                if bad:
                    n_singular += len(bad)
                    keep = np.ones(m, dtype=bool)
                    keep[bad] = False
                    work = work[keep]
                    G_base = G_base[keep]
                    b = b[keep]
                    coefs = [(i, j, coef[keep])
                             for (i, j, coef) in coefs]
            start += block
        solved[work] = True
        tel = _record(started, "ac", n_singular)
        if tel.enabled:
            tel.counter("repro_circuit_ac_chunks_total", n_chunks)
            tel.gauge("repro_circuit_ac_chunk_freqs", block)
        return BatchACResult(self, freqs, X, errors, solved)

    def solve_transient(self, t_stop, dt, active=None, method="trap"):
        """Stacked fixed-step transient integration, one clock per row.

        Starts from the stacked DC operating point (like the scalar
        :func:`~repro.circuit.transient.solve_transient` with
        ``x0=None``) and reads every source from a bank built once per
        solve.  Each instance keeps its own step index and Newton
        count: every tick runs one Newton iteration of every live
        instance, each at its own time step (backward Euler at step 1,
        ``method`` after), so no instance waits for a slower one.  A
        converged instance records its step, advances its history and
        starts its next step on the following tick, warm-started from
        the solution just found.  An instance that goes singular or
        runs out of iterations on a step is demoted: its whole run is
        redone through the scalar path (including the local
        step-halving retries the scalar integrator applies).
        """
        if method not in ("trap", "be"):
            raise ConvergenceError(
                "unknown integration method {!r}".format(method))
        idx = self._resolve_active(active)
        B, n = self.size, self.n_unknowns
        n_steps = int(round(t_stop / dt))
        t_grid = np.linspace(0.0, n_steps * dt, n_steps + 1)

        X = np.full((B, n_steps + 1, n), np.nan)
        solved = np.zeros(B, dtype=bool)

        dc = self.solve_dc(active=idx)
        started = time.perf_counter()
        errors: list = list(dc.errors)
        live = np.array([k for k in idx if dc.errors[k] is None],
                        dtype=np.intp)
        x = dc.x.copy()
        X[live, 0] = x[live]
        states = [h.init_state(x, live, t_grid) for h in self._tran_rhs]
        reactive = [(h, state) for h, state in zip(self._tran_rhs, states)
                    if h.reactive]
        trap = method == "trap"
        # Row k of the matrix table is instance k's backward-Euler
        # matrix (step 1); row B + k its trapezoidal one (later steps).
        every = np.arange(B)
        G_table = self._assemble_tran_G(dt, False, every)
        if trap:
            G_table = np.concatenate(
                [G_table, self._assemble_tran_G(dt, True, every)])

        step = np.ones(B, dtype=np.intp)
        iters = np.zeros(B, dtype=np.intp)
        b = np.zeros((B, n))
        alive = np.zeros(B, dtype=bool)
        alive[live] = True

        def begin(rows, steps, trap_step):
            """Start each row's step ``steps``; rows past the grid finish."""
            over = steps > n_steps
            if over.any():
                solved[rows[over]] = True
                alive[rows[over]] = False
                rows, steps = rows[~over], steps[~over]
            if rows.size:
                for handler, state in reactive:
                    handler.prepare_step(state, dt, trap_step, rows)
                b[rows] = self._assemble_tran_b(states, steps, rows)

        begin(live, step[live], False)
        demoted: list = []
        ticks = newton_iters = 0
        while True:
            live = np.flatnonzero(alive)
            if live.size == 0:
                break
            ticks += 1
            rows = live + B * (step[live] > 1) if trap else live
            x_next, converged, ok = self._newton_tick(
                G_table[rows], b[live], x[live], live, TRAN_MAX_STEP,
                _tran.VTOL)
            if ok is not None:
                demoted.extend(int(k) for k in live[~ok])
                alive[live[~ok]] = False
                live, x_next, converged = (
                    live[ok], x_next[ok], converged[ok])
            x[live] = x_next
            newton_iters += live.size
            count = iters[live] + 1
            iters[live] = count
            if count.max(initial=0) >= _tran.MAX_ITER:
                stuck = live[~converged & (count >= _tran.MAX_ITER)]
                demoted.extend(int(k) for k in stuck)
                alive[stuck] = False
            if not converged.any():
                continue
            done, x_done = live[converged], x_next[converged]
            steps = step[done]
            X[done, steps] = x_done
            # Rows leaving step 1 advance their history as backward
            # Euler did; every later step uses ``method``.
            first = steps == 1
            groups = ((done, x_done, trap),)
            if first.any():
                groups = ((done[first], x_done[first], False),
                          (done[~first], x_done[~first], trap))
            for rows, x_rows, trap_step in groups:
                for handler, state in reactive:
                    handler.update_state(state, x_rows, dt, trap_step,
                                         rows)
            steps += 1
            step[done] = steps
            iters[done] = 0
            begin(done, steps, trap)

        for k in sorted(demoted):
            try:
                res = _tran.solve_transient(
                    self._circuits[k], t_stop, dt, method=method)
            except ConvergenceError as exc:
                errors[k] = exc
                X[k] = np.nan
                continue
            X[k] = res._X
            solved[k] = True
        _record(started, "tran", len(demoted), ticks, newton_iters)
        return BatchTransientResult(self, t_grid, X, errors, solved)

    def __repr__(self):
        return "CircuitBatch({!r}, B={}, n={})".format(
            self._proto.title, self.size, self.n_unknowns)
