"""Two-stage Miller-compensated CMOS op-amp design.

Topology (classic textbook two-stage amplifier):

* ``M1/M2``  -- NMOS input differential pair (gates = ``inp``/``inn``).
* ``M3/M4``  -- PMOS current-mirror load (``M3`` diode-connected).
* ``M5``     -- NMOS tail current source.
* ``M6``     -- PMOS common-source second stage (gate at the first-stage
  output ``o1``).
* ``M7``     -- NMOS current-source load of the second stage.
* ``M8``     -- diode-connected NMOS bias device fed by ``Rbias``.
* ``Cc/Rz``  -- Miller compensation capacitor with nulling resistor.

The nominal design targets the neighbourhood of the paper's Table 1:
open-loop gain in the ten-thousands, a 3-dB bandwidth of a few hundred
hertz, unity-gain frequency of a few megahertz, slew rate around
1 V/us and quiescent current near 100 uA.  Exact values are recorded by
the calibration run in ``EXPERIMENTS.md``; only the *shape* of the
compaction trends depends on them.
"""

from dataclasses import dataclass, fields, replace

from repro.circuit.netlist import Circuit
from repro.errors import CircuitError

#: Process transconductance of NMOS devices (A/V^2).
KP_N = 100e-6
#: Process transconductance of PMOS devices (A/V^2).
KP_P = 40e-6
#: NMOS threshold voltage (V).
VTH_N = 0.7
#: PMOS threshold voltage magnitude (V).
VTH_P = 0.8
#: Channel-length modulation per micron of drawn length (1/V).
LAMBDA = 0.09


@dataclass
class OpAmpParameters:
    """Geometric and passive parameters of the two-stage op-amp.

    All widths and lengths are in meters; capacitances in farads;
    resistances in ohms.  These are the quantities the paper's
    Monte-Carlo process model randomly perturbs ("randomly altering the
    MOSFET lengths and widths and capacitor values").
    """

    w1: float = 50e-6     # input pair width (M1 = M2 nominally)
    l1: float = 1e-6
    w2: float = 50e-6
    l2: float = 1e-6
    w3: float = 15e-6     # PMOS mirror load
    l3: float = 1e-6
    w4: float = 15e-6
    l4: float = 1e-6
    w5: float = 68e-6     # tail current source (long for high ro)
    l5: float = 2e-6
    w6: float = 120e-6    # PMOS output device
    l6: float = 1e-6
    w7: float = 100e-6    # NMOS output current source
    l7: float = 1e-6
    w8: float = 25e-6     # bias diode
    l8: float = 1e-6
    cc: float = 20e-12    # Miller compensation capacitor
    rz: float = 1.4e3     # nulling resistor
    rbias: float = 280e3  # bias reference resistor
    vdd: float = 5.0      # supply voltage (testbench, not varied)
    cl: float = 25e-12    # load capacitance (testbench, not varied)

    #: Names of the fields subjected to Monte-Carlo process variation.
    VARIED = (
        "w1", "l1", "w2", "l2", "w3", "l3", "w4", "l4", "w5", "l5",
        "w6", "l6", "w7", "l7", "w8", "l8", "cc",
    )

    def validate(self):
        """Raise :class:`CircuitError` on non-physical parameter values."""
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, (int, float)) or value <= 0:
                raise CircuitError(
                    "op-amp parameter {!r} must be a positive number, "
                    "got {!r}".format(field.name, value))
        return self

    def perturbed(self, rng, relative_spread=0.15):
        """Return a copy with every varied field uniformly perturbed.

        Parameters
        ----------
        rng:
            A :class:`numpy.random.Generator`.
        relative_spread:
            Half-width of the uniform relative disturbance; 0.15 means
            each varied parameter lands in ``[0.85, 1.15] * nominal``.
        """
        updates = {
            name: getattr(self, name)
            * (1.0 + rng.uniform(-relative_spread, relative_spread))
            for name in self.VARIED
        }
        return replace(self, **updates)


def build_opamp(circuit, params, inp, inn, out, vdd, vss="0", prefix=""):
    """Instantiate the op-amp devices into ``circuit``.

    Parameters
    ----------
    circuit:
        Target :class:`~repro.circuit.netlist.Circuit`.
    params:
        An :class:`OpAmpParameters` instance.
    inp, inn, out, vdd, vss:
        External node names (non-inverting input, inverting input,
        output, positive supply, negative supply/ground).
    prefix:
        Optional device/node name prefix so several amplifier copies
        can coexist in one netlist.

    Returns
    -------
    Circuit
        The same circuit, for chaining.
    """
    params.validate()
    p = prefix
    tail = p + "tail"
    d1 = p + "d1"
    o1 = p + "o1"
    nbias = p + "nbias"
    zmid = p + "zmid"

    lam = LAMBDA
    # Input differential pair (NMOS).  M1 sits on the diode side of the
    # mirror load, so its gate is the *inverting* input of the two-stage
    # amplifier (first stage non-inverting from M2's gate, second stage
    # inverting: two inversions from inp to out).
    circuit.mosfet(p + "M1", d1, inn, tail, kind="n", w=params.w1,
                   l=params.l1, kp=KP_N, vth=VTH_N, lam=lam)
    circuit.mosfet(p + "M2", o1, inp, tail, kind="n", w=params.w2,
                   l=params.l2, kp=KP_N, vth=VTH_N, lam=lam)
    # PMOS mirror load (M3 diode-connected).
    circuit.mosfet(p + "M3", d1, d1, vdd, kind="p", w=params.w3,
                   l=params.l3, kp=KP_P, vth=VTH_P, lam=lam)
    circuit.mosfet(p + "M4", o1, d1, vdd, kind="p", w=params.w4,
                   l=params.l4, kp=KP_P, vth=VTH_P, lam=lam)
    # Tail and bias network.
    circuit.mosfet(p + "M5", tail, nbias, vss, kind="n", w=params.w5,
                   l=params.l5, kp=KP_N, vth=VTH_N, lam=lam)
    circuit.mosfet(p + "M8", nbias, nbias, vss, kind="n", w=params.w8,
                   l=params.l8, kp=KP_N, vth=VTH_N, lam=lam)
    circuit.resistor(p + "Rbias", vdd, nbias, params.rbias)
    # Output stage.
    circuit.mosfet(p + "M6", out, o1, vdd, kind="p", w=params.w6,
                   l=params.l6, kp=KP_P, vth=VTH_P, lam=lam)
    circuit.mosfet(p + "M7", out, nbias, vss, kind="n", w=params.w7,
                   l=params.l7, kp=KP_N, vth=VTH_N, lam=lam)
    # Miller compensation with nulling resistor.
    circuit.resistor(p + "Rz", o1, zmid, params.rz)
    circuit.capacitor(p + "Cc", zmid, out, params.cc)
    return circuit
