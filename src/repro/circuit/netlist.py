"""Circuit (netlist) container for the MNA simulator.

A :class:`Circuit` owns a list of devices and the mapping from node
names to matrix indices.  The ground node may be written ``"0"`` or
``"gnd"`` and maps to index ``-1``, which the stamping helpers drop.

Devices can be added either pre-constructed via :meth:`Circuit.add` or
through the convenience factory methods (:meth:`Circuit.resistor`,
:meth:`Circuit.mosfet`, ...), which mirror SPICE element cards.
"""

from repro.circuit import devices as dev
from repro.errors import CircuitError

#: Node names that alias the ground (reference) node.
GROUND_NAMES = frozenset({"0", "gnd", "GND", "ground"})


class Circuit:
    """A mutable netlist plus node/auxiliary-index bookkeeping.

    Parameters
    ----------
    title:
        Free-form label used in reprs and error messages.
    """

    def __init__(self, title=""):
        self.title = str(title)
        self._devices = []
        self._by_name = {}
        self._node_ids = {}
        self._node_names = []
        self._compiled = False

    # -- node management ---------------------------------------------------
    def node_id(self, name):
        """Return (creating if needed) the matrix index for node ``name``."""
        name = str(name)
        if name in GROUND_NAMES:
            return -1
        if name not in self._node_ids:
            self._node_ids[name] = len(self._node_names)
            self._node_names.append(name)
        return self._node_ids[name]

    @property
    def n_nodes(self):
        """Number of non-ground nodes."""
        return len(self._node_names)

    def has_node(self, name):
        """True when ``name`` is ground or a known circuit node."""
        return str(name) in GROUND_NAMES or str(name) in self._node_ids

    # -- device management ---------------------------------------------------
    def add(self, device):
        """Add a pre-constructed :class:`~repro.circuit.devices.Device`."""
        if device.name in self._by_name:
            raise CircuitError(
                "duplicate device name {!r} in circuit {!r}".format(
                    device.name, self.title))
        for node in device.node_names:
            self.node_id(node)
        self._devices.append(device)
        self._by_name[device.name] = device
        self._compiled = False
        return device

    def device(self, name):
        """Look up a device by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CircuitError(
                "no device named {!r} in circuit {!r}".format(
                    name, self.title)) from None

    @property
    def devices(self):
        """Tuple of devices in insertion order."""
        return tuple(self._devices)

    def __len__(self):
        return len(self._devices)

    def __contains__(self, name):
        return name in self._by_name

    def __repr__(self):
        return "Circuit({!r}, nodes={}, devices={})".format(
            self.title, self.n_nodes, len(self._devices))

    # -- compilation ---------------------------------------------------------
    def compile(self):
        """Bind node and auxiliary indices into every device.

        Idempotent; analyses call this automatically.  Returns ``self``
        for chaining.
        """
        if self._compiled:
            return self
        aux = self.n_nodes
        for device in self._devices:
            ids = tuple(self.node_id(n) for n in device.node_names)
            device.bind(ids, aux)
            aux += device.n_aux
        self._n_unknowns = aux
        self._compiled = True
        return self

    @property
    def n_unknowns(self):
        """Total MNA system size (nodes + auxiliary branch currents)."""
        self.compile()
        return self._n_unknowns

    def partition(self):
        """Return ``(linear, nonlinear, reactive)`` device tuples."""
        self.compile()
        linear = tuple(d for d in self._devices if not d.nonlinear)
        nonlinear = tuple(d for d in self._devices if d.nonlinear)
        reactive = tuple(d for d in self._devices if d.reactive)
        return linear, nonlinear, reactive

    # -- SPICE-like factory methods -------------------------------------------
    def resistor(self, name, n1, n2, resistance):
        """Add a resistor and return it."""
        return self.add(dev.Resistor(name, n1, n2, resistance))

    def capacitor(self, name, n1, n2, capacitance):
        """Add a capacitor and return it."""
        return self.add(dev.Capacitor(name, n1, n2, capacitance))

    def inductor(self, name, n1, n2, inductance):
        """Add an inductor and return it."""
        return self.add(dev.Inductor(name, n1, n2, inductance))

    def voltage_source(self, name, npos, nneg, dc=0.0, ac=0.0):
        """Add an independent voltage source and return it."""
        return self.add(dev.VoltageSource(name, npos, nneg, dc=dc, ac=ac))

    def current_source(self, name, npos, nneg, dc=0.0, ac=0.0):
        """Add an independent current source and return it."""
        return self.add(dev.CurrentSource(name, npos, nneg, dc=dc, ac=ac))

    def vcvs(self, name, npos, nneg, ncpos, ncneg, gain):
        """Add a voltage-controlled voltage source and return it."""
        return self.add(dev.Vcvs(name, npos, nneg, ncpos, ncneg, gain))

    def vccs(self, name, npos, nneg, ncpos, ncneg, gm):
        """Add a voltage-controlled current source and return it."""
        return self.add(dev.Vccs(name, npos, nneg, ncpos, ncneg, gm))

    def diode(self, name, npos, nneg, isat=1e-14, n=1.0):
        """Add a junction diode and return it."""
        return self.add(dev.Diode(name, npos, nneg, isat=isat, n=n))

    def mosfet(self, name, drain, gate, source, **params):
        """Add a level-1 MOSFET and return it (see :class:`Mosfet`)."""
        return self.add(dev.Mosfet(name, drain, gate, source, **params))
