"""Accelerometer geometry: the Monte-Carlo-varied parameter set.

The paper generates accelerometer instances "by adding variations to
the accelerometer component lengths, widths and relative angles".  The
:class:`AccelerometerGeometry` dataclass collects those quantities for
a folded-flexure, comb-sense proof mass:

* four folded-flexure suspension springs (``beam_length``,
  ``beam_width``) in structural polysilicon of ``thickness``;
* a rectangular proof mass (``mass_length``, ``mass_width``) with
  ``n_fingers`` sense fingers of ``finger_length`` at ``finger_gap``;
* ``spring_angle_deg`` -- angular misalignment of the suspension beams
  from the ideal compliant direction (degrees; nominal 0);
* ``anchor_span`` -- distance between opposing anchors, which converts
  thermal die expansion into axial beam stress;
* ``cte_mismatch`` -- effective thermal-expansion mismatch between the
  structural layer and the substrate (1/K).  This parameter mostly
  influences behaviour *at temperature*, which is what makes the
  hot/cold tests non-trivially predictable from room-temperature data.
"""

from dataclasses import dataclass, fields, replace

from repro.errors import CircuitError


@dataclass
class AccelerometerGeometry:
    """Geometric/material description of one accelerometer instance."""

    beam_length: float = 210e-6       # suspension beam length (m)
    beam_width: float = 2.0e-6        # suspension beam width (m)
    thickness: float = 2.0e-6         # structural layer thickness (m)
    mass_length: float = 450e-6       # proof mass side (m)
    mass_width: float = 450e-6        # proof mass side (m)
    n_fingers: float = 42.0           # sense fingers (continuous for MC)
    finger_length: float = 100e-6     # sense finger overlap (m)
    finger_gap: float = 1.5e-6        # sense gap (m)
    spring_angle_deg: float = 0.0     # beam angular misalignment (deg)
    anchor_span: float = 570e-6       # anchor-to-anchor distance (m)
    cte_mismatch: float = 1.4e-6      # CTE mismatch (1/K)

    #: Multiplicatively varied fields ("lengths and widths").  The CTE
    #: mismatch is a material property, not a geometric one, so it is
    #: held at nominal, matching the paper's process model of varying
    #: only component lengths, widths and relative angles.
    VARIED_RELATIVE = (
        "beam_length", "beam_width", "thickness", "mass_length",
        "mass_width", "finger_length", "finger_gap", "anchor_span",
    )
    #: Additively varied fields ("relative angles", degrees).
    VARIED_ABSOLUTE = ("spring_angle_deg",)

    def validate(self):
        """Raise on non-physical values; returns self for chaining."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)):
                raise CircuitError(
                    "geometry field {!r} must be numeric".format(f.name))
            if f.name not in self.VARIED_ABSOLUTE and value <= 0:
                raise CircuitError(
                    "geometry field {!r} must be positive, got {!r}".format(
                        f.name, value))
        if self.beam_width >= self.beam_length:
            raise CircuitError("beam width must be far below beam length")
        return self

    def perturbed(self, rng, relative_spread=0.08, angle_sigma_deg=1.0):
        """One Monte-Carlo process draw.

        Lengths/widths move multiplicatively by a uniform
        ``relative_spread``; the spring angle receives an additive
        Gaussian disturbance of ``angle_sigma_deg`` degrees.
        """
        updates = {
            name: getattr(self, name)
            * (1.0 + rng.uniform(-relative_spread, relative_spread))
            for name in self.VARIED_RELATIVE
        }
        for name in self.VARIED_ABSOLUTE:
            updates[name] = getattr(self, name) + rng.normal(
                0.0, angle_sigma_deg)
        return replace(self, **updates)
