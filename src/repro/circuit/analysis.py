"""Measurement helpers for AC sweeps and transient waveforms.

These utilities turn raw simulation output into the specification
values of the paper's Table 1 and Table 2: gain, 3-dB bandwidth,
unity-gain frequency, rise time, overshoot, settling time, slew rate,
resonance peak and quality factor.
"""

import numpy as np

from repro.errors import AnalysisError


def _log_interp_crossing(freqs, mags, level):
    """Frequency where ``mags`` first falls below ``level``.

    Interpolates logarithmically in frequency and linearly in dB, which
    matches the straight-line segments of a Bode plot.
    """
    mags = np.asarray(mags, dtype=float)
    freqs = np.asarray(freqs, dtype=float)
    below = mags < level
    if not below.any():
        raise AnalysisError(
            "response never crosses level {:g} within the sweep".format(level))
    k = int(np.argmax(below))
    if k == 0:
        return float(freqs[0])
    f1, f2 = freqs[k - 1], freqs[k]
    m1, m2 = mags[k - 1], mags[k]
    # Linear interpolation of dB values against log10(f).
    d1, d2 = 20 * np.log10(max(m1, 1e-300)), 20 * np.log10(max(m2, 1e-300))
    dl = 20 * np.log10(level)
    if d1 == d2:
        return float(f2)
    frac = (d1 - dl) / (d1 - d2)
    return float(10 ** (np.log10(f1) + frac * (np.log10(f2) - np.log10(f1))))


def low_frequency_gain(freqs, response):
    """Magnitude of the response at the lowest swept frequency."""
    response = np.abs(np.asarray(response, dtype=complex))
    return float(response[int(np.argmin(np.asarray(freqs)))])


def bandwidth_3db(freqs, response, ref_gain=None):
    """The -3 dB bandwidth of a low-pass response.

    Parameters
    ----------
    freqs, response:
        Sweep frequencies (Hz) and complex (or magnitude) response.
    ref_gain:
        Reference gain; defaults to the magnitude at the lowest
        frequency in the sweep.
    """
    mags = np.abs(np.asarray(response, dtype=complex))
    if ref_gain is None:
        ref_gain = low_frequency_gain(freqs, mags)
    return _log_interp_crossing(freqs, mags, ref_gain / np.sqrt(2.0))


def unity_gain_frequency(freqs, response):
    """Frequency where the response magnitude crosses 1 (0 dB)."""
    mags = np.abs(np.asarray(response, dtype=complex))
    if mags[0] <= 1.0:
        raise AnalysisError("response starts below unity; no UGF in sweep")
    return _log_interp_crossing(freqs, mags, 1.0)


def peak_frequency(freqs, response):
    """Frequency of the response-magnitude maximum (parabolic refined).

    Uses a three-point parabolic fit in log-frequency around the
    discrete maximum, which recovers resonance peaks accurately from
    relatively coarse sweeps.
    """
    freqs = np.asarray(freqs, dtype=float)
    mags = np.abs(np.asarray(response, dtype=complex))
    k = int(np.argmax(mags))
    if k == 0 or k == len(mags) - 1:
        return float(freqs[k])
    lf = np.log10(freqs[k - 1:k + 2])
    m = mags[k - 1:k + 2]
    denom = (m[0] - 2 * m[1] + m[2])
    if denom == 0:
        return float(freqs[k])
    shift = 0.5 * (m[0] - m[2]) / denom
    shift = float(np.clip(shift, -1.0, 1.0))
    return float(10 ** (lf[1] + shift * (lf[1] - lf[0])))


def quality_factor(freqs, response):
    """Quality factor of a resonant response: ``f_peak / delta_f``.

    ``delta_f`` is the width of the band where the magnitude exceeds
    ``peak / sqrt(2)``; for a second-order system this equals the
    classical ``Q``.  Raises when the response has no resonant peak
    above its low-frequency value (overdamped), in which case ``Q``
    should be derived analytically instead.
    """
    freqs = np.asarray(freqs, dtype=float)
    mags = np.abs(np.asarray(response, dtype=complex))
    peak = float(mags.max())
    k = int(np.argmax(mags))
    level = peak / np.sqrt(2.0)
    if k == 0 or mags[0] >= level:
        # Peak at/below the band edge: cannot bracket the half-power band.
        raise AnalysisError("response has no interior resonant peak")
    # Walk left from the peak to the first point below the level.
    i = k
    while i > 0 and mags[i - 1] >= level:
        i -= 1
    f_lo = np.interp(level, [mags[i - 1], mags[i]], [freqs[i - 1], freqs[i]])
    j = k
    while j < len(mags) - 1 and mags[j + 1] >= level:
        j += 1
    if j == len(mags) - 1:
        raise AnalysisError("half-power band extends past the sweep")
    f_hi = np.interp(level, [mags[j + 1], mags[j]], [freqs[j + 1], freqs[j]])
    if f_hi <= f_lo:
        raise AnalysisError("degenerate half-power band")
    return float(peak_frequency(freqs, mags) / (f_hi - f_lo))


def first_crossing(t, y, level, rising=True):
    """Time of the first crossing of ``level`` with linear interpolation."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if rising:
        hits = (y[:-1] < level) & (y[1:] >= level)
    else:
        hits = (y[:-1] > level) & (y[1:] <= level)
    idx = np.flatnonzero(hits)
    if idx.size == 0:
        raise AnalysisError(
            "waveform never crosses level {:g} ({})".format(
                level, "rising" if rising else "falling"))
    k = int(idx[0])
    frac = (level - y[k]) / (y[k + 1] - y[k])
    return float(t[k] + frac * (t[k + 1] - t[k]))


def rise_time(t, y, y_start, y_end, lo=0.1, hi=0.9):
    """10 %-90 % (by default) rise time of a step response."""
    span = y_end - y_start
    if span == 0:
        raise AnalysisError("zero step span; rise time undefined")
    rising = span > 0
    t_lo = first_crossing(t, y, y_start + lo * span, rising=rising)
    t_hi = first_crossing(t, y, y_start + hi * span, rising=rising)
    if t_hi <= t_lo:
        raise AnalysisError("non-monotonic rise; check the waveform")
    return t_hi - t_lo


def overshoot(y, y_start, y_end):
    """Fractional overshoot of a step response (0.05 means 5 %)."""
    y = np.asarray(y, dtype=float)
    span = y_end - y_start
    if span == 0:
        raise AnalysisError("zero step span; overshoot undefined")
    if span > 0:
        peak = float(y.max())
        return max(0.0, (peak - y_end) / span)
    trough = float(y.min())
    return max(0.0, (y_end - trough) / -span)


def settling_time(t, y, y_end, band=0.01, t_step=0.0):
    """Time after ``t_step`` for ``y`` to stay within ``band*|step|``.

    ``band`` is relative to the final value's distance from the initial
    value at ``t_step``.  Returns 0 if the waveform is already settled.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = t >= t_step
    t_seg = t[mask]
    y_seg = y[mask]
    if t_seg.size < 2:
        raise AnalysisError("waveform too short for settling time")
    span = abs(y_end - y_seg[0])
    if span == 0:
        return 0.0
    tol = band * span
    outside = np.abs(y_seg - y_end) > tol
    if outside[-1]:
        raise AnalysisError("waveform does not settle within the window")
    if not outside.any():
        return 0.0
    last_out = int(np.flatnonzero(outside)[-1])
    return float(t_seg[min(last_out + 1, t_seg.size - 1)] - t_seg[0])


def slew_rate(t, y, fraction=(0.2, 0.8)):
    """Average slope of ``y`` between two amplitude fractions of its swing.

    The classic definition of large-signal slew rate: the output swing
    between (by default) 20 % and 80 % of the total excursion divided by
    the time it takes, which rejects the rounded corners of the ramp.
    Returns a positive value regardless of direction (V/s).
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    y0 = float(y[0])
    y1 = float(y[-1])
    span = y1 - y0
    if span == 0:
        raise AnalysisError("no output excursion; slew rate undefined")
    rising = span > 0
    t_a = first_crossing(t, y, y0 + fraction[0] * span, rising=rising)
    t_b = first_crossing(t, y, y0 + fraction[1] * span, rising=rising)
    if t_b <= t_a:
        raise AnalysisError("could not bracket the slewing region")
    return abs((fraction[1] - fraction[0]) * span) / (t_b - t_a)
