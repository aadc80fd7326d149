"""The wave rule of batched generation, and that no boundary moves a bit.

A batch-capable DUT simulates a batch in waves of at most
``BATCH_SLOTS`` slots (``_chunks``), and the batched AC pass solves each
wave in frequency blocks of at most ``AC_CHUNK_ENTRIES`` matrix
entries.  Both sizes are performance knobs only: every slot keeps its
own step clock and LAPACK solves every system alone, so a row's bits
must not depend on which wave or block it ran in.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.circuit.batch as batch_mod
import repro.runtime.simulation as sim
from repro.mems import AccelerometerBench
from repro.opamp import OpAmpBench
from repro.runtime.simulation import _chunks, generate_instances
from repro.telemetry import Telemetry, set_telemetry

#: The earlier sizing: 128-slot waves, 32 MiB AC chunks.
OLD_BATCH_SLOTS = 128
OLD_AC_CHUNK_ENTRIES = 1 << 21


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 1000), size=st.integers(1, 300))
def test_waves_are_fewest_balanced_and_in_order(n, size):
    waves = _chunks(list(range(n)), size)
    assert len(waves) == -(-n // size)
    lengths = [len(wave) for wave in waves]
    assert all(length <= size for length in lengths)
    if waves:
        assert max(lengths) - min(lengths) <= 1
    assert [slot for wave in waves for slot in wave] == list(range(n))


@pytest.mark.parametrize("n, layout", [
    (150, (150,)),
    (200, (100, 100)),
    (256, (128, 128)),
])
def test_wave_layout_pin(n, layout):
    """One wave for compact-opamp's 150 rows; a 256-row floor batch
    keeps the two 128-slot waves it always had."""
    waves = _chunks(list(range(n)), sim.BATCH_SLOTS)
    assert tuple(len(wave) for wave in waves) == layout


def _opamp_sha(n, seed):
    ds = OpAmpBench().generate_dataset(n, seed=seed)
    return hashlib.sha256(
        np.ascontiguousarray(ds.values).tobytes()).hexdigest()


def _ac_solves_and_chunks(fn):
    """``(AC solves, AC chunks)`` that ``fn()`` ran, and its result."""
    tel = Telemetry(run_id="waves")
    previous = set_telemetry(tel)
    try:
        result = fn()
    finally:
        set_telemetry(previous)
    solves = sum(value for _, value in tel.series(
        "repro_circuit_batch_solves_total", analysis="ac"))
    chunks = sum(value for _, value in tel.series(
        "repro_circuit_ac_chunks_total"))
    return solves, chunks, result


@pytest.fixture(scope="module")
def one_wave():
    """150 op-amps in one wave at the library's constants:
    ``(AC solves, AC chunks, values hash)``."""
    assert len(_chunks(list(range(150)), sim.BATCH_SLOTS)) == 1
    return _ac_solves_and_chunks(lambda: _opamp_sha(150, seed=17))


def test_mems_lot_wave_is_one_ac_block():
    """A 128-row MEMS wave (5 unknowns x 121 frequencies) solves each
    AC sweep as one stacked chunk."""
    solves, chunks, _ = _ac_solves_and_chunks(
        lambda: generate_instances(AccelerometerBench(), 128, seed=5))
    assert solves > 0 and chunks == solves


@pytest.mark.slow
def test_opamp_wave_solves_ac_in_frequency_blocks(one_wave):
    """The 14-unknown op-amp sweep of a 150-row wave is split, so its
    working set stays within AC_CHUNK_ENTRIES."""
    solves, chunks, _ = one_wave
    assert chunks > solves > 0


@pytest.mark.slow
@pytest.mark.parametrize("batch_slots, ac_entries", [
    (OLD_BATCH_SLOTS, OLD_AC_CHUNK_ENTRIES),
    (OLD_BATCH_SLOTS, batch_mod.AC_CHUNK_ENTRIES),
    (sim.BATCH_SLOTS, OLD_AC_CHUNK_ENTRIES),
], ids=["128+22-old-ac", "128+22-new-ac", "one-wave-old-ac"])
def test_opamp_population_independent_of_waves_and_ac_blocks(
        monkeypatch, one_wave, batch_slots, ac_entries):
    """The one-wave population hashes identical to the 128 + 22 waves
    the old cap ran, with AC chunks at the old and the new bound."""
    monkeypatch.setattr(sim, "BATCH_SLOTS", batch_slots)
    monkeypatch.setattr(batch_mod, "AC_CHUNK_ENTRIES", ac_entries)
    assert _opamp_sha(150, seed=17) == one_wave[2]
