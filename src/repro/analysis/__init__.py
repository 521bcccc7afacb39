"""Classical analyses: copy propagation and natural loops.

Copy propagation is one of the algorithms the paper positions VRP
against (VRP subsumes it); the loops are the structure the engine and
its applications need.  Import each from its module
(:mod:`repro.analysis.copyprop`, :mod:`repro.analysis.loops`); the
package itself imports nothing, so loading the engine's loop analysis
does not load copy propagation.  The SCCP baseline VRP subsumes is a
test oracle, ``tests/sccp_reference.py``.

Block frequencies (Wu–Larus propagation) have no separate solver: the
engine computes them in closed form as it propagates, in
``FunctionPrediction.block_frequency``.
"""
