"""Classical analyses: SCCP, copy propagation, natural loops.

These are the algorithms the paper positions VRP against (constant and
copy propagation, which it subsumes) plus the loop structure the engine
and its applications need.  Import each from its module
(:mod:`repro.analysis.sccp`, :mod:`repro.analysis.copyprop`,
:mod:`repro.analysis.loops`); the package itself imports nothing, so
loading the engine's loop analysis does not load SCCP.

Block frequencies (Wu–Larus propagation) have no separate solver: the
engine computes them in closed form as it propagates, in
``FunctionPrediction.block_frequency``.
"""
