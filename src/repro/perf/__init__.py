"""Host-clock access.

* :mod:`repro.perf.timing` — the *sanctioned* wall-clock helper. All
  wall-time reads in ``src/repro`` go through :func:`~repro.perf.timing.wall_ns`:
  it is the one module slinglint's DET001 row exempts, so simulation
  logic cannot touch a wall clock directly.

The simulator's speed is measured from outside the package by the repo
benchmark, ``bench/run.py``; the golden digests any optimisation must
leave bit-identical are pinned in ``tests/test_perf_digests.py``.
"""
