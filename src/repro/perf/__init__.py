"""Host-clock access and the golden-digest scenarios.

* :mod:`repro.perf.timing` — the *sanctioned* wall-clock helper. All
  wall-time reads in ``src/repro`` go through :func:`~repro.perf.timing.wall_ns`:
  it is the one module slinglint's DET001 row exempts, so simulation
  logic cannot touch a wall clock directly.
* :mod:`repro.perf.scenarios` — deterministic full-cell scenario runners
  (fig9, fig10 smoke and TCP downlink, two chaos scenarios) whose
  canonical trace digests are golden: any optimisation must leave them
  bit-identical (``tests/test_perf_digests.py``).

The simulator's speed is measured from outside the package by the repo
benchmark, ``bench/run.py``.
"""
