"""Baselines the paper compares against (or improves upon).

* :mod:`~repro.baselines.dbcsr` — a libDBCSR-like execution model:
  Cannon-style 2D shifts, one GPU per MPI process, GPU-resident panels
  with the capacity failure mode the paper observed ("problems of size
  (48k, 192k, 192k) or more result in an error when trying to allocate
  the memory on some CUDA devices");
* :mod:`~repro.baselines.cpu_mpqc` — the CPU-only MPQC yardstick of
  Section 5.2.
"""

from repro.baselines.dbcsr import DbcsrReport, dbcsr_simulate
from repro.baselines.cpu_mpqc import mpqc_cpu_time

__all__ = [
    "DbcsrReport",
    "dbcsr_simulate",
    "mpqc_cpu_time",
]
