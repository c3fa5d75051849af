"""Name of the numerical backend.

The kernels in :mod:`lfvdw._kernels` are plain numpy array code; there is
no other path and no switch. ``BACKEND`` stays as a module constant because
run metadata (the benchmark harness in ``perfbench/``) imports it and records
it next to the numpy version.
"""

#: Name of the kernel backend; numpy is the only one.
BACKEND = "numpy"
