"""The native compiled tier (the paper's future-work compiler): Tetra→C
kernels in :mod:`repro.compiler.native`."""
