"""Reusable scratch memory for repeated sampling, fitting and ordering.

A :class:`Workspace` holds named flat float slabs.  A stage asks for a
slab by name and shape; it gets a C-contiguous view of the slab's leading
elements, and the slab is reallocated only when a larger size is asked
for, so a workspace used at one sample size, or at sizes that come back
down, stops allocating after its first use.  Memory that a long loop
keeps reusing costs no page faults, where each fresh array of a few
hundred kilobytes or more is mapped, faulted in and unmapped anew.

A view is valid only until the next request for the same name, which
overwrites it: an array a caller keeps must be copied out.  Stages that
share a name do so on purpose, at points where the earlier tenant is dead
(see :func:`sephill.montecarlo.run_replication`).  A workspace is not
shared between threads.
"""

from __future__ import annotations

import math

import numpy as np


class Workspace:
    """Grow-only named slabs of float64 scratch memory."""

    def __init__(self):
        self._slabs: dict[str, np.ndarray] = {}

    def take(self, name: str, shape) -> np.ndarray:
        """A C-contiguous float view of ``shape`` over the slab ``name``,
        reallocated only when it is too small.  Its contents are
        whatever the slab's last tenant left there."""
        size = math.prod(shape)
        slab = self._slabs.get(name)
        if slab is None or slab.shape[0] < size:
            slab = self._slabs[name] = np.empty(size)
        return slab[:size].reshape(shape)

    def nbytes(self) -> int:
        """Bytes held by all slabs."""
        return sum(slab.nbytes for slab in self._slabs.values())


def scratch(workspace: Workspace | None, name: str, shape) -> np.ndarray:
    """An uninitialized C-contiguous float array of ``shape``: a view of
    ``workspace``'s slab ``name``, or a fresh array when ``workspace`` is
    None."""
    if workspace is None:
        return np.empty(shape)
    return workspace.take(name, shape)
