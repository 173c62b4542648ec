import numpy as np

from sephill.workspace import Workspace, scratch


def test_slab_is_reallocated_only_for_a_larger_size():
    ws = Workspace()
    first = ws.take("x", (3, 100))
    smaller = ws.take("x", (2, 50))
    assert smaller.shape == (2, 50) and smaller.flags.c_contiguous
    assert np.shares_memory(first, smaller)
    same = ws.take("x", (100, 3))
    assert np.shares_memory(first, same)
    larger = ws.take("x", (3, 101))
    assert not np.shares_memory(first, larger)
    assert ws.nbytes() == 303 * 8


def test_names_do_not_share_memory():
    ws = Workspace()
    assert not np.shares_memory(ws.take("x", (10,)), ws.take("y", (10,)))
    assert ws.nbytes() == 2 * 10 * 8


def test_no_workspace_gives_fresh_arrays():
    a = scratch(None, "x", (4, 2))
    b = scratch(None, "x", (4, 2))
    assert a.shape == (4, 2) and a.flags.c_contiguous
    assert not np.shares_memory(a, b)
