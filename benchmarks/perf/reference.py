"""Independent references for the benchmark's output checks.

Nothing here imports ``repro``: these are the plain-NumPy sweeps, the
closed-form traffic counts and the owner oracle every workload's outputs
are held to, so a wrong answer from the engine cannot vouch for itself.
The NumPy sweeps double as the ``numpy_ratio`` baseline (single thread,
F-order arrays like the engine's storage).
"""

from __future__ import annotations

import numpy as np

__all__ = ["allgather_words", "arrays_match", "evaluate", "halo_words",
           "jacobi_trips", "phase_cycle", "program_words", "remap_words",
           "statement_words", "transposition_words", "vcycle"]

RTOL = 1e-12


def arrays_match(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=RTOL, atol=1e-300))


# ----------------------------------------------------------------------
# NumPy sweeps
# ----------------------------------------------------------------------
def _sweep(x: np.ndarray, xnew: np.ndarray, r: np.ndarray) -> None:
    """One smoothing sweep: update, residual of the old iterate,
    copy-back (the three statements of a Jacobi trip)."""
    neigh = x[:-2, 1:-1] + x[2:, 1:-1] + x[1:-1, :-2] + x[1:-1, 2:]
    xnew[1:-1, 1:-1] = 0.25 * neigh
    r[1:-1, 1:-1] = neigh - 4.0 * x[1:-1, 1:-1]
    x[1:-1, 1:-1] = xnew[1:-1, 1:-1]


def jacobi_trips(x, xnew, r, trips: int) -> None:
    for _ in range(trips):
        _sweep(x, xnew, r)


def vcycle(x, xnew, r, xc, xcn, rc, cycles: int) -> None:
    """The two-level V-cycle: pre-smooth, restrict by injection, smooth
    the coarse correction, prolong + correct, post-smooth."""
    for _ in range(cycles):
        _sweep(x, xnew, r)
        rc[:, :] = r[::2, ::2]
        _sweep(xc, xcn, rc)
        x[::2, ::2] = x[::2, ::2] + xc
        _sweep(x, xnew, r)


def phase_cycle(x, w) -> None:
    """The statements of one ``remap_phase_change`` cycle (the remaps
    move data between owners, never change values)."""
    for _ in range(2):
        x[:, 1:-1] = 0.5 * (x[:, :-2] + x[:, 2:])
    for _ in range(2):
        x[1:-1, :] = 0.5 * (x[:-2, :] + x[2:, :])
    x[:, 1:-1] = 0.5 * (x[:, :-2] + x[:, 2:])
    x[:, 0] = x[:, 0] + w


# ----------------------------------------------------------------------
# Closed forms
# ----------------------------------------------------------------------
def halo_words(n: int, rows: int, cols: int) -> int:
    """Words one 5-point shifted statement over the interior of an
    ``n x n`` (BLOCK,BLOCK) array moves on a ``rows x cols`` grid: every
    internal block boundary is crossed once in each direction by a face
    of ``n - 2`` interior points."""
    return 2 * (rows - 1) * (n - 2) + 2 * (cols - 1) * (n - 2)


def transposition_words(n: int, p: int) -> int:
    """``(BLOCK,:) -> (:,BLOCK)`` of an ``n x n`` array over ``p``
    processors (``p`` divides ``n``): everything but the ``p`` diagonal
    blocks moves, ``n*n*(1 - 1/p)`` words."""
    return n * n - p * (n // p) ** 2


def allgather_words(n: int, p: int) -> int:
    """BLOCK -> REPLICATED of an ``n``-vector: each processor receives
    the ``n - n/p`` elements it does not own."""
    return n * p - n


# ----------------------------------------------------------------------
# Owner oracle
# ----------------------------------------------------------------------
def _dim_coords(fmt: tuple, lo: int, hi: int, np_: int, idx: np.ndarray,
                vienna: bool) -> np.ndarray:
    """Processor coordinate owning each index of one distributed
    dimension ``[lo:hi]`` over ``np_`` coordinates."""
    n = hi - lo + 1
    z = idx - lo
    kind = fmt[0]
    if kind == "BLOCK" and len(fmt) == 2:
        return z // fmt[1]
    if kind == "BLOCK" and vienna:
        q, r = divmod(n, np_)       # first r blocks hold q + 1
        return np.where(z < r * (q + 1), z // (q + 1),
                        r + (z - r * (q + 1)) // max(q, 1))
    if kind == "BLOCK":
        return z // -(-n // np_)
    if kind == "CYCLIC":
        return (z // fmt[1]) % np_
    if kind == "GENERAL_BLOCK":
        return np.searchsorted(np.asarray(fmt[2][:np_ - 1]), idx,
                               side="left")
    raise ValueError(f"no oracle for format {fmt!r}")


def _owner_coords(prog, name: str, index: list) -> tuple | None:
    """Per-grid-dimension owner coordinates of the elements
    ``name(index[0], index[1], ...)``; ``None`` when the array is
    replicated (the oracle covers single-owner layouts)."""
    decl = next(a for a in prog.arrays if a.name == name)
    layout = decl.layout
    if hasattr(layout, "base"):
        if layout.replicated:
            return None
        base_index = [mul * index[axis] + off
                      for axis, mul, off in layout.subs]
        return _owner_coords(prog, layout.base, base_index)
    coords, g = [], 0
    for fmt, (lo, hi), idx in zip(layout.formats, decl.bounds, index):
        if fmt[0] == ":":
            continue
        coords.append(_dim_coords(fmt, lo, hi, prog.grid[g],
                                  np.asarray(idx), prog.vienna))
        g += 1
    return tuple(coords)


def _section_index(ref) -> list:
    """Broadcastable global-index arrays of a section, one per array
    dimension, over the section's iteration space."""
    trip = [s for s in ref.subs if not isinstance(s, int)]
    grids = np.meshgrid(*(np.arange(lo, hi + 1, st) for lo, hi, st in trip),
                        indexing="ij") if trip else []
    out, k = [], 0
    for s in ref.subs:
        if isinstance(s, int):
            out.append(s)
        else:
            out.append(grids[k])
            k += 1
    return out


def statement_words(prog, stmt) -> int | None:
    """Logical words of one statement: per RHS reference occurrence, the
    iteration points whose operand element lives on another processor
    than the LHS element.  ``None`` if a replicated array takes part."""
    dst = _owner_coords(prog, stmt.lhs.name, _section_index(stmt.lhs))
    if dst is None:
        return None
    words = 0
    for _, ref in stmt.terms:
        src = _owner_coords(prog, ref.name, _section_index(ref))
        if src is None:
            return None
        differs = np.zeros(np.broadcast(*dst).shape, dtype=bool)
        for a, b in zip(src, dst):
            differs |= np.asarray(a) != np.asarray(b)
        words += int(differs.sum())
    return words


def program_words(prog) -> int | None:
    total = 0
    for stmt in prog.stmts:
        w = statement_words(prog, stmt)
        if w is None:
            return None
        total += w
    return total


def remap_words(n_elements_shape: tuple, old: tuple, new: tuple,
                p: int) -> int:
    """Elements whose single owner changes when an array over
    ``[1:n, ...]`` goes from formats ``old`` to ``new`` on ``p``
    processors (one distributed dimension each)."""
    index = np.meshgrid(*(np.arange(1, n + 1) for n in n_elements_shape),
                        indexing="ij")

    def owner(fmts):
        for fmt, n, idx in zip(fmts, n_elements_shape, index):
            if fmt[0] != ":":
                return _dim_coords(fmt, 1, n, p, idx, False)
        raise ValueError("no distributed dimension")

    return int((owner(old) != owner(new)).sum())


# ----------------------------------------------------------------------
# Section-assignment evaluator
# ----------------------------------------------------------------------
def _slicer(decl, ref) -> tuple:
    out = []
    for (lo, _), s in zip(decl.bounds, ref.subs):
        if isinstance(s, int):
            out.append(s - lo)
        else:
            out.append(slice(s[0] - lo, s[1] - lo + 1, s[2]))
    return tuple(out)


def evaluate(prog) -> dict[str, np.ndarray]:
    """Final array values of a corpus program (arrays start zeroed;
    Fortran array-assignment semantics: the RHS is complete before the
    store)."""
    decls = {a.name: a for a in prog.arrays}
    data = {a.name: np.zeros([hi - lo + 1 for lo, hi in a.bounds],
                             order="F") for a in prog.arrays}
    for stmt in prog.stmts:
        value = None
        for coef, ref in stmt.terms:
            term = data[ref.name][_slicer(decls[ref.name], ref)]
            term = term if coef == 1.0 else coef * term
            value = term if value is None else value + term
        if stmt.const is not None or value is None:
            const = 0.0 if stmt.const is None else stmt.const
            value = const if value is None else value + const
        data[stmt.lhs.name][_slicer(decls[stmt.lhs.name], stmt.lhs)] = value
    return data
