"""Seeded generator of directive-language programs.

Each :class:`Program` carries the directive *text* the system under test
sees and the same program as plain data (array declarations, layouts and
section assignments), which :mod:`reference` evaluates with NumPy and an
owner oracle.  Nothing here imports ``repro``: the structured form is the
independent statement of what the text means, so a rendering mistake makes
the reference disagree with the engine instead of hiding.

``generate(seed)`` is the 24-program corpus of ``compile_cold_mix``:
fixed family shares, sizes drawn per seed.  Sizes are *stratified* -- a
family of m programs splits its size range into m equal strata and
variant k draws its size from the middle quarter of stratum k -- so two
seeds give different texts (other extents, block boundaries and piece
counts) but nearly the same total work and traffic, which keeps the
workload's timings and model counts comparable across seeds (a compile's
cost is far from linear in n: a free draw would mostly measure which
variant got the big size).
``catalogue()`` is the fixed 16-program request catalogue of
``serve_tenants``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = ["Aligned", "ArrayDecl", "Direct", "FAMILY_SHARES", "Program",
           "Ref", "Stmt", "catalogue", "generate"]


# ----------------------------------------------------------------------
# The structured program
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Ref:
    """``NAME(sub, ...)``; a sub is ``(lo, hi, step)`` or a scalar int."""

    name: str
    subs: tuple

    def render(self) -> str:
        parts = []
        for s in self.subs:
            if isinstance(s, int):
                parts.append(str(s))
            else:
                lo, hi, st = s
                parts.append(f"{lo}:{hi}" + (f":{st}" if st != 1 else ""))
        return f"{self.name}({','.join(parts)})"


@dataclass(frozen=True)
class Stmt:
    """``lhs = c1*r1 + c2*r2 + ... + const`` evaluated left to right
    (the order the directive parser's precedence gives)."""

    lhs: Ref
    terms: tuple = ()       #: ((coef, Ref), ...)
    const: float | None = None

    def render(self) -> str:
        parts = [ref.render() if coef == 1.0 else f"{coef!r} * {ref.render()}"
                 for coef, ref in self.terms]
        if self.const is not None or not parts:
            parts.append(repr(0.0 if self.const is None else self.const))
        return f"      {self.lhs.render()} = {' + '.join(parts)}"


@dataclass(frozen=True)
class Direct:
    """``DISTRIBUTE name(formats) TO PR``.  A format is ``("BLOCK",)``,
    ``("BLOCK", m)``, ``("CYCLIC", k)``, ``("GENERAL_BLOCK", S, bounds)``
    or ``(":",)``; distributed dimensions take the grid's dimensions in
    order."""

    formats: tuple

    def render_formats(self) -> str:
        out = []
        for f in self.formats:
            if f[0] == ":":
                out.append(":")
            elif f[0] == "GENERAL_BLOCK":
                out.append(f"GENERAL_BLOCK({f[1]})")
            elif len(f) == 2 and not (f[0] == "CYCLIC" and f[1] == 1):
                out.append(f"{f[0]}({f[1]})")
            else:
                out.append(f[0])
        return ",".join(out)


@dataclass(frozen=True)
class Aligned:
    """``ALIGN name(I1,..) WITH base(sub, ...)``; a base sub is
    ``(axis, a, b)`` for ``a*I<axis> + b`` or ``"*"`` (replicated)."""

    base: str
    subs: tuple

    @property
    def replicated(self) -> bool:
        return "*" in self.subs


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    bounds: tuple           #: ((lo, hi), ...)
    layout: Direct | Aligned


@dataclass
class Program:
    family: str
    label: str
    grid: tuple             #: processor arrangement shape
    arrays: tuple
    stmts: tuple
    vienna: bool = False    #: BLOCK means the Vienna (balanced) variant
    inputs: dict = field(default_factory=dict)
    text: str = ""

    @property
    def processors(self) -> int:
        n = 1
        for g in self.grid:
            n *= g
        return n


def _render(prog: Program) -> str:
    lines = [f"! {prog.family}: {prog.label}"]
    for name, values in prog.inputs.items():
        lines.append(f"      INTEGER {name}({len(values)})")
    decls = []
    for a in prog.arrays:
        dims = ",".join(f"{lo}:{hi}" if lo != 1 else str(hi)
                        for lo, hi in a.bounds)
        decls.append(f"{a.name}({dims})")
    lines.append("      REAL " + ", ".join(decls))
    lines.append(f"!HPF$ PROCESSORS PR({','.join(map(str, prog.grid))})")
    for a in prog.arrays:
        if isinstance(a.layout, Direct):
            lines.append(f"!HPF$ DISTRIBUTE {a.name}"
                         f"({a.layout.render_formats()}) TO PR")
    for a in prog.arrays:
        if isinstance(a.layout, Aligned):
            rank = len(a.bounds)
            used = {s[0] for s in a.layout.subs if s != "*"}
            dummies = ",".join(f"I{k + 1}" if k in used else "*"
                               for k in range(rank))
            subs = []
            for s in a.layout.subs:
                if s == "*":
                    subs.append("*")
                    continue
                axis, mul, off = s
                term = f"I{axis + 1}" if mul == 1 else f"{mul}*I{axis + 1}"
                if off:
                    term += f"{off:+d}"
                subs.append(term)
            lines.append(f"!HPF$ ALIGN {a.name}({dummies}) WITH "
                         f"{a.layout.base}({','.join(subs)})")
    lines.extend(s.render() for s in prog.stmts)
    return "\n".join(lines) + "\n"


def _finish(prog: Program) -> Program:
    prog.text = _render(prog)
    return prog


# ----------------------------------------------------------------------
# Building blocks
# ----------------------------------------------------------------------
BLOCK, COLON = ("BLOCK",), (":",)


def _whole(name: str, bounds) -> Ref:
    return Ref(name, tuple((lo, hi, 1) for lo, hi in bounds))


def _seed_data(rng: random.Random, decl: ArrayDecl) -> list[Stmt]:
    """Two strided constant/scale statements that leave position-
    dependent data in ``decl`` (arrays start zeroed), so a wrongly
    shifted or strided reference changes the numbers."""
    first, second = [], []
    for k, (lo, hi) in enumerate(decl.bounds):
        first.append((lo, hi, 2 if k == 0 else 1))
        second.append((lo, hi, 3 if k == len(decl.bounds) - 1 else 1))
    a, b = Ref(decl.name, tuple(first)), Ref(decl.name, tuple(second))
    c1 = round(rng.uniform(1.0, 2.0), 3)
    c2 = round(rng.uniform(0.25, 0.75), 3)
    c3 = round(rng.uniform(2.0, 3.0), 3)
    return [Stmt(a, (), c1), Stmt(b, ((c2, b),), c3)]


def _stratified(rng: random.Random, lo: int, hi: int, m: int,
                multiple: int = 1) -> list[int]:
    """One draw from the middle quarter of each of ``m`` equal strata of
    ``[lo, hi]``, in ascending stratum order, rounded down to a
    multiple."""
    width = (hi - lo) / m
    sizes = []
    for k in range(m):
        v = int(lo + (k + 0.375 + 0.25 * rng.random()) * width)
        sizes.append(max(lo, v - v % multiple))
    return sizes


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------
def _staggered(n: int, fmts: tuple, *, vienna: bool, family: str,
               rng: random.Random) -> Program:
    """The §8.1.1 staggered grid: ``P = U(0:N-1,:) + U(1:N,:) +
    V(:,0:N-1) + V(:,1:N)``."""
    layout = Direct(fmts)
    u = ArrayDecl("U", ((0, n), (1, n)), layout)
    v = ArrayDecl("V", ((1, n), (0, n)), layout)
    p = ArrayDecl("P", ((1, n), (1, n)), layout)
    stmt = Stmt(_whole("P", p.bounds), (
        (1.0, Ref("U", ((0, n - 1, 1), (1, n, 1)))),
        (1.0, Ref("U", ((1, n, 1), (1, n, 1)))),
        (1.0, Ref("V", ((1, n, 1), (0, n - 1, 1)))),
        (1.0, Ref("V", ((1, n, 1), (1, n, 1))))))
    stmts = _seed_data(rng, u) + _seed_data(rng, v) + [stmt]
    return _finish(Program(
        family, f"staggered grid N={n} ({layout.render_formats()})",
        (2, 2), (u, v, p), tuple(stmts), vienna=vienna))


def _block_family(rng: random.Random, *, vienna_grid: bool) -> list[Program]:
    sizes = _stratified(rng, 96, 256, 8, multiple=2)
    progs = [_staggered(sizes[0], (BLOCK, BLOCK), vienna=vienna_grid,
                        family="block", rng=rng)]

    def one_d(n, label, a_fmt, b_fmt, stmts_of, grid=(4,), extra=()):
        a = ArrayDecl("A", ((1, n),), Direct((a_fmt,)))
        b = ArrayDecl("B", ((1, n),), Direct((b_fmt,)))
        arrays = (a, b) + tuple(extra)
        stmts = _seed_data(rng, a) + stmts_of(n)
        return _finish(Program("block", f"{label} N={n}", grid, arrays,
                               tuple(stmts)))

    n = sizes[1]
    s = rng.randint(1, 3)
    progs.append(one_d(n, f"1-D shift by {s}", BLOCK, BLOCK, lambda n: [
        Stmt(Ref("B", ((1 + s, n, 1),)),
             ((1.0, Ref("A", ((1, n - s, 1),))),), 1.0),
        Stmt(Ref("B", ((1, n - s, 1),)),
             ((1.0, Ref("B", ((1, n - s, 1),))),
              (0.5, Ref("A", ((1 + s, n, 1),)))))]))
    n = sizes[2]
    m = -(-n // 4) + rng.randint(1, 6)
    progs.append(one_d(n, f"BLOCK({m}) against BLOCK", ("BLOCK", m), BLOCK,
                       lambda n: [Stmt(_whole("B", ((1, n),)),
                                       ((2.0, _whole("A", ((1, n),))),),
                                       0.5)]))
    n = sizes[3]
    h = n // 2
    progs.append(one_d(n, "strided gather", BLOCK, BLOCK, lambda n: [
        Stmt(Ref("B", ((1, h, 1),)), ((1.0, Ref("A", ((1, 2 * h, 2),))),
                                      (1.0, Ref("A", ((2, 2 * h, 2),)))))]))
    n = sizes[4]
    off = rng.randint(2, 5)
    c = ArrayDecl("C", ((1, n - off),), Aligned("A", ((0, 1, off),)))
    progs.append(one_d(n, f"offset ALIGN C(I) WITH A(I+{off})", BLOCK,
                       BLOCK, lambda n: [
        Stmt(_whole("C", c.bounds), ((1.0, Ref("A", ((1, n - off, 1),))),),
             0.25),
        Stmt(Ref("B", ((1, n - off, 1),)),
             ((1.0, _whole("C", c.bounds)),
              (1.0, Ref("A", ((1 + off, n, 1),)))))], extra=(c,)))

    def two_d(n, label, grid, x_fmts, y_fmts, stmts_of):
        x = ArrayDecl("X", ((1, n), (1, n)), Direct(x_fmts))
        y = ArrayDecl("Y", ((1, n), (1, n)), Direct(y_fmts))
        return _finish(Program("block", f"{label} N={n}", grid, (x, y),
                               tuple(_seed_data(rng, x) + stmts_of(n))))

    def five_point(n):
        inner = (2, n - 1, 1)
        return [Stmt(Ref("Y", (inner, inner)), (
            (0.25, Ref("X", ((1, n - 2, 1), inner))),
            (0.25, Ref("X", ((3, n, 1), inner))),
            (0.25, Ref("X", (inner, (1, n - 2, 1)))),
            (0.25, Ref("X", (inner, (3, n, 1))))))]

    progs.append(two_d(sizes[5], "5-point sweep (BLOCK,BLOCK) 2x2", (2, 2),
                       (BLOCK, BLOCK), (BLOCK, BLOCK), five_point))
    progs.append(two_d(sizes[6], "transposing copy (:,BLOCK)->(BLOCK,:)",
                       (4,), (COLON, BLOCK), (BLOCK, COLON), lambda n: [
        Stmt(_whole("Y", ((1, n), (1, n))),
             ((1.0, _whole("X", ((1, n), (1, n)))),), 1.0)]))
    progs.append(two_d(sizes[7], "corner shift (BLOCK,BLOCK) 4x2", (4, 2),
                       (BLOCK, BLOCK), (BLOCK, BLOCK), lambda n: [
        Stmt(Ref("Y", ((2, n, 1), (2, n, 1))),
             ((1.0, Ref("X", ((1, n - 1, 1), (1, n - 1, 1)))),
              (0.5, Ref("X", ((2, n, 1), (1, n - 1, 1))))))]))
    return progs


def _blkcyc_family(rng: random.Random) -> list[Program]:
    """BLOCK <-> CYCLIC copies with an offset/strided ALIGNed third
    array (large n: alignment composition and owner maps dominate)."""
    progs = []
    # offset 1 on the third variant makes its last two statements ship
    # the same B section to the same owners: communication CSE fires on
    # every seed instead of on the seeds that happen to draw it
    variants = [(BLOCK, ("CYCLIC", 1), "A", 2, 0),
                (("CYCLIC", 1), BLOCK, "B", 1, rng.randint(2, 9)),
                (BLOCK, ("CYCLIC", 1), "A", 1, 1),
                (("CYCLIC", 1), BLOCK, "A", 2, -1)]
    for n, (a_fmt, b_fmt, base, mul, off) in zip(
            _stratified(rng, 12000, 24000, 4, multiple=8), variants):
        m = (n - max(off, 0)) // mul
        a = ArrayDecl("A", ((1, n),), Direct((a_fmt,)))
        b = ArrayDecl("B", ((1, n),), Direct((b_fmt,)))
        c = ArrayDecl("C", ((1, m),), Aligned(base, ((0, mul, off),)))
        stmts = _seed_data(rng, a) + [
            Stmt(_whole("B", b.bounds), ((1.0, _whole("A", a.bounds)),), 1.0),
            Stmt(_whole("C", c.bounds),
                 ((1.0, Ref("B", ((1, m, 1),))),
                  (1.0, Ref("A", ((n - m + 1, n, 1),))))),
            Stmt(Ref("A", ((2, n, 1),)),
                 ((0.5, Ref("B", ((1, n - 1, 1),))),))]
        sub = f"{mul}*I{off:+d}" if off else f"{mul}*I"
        progs.append(_finish(Program(
            "blkcyc", f"{a_fmt[0]}<->{b_fmt[0]} N={n}, C(I) WITH "
            f"{base}({sub})", (8,), (a, b, c), tuple(stmts))))
    return progs


def _cyclic_family(rng: random.Random) -> list[Program]:
    """CYCLIC(k) <-> CYCLIC(k') copies: analytic communication sets,
    quadratic in the piece count n/(k*P) -- so the pairs are listed by
    rising k*k' and take the size strata in that order, which keeps the
    four programs' costs close to each other."""
    progs = []
    pairs = [(2, 5), (3, 5), (3, 7), (4, 6)]
    for n, (k1, k2) in zip(_stratified(rng, 800, 1600, 4, multiple=4),
                           pairs):
        a = ArrayDecl("A", ((1, n),), Direct((("CYCLIC", k1),)))
        b = ArrayDecl("B", ((1, n),), Direct((("CYCLIC", k2),)))
        stmts = _seed_data(rng, a) + [
            Stmt(_whole("B", b.bounds), ((1.0, _whole("A", a.bounds)),), 1.0)]
        progs.append(_finish(Program(
            "cyclic", f"CYCLIC({k1})->CYCLIC({k2}) N={n}", (4,), (a, b),
            tuple(stmts))))
    return progs


def _stagcyc_family(rng: random.Random) -> list[Program]:
    fmts = [(("CYCLIC", 2), ("CYCLIC", 2)), (("CYCLIC", 2), BLOCK),
            (BLOCK, ("CYCLIC", 2)), (("CYCLIC", 1), ("CYCLIC", 2))]
    return [_staggered(n, f, vienna=False, family="stagcyc", rng=rng)
            for n, f in zip(_stratified(rng, 40, 64, 4, multiple=2), fmts)]


def _genblock_family(rng: random.Random) -> list[Program]:
    progs = []
    n1, n2 = _stratified(rng, 160, 320, 2, multiple=4)

    def cuts(n, parts):
        """Seeded irregular cumulative upper bounds, last == n: the
        balanced cuts, each moved by up to n/16 either way."""
        return [k * n // parts + rng.randint(-(n // 16), n // 16)
                for k in range(1, parts)] + [n]

    s = cuts(n1, 4)
    a = ArrayDecl("A", ((1, n1),), Direct((("GENERAL_BLOCK", "S",
                                            tuple(s)),)))
    b = ArrayDecl("B", ((1, n1),), Direct((BLOCK,)))
    progs.append(_finish(Program(
        "genblock", f"GENERAL_BLOCK against BLOCK N={n1}", (4,), (a, b),
        tuple(_seed_data(rng, a) + [
            Stmt(Ref("B", ((2, n1, 1),)),
                 ((1.0, Ref("A", ((1, n1 - 1, 1),))),), 1.0),
            Stmt(_whole("A", a.bounds), ((0.5, _whole("B", b.bounds)),))]),
        inputs={"S": s})))
    g = cuts(n2, 4)
    fmt = (("GENERAL_BLOCK", "G", tuple(g)), COLON)
    x = ArrayDecl("X", ((1, n2), (1, n2)), Direct(fmt))
    # the paper's use of the format (§8.1.1, direct-general-block): the
    # same irregular blocks on every array, so only halo rows move
    y = ArrayDecl("Y", ((1, n2), (1, n2)), Direct(fmt))
    progs.append(_finish(Program(
        "genblock", f"(GENERAL_BLOCK,:) row sweep N={n2}", (4,), (x, y),
        tuple(_seed_data(rng, x) + [
            Stmt(Ref("Y", ((2, n2 - 1, 1), (1, n2, 1))),
                 ((0.5, Ref("X", ((1, n2 - 2, 1), (1, n2, 1)))),
                  (0.5, Ref("X", ((3, n2, 1), (1, n2, 1))))))]),
        inputs={"G": g})))
    return progs


def _replicated_family(rng: random.Random) -> list[Program]:
    progs = []
    n1, n2 = _stratified(rng, 48, 96, 2, multiple=2)
    d = ArrayDecl("D", ((1, n1), (1, n1)), Direct((BLOCK, BLOCK)))
    e = ArrayDecl("E", ((1, n1), (1, n1)), Direct((BLOCK, BLOCK)))
    a = ArrayDecl("A", ((1, n1),), Aligned("D", ((0, 1, 0), "*")))
    col = rng.randint(2, n1 - 1)
    progs.append(_finish(Program(
        "replicated", f"ALIGN A(:) WITH D(:,*) N={n1}", (2, 2), (d, e, a),
        tuple(_seed_data(rng, d) + [
            Stmt(_whole("A", a.bounds),
                 ((1.0, Ref("D", ((1, n1, 1), 1))),), 0.5),
            Stmt(Ref("E", ((1, n1, 1), col)),
                 ((1.0, Ref("D", ((1, n1, 1), n1))),
                  (1.0, _whole("A", a.bounds))))]))))
    ev = ArrayDecl("E", ((1, n2),), Direct((BLOCK,)))
    f = ArrayDecl("F", ((1, n2),), Direct((("CYCLIC", 1),)))
    b = ArrayDecl("B", ((1, n2), (1, 4)), Aligned("E", ((0, 1, 0),)))
    progs.append(_finish(Program(
        "replicated", f"collapsed ALIGN B(:,*) WITH E(:) N={n2}", (4,),
        (ev, f, b),
        tuple(_seed_data(rng, ev) + [
            Stmt(Ref("B", ((1, n2, 1), 2)), ((1.0, _whole("E", ev.bounds)),),
                 1.5),
            Stmt(_whole("F", f.bounds),
                 ((1.0, Ref("B", ((1, n2, 1), 2))),
                  (0.5, Ref("B", ((1, n2, 1), 3)))))]))))
    return progs


#: programs per family, in corpus order before the seeded shuffle
FAMILY_SHARES = {"block": 8, "blkcyc": 4, "cyclic": 4, "stagcyc": 4,
                 "genblock": 2, "replicated": 2}


def generate(seed: int) -> list[Program]:
    """The ``compile_cold_mix`` corpus for ``seed``: 24 programs.  Slot
    0 is always the §8.1.1 direct-BLOCK staggered grid (so the cold
    first op is the same kind of program on every seed); the rest are
    shuffled."""
    rng = random.Random(f"corpus-{seed}")
    progs = (_block_family(rng, vienna_grid=True) + _blkcyc_family(rng)
             + _cyclic_family(rng) + _stagcyc_family(rng)
             + _genblock_family(rng) + _replicated_family(rng))
    head, rest = progs[0], progs[1:]
    rng.shuffle(rest)
    return [head] + rest


#: Jacobi sizes of the serve catalogue (examples/jacobi_do.hpf, -D N=..)
JACOBI_SIZES = (40, 50, 60, 72, 80, 90, 100, 112)


def catalogue() -> list[Program]:
    """The eight cheap BLOCK-family programs of the ``serve_tenants``
    catalogue (fixed: the request *order* is what the seed draws).  The
    service offers no block-variant switch, so the staggered grid runs
    under HPF blocks here."""
    return _block_family(random.Random("catalogue"), vienna_grid=False)
