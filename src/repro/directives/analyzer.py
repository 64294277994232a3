"""Semantic analysis and lowering of parsed programs.

The analyzer is the directive-language *front end* over the same spine
the Python :class:`~repro.api.session.Session` API uses: specification
nodes (declarations, PROCESSORS, DISTRIBUTE, ALIGN, DYNAMIC, READ,
PARAMETER) elaborate the scope eagerly, while the execution part —
array assignments, REDISTRIBUTE/REALIGN, ALLOCATE/DEALLOCATE and
``DO k = 1, N`` / ``END DO`` loops — is recorded through the shared
:class:`~repro.api.lower.ProgramBuilder` into the program IR and
executed by the :class:`~repro.engine.passes.ProgramRunner` (pass
pipeline, backend resolver, accountant seam).  Counted loops therefore
reach the optimizer as real :class:`~repro.engine.ir.LoopNode`\\ s: remap
hoisting and loop-carried halo validity fire on text programs exactly as
they do on Session programs.

Deliberate asymmetries (they *are* the paper's point):

* ``TEMPLATE`` raises in the paper model — the language has no templates;
* ``REALIGN``/``REDISTRIBUTE``/``DYNAMIC``/``ALLOCATE``/``DEALLOCATE``
  raise in the template baseline where the §8.2 impossibilities bite
  (fixed template shapes, no dynamic remapping of template-aligned data).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.align.ast import (
    BinOp, Call, Dummy, Expr, Name, fold_constants, names_in,
)
from repro.align.spec import (
    AlignSpec, AxisColon, AxisDummy, AxisStar,
    BaseExpr, BaseStar, BaseTriplet,
)
from repro.api.lower import ProgramBuilder, run_graph
from repro.core.dataspace import DataSpace
from repro.directives import nodes as N
from repro.directives.parser import parse_program
from repro.distributions.base import Collapsed, DistributionFormat
from repro.distributions.block import Block, BlockVariant
from repro.distributions.cyclic import Cyclic
from repro.distributions.general_block import GeneralBlock
from repro.engine.assignment import Assignment
from repro.engine.executor import ExecutionReport, SimulatedExecutor
from repro.engine.expr import ArrayRef, BinExpr, ScalarLit
from repro.errors import DirectiveError, TemplateError
from repro.fortran.triplet import Triplet
from repro.machine.backend import resolve_backend
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine
from repro.processors.section import ProcessorSection
from repro.templates.model import TemplateDataSpace

__all__ = ["Analyzer", "ProgramResult", "lint_program", "run_program"]


@dataclass
class ProgramResult:
    """Everything a program run produced."""

    model: str
    ds: Any                         #: DataSpace or TemplateDataSpace
    nodes: list[N.Node]
    machine: DistributedMachine | None = None
    reports: list[ExecutionReport] = field(default_factory=list)
    #: (source line, forest snapshot) after each paper-model node, in
    #: execution order (loop-body lines repeat once per trip)
    snapshots: list[tuple[int, dict]] = field(default_factory=list)
    int_arrays: dict[str, np.ndarray] = field(default_factory=dict)
    #: per-pass optimizer savings, cumulative over the whole program
    #: (one accountant spans every lowered segment; empty at
    #: ``opt_level == 0`` or without a machine)
    savings: dict = field(default_factory=dict)
    #: autotune actions taken (``opt_level="auto"`` only), cumulative
    #: over every executed segment
    adaptations: list = field(default_factory=list)
    #: the execution part as lowered program IR (concatenation of every
    #: executed segment, in order)
    graph: Any = None


class Analyzer:
    """Executes parsed programs against a model."""

    def __init__(self, n_processors: int = 4, *,
                 inputs: Mapping[str, Any] | None = None,
                 model: str = "paper",
                 machine: bool | MachineConfig = False,
                 backend=None, opt_level: int = 0,
                 opt_window: int | None = None,
                 block_variant: BlockVariant = BlockVariant.HPF,
                 collect_only: bool = False) -> None:
        if model not in ("paper", "template"):
            raise DirectiveError(f"unknown model {model!r}")
        self.model = model
        #: lint mode: specification directives still elaborate the scope
        #: (the analyzer needs the declared mappings), but the execution
        #: part is only *lowered* — nothing runs and no storage mutates
        self.collect_only = collect_only
        self.block_variant = block_variant
        if model == "paper":
            self.ds: Any = DataSpace(n_processors)
        else:
            self.ds = TemplateDataSpace(n_processors)
        self.machine: DistributedMachine | None = None
        self.executor: SimulatedExecutor | None = None
        self.backend = resolve_backend(backend)
        #: ``opt_level="auto"`` enables the autotune feedback loop;
        #: static analysis then reasons at the -O2 pass set
        self.auto = str(opt_level).lower() == "auto"
        self.opt_level = 2 if self.auto else int(opt_level)
        self.opt_window = opt_window
        self.accountant = None
        self.runner = None
        if machine:
            config = machine if isinstance(machine, MachineConfig) \
                else MachineConfig(n_processors)
            self.machine = DistributedMachine(config)
            if model == "paper":
                # one runner (executor + accountant) for the whole
                # program: schedule caches and resident-exchange tables
                # stay hot across lowered segments.  Remaps are not
                # charged — the directive front end reports them as
                # RemapEvents for the caller to price, its historical
                # accounting contract.
                from repro.engine.passes import ProgramRunner
                self.runner = ProgramRunner(
                    self.ds, self.machine, backend=self.backend,
                    opt_level="auto" if self.auto else self.opt_level,
                    charge_remaps=False, opt_window=opt_window)
                self.executor = self.runner.executor
                self.accountant = self.runner.accountant
        #: the shared lowering spine (paper model only)
        self.builder = ProgramBuilder(self.ds) if model == "paper" \
            else None
        #: IR node id -> source line, for execution-order snapshots
        self._node_lines: dict[int, int] = {}
        #: stack of open DO-loop variables (innermost last)
        self._loop_vars: list[str] = []
        self.inputs = {k.upper(): v for k, v in (inputs or {}).items()}
        self.int_arrays: dict[str, np.ndarray] = {}
        #: deferred allocatable declarations: name -> rank
        self._deferred: dict[str, int] = {}
        self._int_scalars: set[str] = set()
        # scalar inputs double as specification constants immediately
        for k, v in self.inputs.items():
            if isinstance(v, (int, np.integer)):
                self.ds.env[k] = int(v)

    # ------------------------------------------------------------------
    def run(self, source: str) -> ProgramResult:
        nodes = parse_program(source)
        result = ProgramResult(self.model, self.ds, nodes,
                               machine=self.machine,
                               int_arrays=self.int_arrays)
        try:
            for node in nodes:
                self._execute(node, result)
            if self.builder is not None and self.builder.in_loop:
                raise DirectiveError(
                    f"{self.builder.loop_depth} DO loop(s) not closed "
                    "by END DO at end of program")
            self._flush_segment(result)
        finally:
            # SPMD executors hold a worker pool; release it with the run
            # (a later run() lazily restarts it)
            if hasattr(self.executor, "close"):
                self.executor.close()
        return result

    # ------------------------------------------------------------------
    # The build/execute split: specification nodes elaborate eagerly,
    # execution nodes lower into the shared program IR
    # ------------------------------------------------------------------
    _LAZY = (N.AssignNode, N.AllocateNode, N.DeallocateNode, N.DoNode,
             N.EndDoNode)

    def _execute(self, node: N.Node, result: ProgramResult) -> None:
        handler = {
            N.DeclNode: self._do_decl,
            N.ProcessorsNode: self._do_processors,
            N.TemplateNode: self._do_template,
            N.DistributeNode: self._do_distribute,
            N.AlignNode: self._do_align,
            N.DynamicNode: self._do_dynamic,
            N.AllocateNode: self._do_allocate,
            N.DeallocateNode: self._do_deallocate,
            N.ReadNode: self._do_read,
            N.ParameterNode: self._do_parameter,
            N.AssignNode: self._do_assign,
            N.DoNode: self._do_do,
            N.EndDoNode: self._do_end_do,
        }.get(type(node))
        if handler is None:
            raise DirectiveError(f"unhandled node {node!r}", line=node.line)
        if self.builder is not None and not self._is_lazy(node):
            # a specification directive interrupts the execution part:
            # run what is recorded so far, in source order, first
            if self.builder.in_loop:
                raise DirectiveError(
                    "only executable statements, dynamic remaps and "
                    "ALLOCATE/DEALLOCATE may appear inside a DO loop",
                    line=node.line)
            self._flush_segment(result)
            handler(node, result)
            result.snapshots.append(
                (node.line, self.ds.forest_snapshot()))
            return
        handler(node, result)

    def _is_lazy(self, node: N.Node) -> bool:
        """Execution-part nodes recorded into the IR (paper model)."""
        if isinstance(node, self._LAZY):
            return True
        if isinstance(node, N.DistributeNode) and node.redistribute:
            return True
        if isinstance(node, N.AlignNode) and node.realign:
            return True
        return False

    def _register(self, ir_node, line: int) -> None:
        self._node_lines[id(ir_node)] = line

    def _flush_segment(self, result: ProgramResult) -> None:
        """Lower and execute the recorded execution-part segment."""
        if self.builder is None or not len(self.builder):
            return
        # take() resets the builder's shadow domains; in collect mode the
        # data space never sees the ALLOCATE/DEALLOCATEs, so the shadow
        # must survive segment boundaries for later subscript resolution
        shadow = dict(self.builder._shadow)
        graph = self.builder.take()
        if result.graph is None:
            from repro.engine.ir import ProgramGraph
            result.graph = ProgramGraph()
        result.graph.nodes.extend(graph.nodes)
        if self.collect_only:
            self.builder._shadow = shadow
            return

        def on_node(node, trip):
            result.snapshots.append(
                (self._node_lines.get(id(node), 0),
                 self.ds.forest_snapshot()))

        run = run_graph(self.ds, graph, runner=self.runner,
                        on_node=on_node)
        if run is not None:
            result.reports.extend(run.reports)
            if run.savings:
                result.savings = run.savings
            result.adaptations.extend(
                getattr(run, "adaptations", ()) or ())

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, expr: Expr, line: int) -> int:
        if self._loop_vars:
            used = names_in(expr) & set(self._loop_vars)
            if used:
                raise DirectiveError(
                    f"loop variable {sorted(used)[0]!r} may not appear "
                    "in subscripts: a DO loop lowers to a counted "
                    "repetition of an identical body, so every "
                    "statement must be trip-invariant", line=line)
        try:
            folded = fold_constants(expr, self.ds.env)
            return int(folded.evaluate(self.ds.env))
        except Exception as exc:
            raise DirectiveError(
                f"cannot evaluate {expr}: {exc}", line=line) from None

    def _bounds(self, dims: Sequence[N.DimDecl],
                line: int) -> list[tuple[int, int]]:
        out = []
        for d in dims:
            upper = self._eval(d.upper, line)
            lower = self._eval(d.lower, line) if d.lower is not None else 1
            out.append((lower, upper))
        return out

    # ------------------------------------------------------------------
    # Node handlers
    # ------------------------------------------------------------------
    def _do_decl(self, node: N.DeclNode, result: ProgramResult) -> None:
        is_int = node.type_name == "INTEGER"
        dtype = np.int64 if is_int else np.float64
        for name, dims in node.entities:
            eff_dims = dims if dims is not None else node.attr_dims
            if eff_dims is None:
                # scalar variable: INTEGER N etc.; value arrives via READ
                # or PARAMETER (or was passed as input)
                self._int_scalars.add(name)
                if name in self.inputs:
                    self.ds.env[name] = int(self.inputs[name])
                continue
            deferred = any(isinstance(d, N.DeferredDim) for d in eff_dims)
            if deferred or (node.allocatable and dims is None):
                if not node.allocatable:
                    raise DirectiveError(
                        f"{name}: deferred shape requires ALLOCATABLE",
                        line=node.line)
                self._deferred[name] = len(eff_dims)
                if self.model == "paper":
                    self.ds.declare(name, allocatable=True,
                                    rank=len(eff_dims), dtype=dtype)
                # template model: declared lazily at ALLOCATE
                continue
            bounds = self._bounds(eff_dims, node.line)
            if is_int:
                # integer arrays serve as directive data (GENERAL_BLOCK)
                lo, hi = bounds[0]
                values = self.inputs.get(name)
                arr = (np.asarray(values, dtype=np.int64)
                       if values is not None
                       else np.zeros(hi - lo + 1, dtype=np.int64))
                self.int_arrays[name] = arr
                continue
            if self.model == "paper":
                self.ds.declare(name, *bounds, dtype=dtype,
                                allocatable=node.allocatable)
            else:
                self.ds.declare(name, *bounds, dtype=dtype)

    def _do_processors(self, node: N.ProcessorsNode,
                       result: ProgramResult) -> None:
        for name, dims in node.entries:
            if dims is None:
                if not hasattr(self.ds, "scalar_processors"):
                    raise DirectiveError(
                        "scalar processor arrangements are only modelled "
                        "in the paper model", line=node.line)
                self.ds.scalar_processors(name)
            else:
                bounds = self._bounds(dims, node.line)
                self.ds.processors(name, *bounds)

    def _do_template(self, node: N.TemplateNode,
                     result: ProgramResult) -> None:
        if self.model == "paper":
            raise DirectiveError(
                f"TEMPLATE {node.name}: the template-free language of "
                "this paper has no TEMPLATE directive — use array-to-"
                "array ALIGN, direct DISTRIBUTE, or GENERAL_BLOCK "
                "(run with model='template' for the draft-HPF baseline)",
                line=node.line)
        bounds = self._bounds(node.dims, node.line)
        self.ds.template(node.name, *bounds)

    def _formats(self, specs: Sequence[N.FormatSpec],
                 line: int) -> list[DistributionFormat]:
        out: list[DistributionFormat] = []
        for f in specs:
            if f.kind == ":":
                out.append(Collapsed())
            elif f.kind == "BLOCK":
                size = self._eval(f.arg, line) if f.arg is not None else None
                out.append(Block(size=size, variant=self.block_variant))
            elif f.kind == "CYCLIC":
                k = self._eval(f.arg, line) if f.arg is not None else 1
                out.append(Cyclic(k))
            else:   # GENERAL_BLOCK / INDIRECT take an integer array
                arg = f.arg
                arr_name = arg if isinstance(arg, str) else (
                    arg.name if isinstance(arg, Name) else None)
                values = self.int_arrays.get(arr_name) \
                    if arr_name is not None else None
                if values is None:
                    raise DirectiveError(
                        f"{f.kind}({arg}): unknown integer array",
                        line=line)
                if f.kind == "GENERAL_BLOCK":
                    out.append(GeneralBlock([int(v) for v in values]))
                else:
                    # directive-level INDIRECT uses 1-based processor
                    # indices (Fortran convention); the library format
                    # is 0-based
                    from repro.distributions.indirect import Indirect
                    out.append(Indirect([int(v) - 1 for v in values]))
        return out

    def _target(self, ref: N.TargetRef | None,
                line: int) -> ProcessorSection | None:
        if ref is None:
            return None
        arrangement = self.ds.ap.arrangement(ref.name)
        if ref.subscripts is None:
            return ProcessorSection(arrangement)
        subs = []
        for s in ref.subscripts:
            if s.kind == "expr":
                subs.append(self._eval(s.expr, line))
            elif s.kind == "colon":
                d = arrangement.domain.dims[len(subs)]
                subs.append(Triplet(d.lower, d.last, 1))
            else:
                d = arrangement.domain.dims[len(subs)]
                lo = self._eval(s.lower, line) if s.lower is not None \
                    else d.lower
                hi = self._eval(s.upper, line) if s.upper is not None \
                    else d.last
                st = self._eval(s.stride, line) if s.stride is not None \
                    else 1
                subs.append(Triplet(lo, hi, st))
        return ProcessorSection(arrangement, tuple(subs))

    def _do_distribute(self, node: N.DistributeNode,
                       result: ProgramResult) -> None:
        # (no fusion-window flush needed here: a spec directive reaching
        # this handler already flushed the recorded segment, and the
        # runner's finally drained the accountant)
        target = self._target(node.target, node.line)
        for spec in node.distributees:
            if spec.star:
                raise DirectiveError(
                    f"DISTRIBUTE {spec.name} *: dummy-argument "
                    "inheritance forms apply to procedure interfaces; "
                    "use repro.core.procedures.DummySpec", line=node.line)
            formats = self._formats(spec.formats, node.line)
            if node.redistribute:
                if self.model == "template":
                    raise TemplateError(
                        "REDISTRIBUTE is not supported in the template "
                        "baseline scope of this library")
                self._register(
                    self.builder.redistribute(spec.name, formats,
                                              to=target), node.line)
            else:
                self.ds.distribute(spec.name, formats, to=target)

    def _align_spec(self, node: N.AlignNode) -> AlignSpec:
        axes = []
        dummy_names: set[str] = set()
        for ax in node.axes:
            if ax.kind == "colon":
                axes.append(AxisColon())
            elif ax.kind == "star":
                axes.append(AxisStar())
            else:
                axes.append(AxisDummy(ax.name))
                dummy_names.add(ax.name)

        def rewrite(expr: Expr) -> Expr:
            """Turn Names bound by alignee axes into align-dummies."""
            if isinstance(expr, Name) and expr.name in dummy_names:
                return Dummy(expr.name)
            if isinstance(expr, BinOp):
                return BinOp(expr.op, rewrite(expr.left),
                             rewrite(expr.right))
            if isinstance(expr, Call):
                return Call(expr.fn, [rewrite(a) for a in expr.args])
            return expr

        subs = []
        for sub in node.subscripts:
            if sub.kind == "star":
                subs.append(BaseStar())
            elif sub.kind == "expr":
                subs.append(BaseExpr(rewrite(sub.expr)))
            else:
                subs.append(BaseTriplet(
                    rewrite(sub.lower) if sub.lower is not None else None,
                    rewrite(sub.upper) if sub.upper is not None else None,
                    rewrite(sub.stride) if sub.stride is not None else None,
                ))
        return AlignSpec(node.alignee, axes, node.base, subs)

    def _do_align(self, node: N.AlignNode, result: ProgramResult) -> None:
        spec = self._align_spec(node)
        if node.realign:
            if self.model == "template":
                raise TemplateError(
                    "REALIGN is not supported in the template baseline "
                    "scope of this library")
            self._register(self.builder.realign(spec), node.line)
        else:
            self.ds.align(spec)

    def _do_dynamic(self, node: N.DynamicNode,
                    result: ProgramResult) -> None:
        if self.model == "template":
            raise TemplateError(
                "DYNAMIC is not supported in the template baseline scope "
                "of this library")
        self.ds.set_dynamic(*node.names)

    def _do_allocate(self, node: N.AllocateNode,
                     result: ProgramResult) -> None:
        for name, dims in node.allocations:
            bounds = self._bounds(dims, node.line)
            if self.model == "paper":
                self._register(self.builder.allocate(name, *bounds),
                               node.line)
            else:
                rank = self._deferred.get(name)
                if rank is not None and rank != len(bounds):
                    raise DirectiveError(
                        f"ALLOCATE({name}) rank mismatch", line=node.line)
                self.ds.declare(name, *bounds, runtime_shape=True)

    def _do_deallocate(self, node: N.DeallocateNode,
                       result: ProgramResult) -> None:
        if self.model == "template":
            raise TemplateError(
                "DEALLOCATE of mapped arrays is not supported in the "
                "template baseline scope of this library")
        for name in node.names:
            self._register(self.builder.deallocate(name), node.line)

    def _do_read(self, node: N.ReadNode, result: ProgramResult) -> None:
        for name in node.names:
            if name not in self.inputs:
                raise DirectiveError(
                    f"READ {node.unit},{name}: no input value supplied "
                    f"for {name!r} (pass inputs={{...}})", line=node.line)
            self.ds.env[name] = int(self.inputs[name])

    def _do_parameter(self, node: N.ParameterNode,
                      result: ProgramResult) -> None:
        self.ds.env[node.name] = self._eval(node.value, node.line)

    # ------------------------------------------------------------------
    # Assignments
    # ------------------------------------------------------------------
    def _section_subscripts(self, ref: N.RefNode, line: int):
        if ref.subscripts is None:
            return None
        try:
            # resolve against the *recorded* program state: a pending
            # ALLOCATE's instance bounds win over the live data space
            domain = self.builder.domain_of(ref.name)
        except DirectiveError as exc:
            raise DirectiveError(exc.message, line=line) from None
        subs = []
        for k, s in enumerate(ref.subscripts):
            dim = domain.dims[k]
            if s.kind == "expr":
                subs.append(self._eval(s.expr, line))
            elif s.kind == "colon":
                subs.append(Triplet(dim.lower, dim.last, 1))
            else:
                lo = self._eval(s.lower, line) if s.lower is not None \
                    else dim.lower
                hi = self._eval(s.upper, line) if s.upper is not None \
                    else dim.last
                st = self._eval(s.stride, line) if s.stride is not None \
                    else 1
                subs.append(Triplet(lo, hi, st))
        return tuple(subs)

    def _stmt_expr(self, node: N.ExprNode, line: int):
        if isinstance(node, N.NumNode):
            return ScalarLit(node.value)
        if isinstance(node, N.RefNode):
            return ArrayRef(node.name,
                            self._section_subscripts(node, line))
        if isinstance(node, N.BinNode):
            return BinExpr(node.op, self._stmt_expr(node.left, line),
                           self._stmt_expr(node.right, line))
        raise DirectiveError(f"bad expression node {node!r}", line=line)

    def _do_assign(self, node: N.AssignNode,
                   result: ProgramResult) -> None:
        if self.model == "template":
            raise TemplateError(
                "executable statements run under the paper model; the "
                "template baseline is a mapping-only scope")
        lhs = ArrayRef(node.lhs.name,
                       self._section_subscripts(node.lhs, node.line))
        stmt = Assignment(lhs, self._stmt_expr(node.rhs, node.line))
        self._register(self.builder.assign(stmt), node.line)

    # ------------------------------------------------------------------
    # Counted loops (DO / END DO -> LoopNode)
    # ------------------------------------------------------------------
    def _do_do(self, node: N.DoNode, result: ProgramResult) -> None:
        if self.model == "template":
            raise TemplateError(
                "DO loops run under the paper model; the template "
                "baseline is a mapping-only scope")
        start = self._eval(node.start, node.line)
        stop = self._eval(node.stop, node.line)
        step = self._eval(node.step, node.line) \
            if node.step is not None else 1
        if step == 0:
            raise DirectiveError("DO step must be non-zero",
                                 line=node.line)
        # the Fortran trip-count formula
        count = max((stop - start + step) // step, 0)
        self.builder.begin_loop(count)
        self._loop_vars.append(node.var)

    def _do_end_do(self, node: N.EndDoNode,
                   result: ProgramResult) -> None:
        if self.model == "template" or not self.builder.in_loop:
            raise DirectiveError("END DO without a matching DO",
                                 line=node.line)
        self._register(self.builder.end_loop(), node.line)
        self._loop_vars.pop()


def run_program(source: str, *, n_processors: int = 4,
                inputs: Mapping[str, Any] | None = None,
                model: str = "paper",
                machine: bool | MachineConfig = False,
                backend=None, opt_level: int = 0,
                opt_window: int | None = None,
                block_variant: BlockVariant = BlockVariant.HPF
                ) -> ProgramResult:
    """Parse, lower and execute a program text; see :class:`Analyzer`.

    The execution part (statements, ``DO``/``END DO`` loops, dynamic
    remaps, ALLOCATE/DEALLOCATE) lowers through the shared program IR
    (:mod:`repro.api.lower`), so text programs reach the same optimizer
    pipeline as Session programs.  ``backend`` selects the execution
    backend when a machine is attached — a
    :class:`~repro.machine.backend.Backend` spec such as
    ``Backend.simulate()`` (the ``None`` default) or
    ``Backend.spmd(workers=4)``.  ``opt_level`` enables the
    program-level communication optimizer (``0``/``1``/``2`` — see
    :mod:`repro.engine.passes`); ``opt_window`` pins the ``-O2``
    fusion-window size (default: adaptive per lowered segment).
    """
    analyzer = Analyzer(n_processors, inputs=inputs, model=model,
                        machine=machine, backend=backend,
                        opt_level=opt_level, opt_window=opt_window,
                        block_variant=block_variant)
    return analyzer.run(source)


def lint_program(source: str, *, n_processors: int = 4,
                 inputs: Mapping[str, Any] | None = None,
                 opt_level: int = 0,
                 block_variant: BlockVariant = BlockVariant.HPF,
                 perf: bool = True):
    """Statically check a program text without executing it.

    Specification directives elaborate the scope (declarations and
    mappings are what the analyzer checks against); the execution part
    is lowered to IR and handed to :func:`repro.engine.analysis.analyze`
    with the directive line map, so findings carry source lines.
    Front-end failures (parse errors, invalid mappings) fold into the
    same vocabulary via
    :meth:`~repro.engine.diagnostics.Diagnostic.from_exception`.

    Returns ``(diagnostics, result)`` — ``result`` is the (unexecuted)
    :class:`ProgramResult`, or ``None`` when the front end failed.
    """
    from repro.engine.analysis import analyze
    from repro.engine.diagnostics import Diagnostic
    from repro.errors import ReproError

    analyzer = Analyzer(n_processors, inputs=inputs, model="paper",
                        opt_level=opt_level, block_variant=block_variant,
                        collect_only=True)
    try:
        result = analyzer.run(source)
    except ReproError as exc:
        return [Diagnostic.from_exception(exc)], None
    graph = result.graph
    if graph is None:
        from repro.engine.ir import ProgramGraph
        graph = ProgramGraph()
    diagnostics = analyze(analyzer.ds, graph, opt_level=opt_level,
                          lines=analyzer._node_lines, perf=perf)
    return diagnostics, result
