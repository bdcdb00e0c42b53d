"""The template translator: bytecode -> specialized Python source.

This is the VM's second execution tier.  When a method goes hot
(:meth:`JitCompiler.compile`), :func:`translate` turns the method's
pre-decoded ``ops``/``operands`` streams into one specialized Python
function (source generation + ``exec``): straight-line bytecode becomes
straight-line Python, Java locals become Python locals ``L0``, ``L1``,
..., operand-stack slots become Python locals ``s0``, ``s1``, ... (the
depth at every pc is statically known for verifiable code) unless the
value is forwarded (below), and basic blocks become arms of a
``while 1`` dispatch over a block index ``b``.  Translation is a host
decision, separate from the simulated JIT: a method the JIT may not
compile (``-Xint``, or the veto of a method-event agent) is translated
too, and its template sums the method's *active* cost array — the
interpreted costs — so it charges exactly what the dispatch loop would.

Accounting contract (the hard rule)
-----------------------------------

Simulated cycle accounting must be **bit-identical** to the dispatch
loop.  Charges happen with exactly the interpreter's flush boundaries:
INVOKE*, GETSTATIC/PUTSTATIC, NEW, LDC-of-string, RETURN*, and
exception dispatch all ``charge`` pending cycles / retire the
instruction count at the same points, with the same amounts, in the
same order (for exceptions: synthesize first, then flush — matching
the interpreter's ``_Throw`` handler).  Resolution work charges zero
cycles in the cost model, so binding quickened constants at translation
time cannot change any simulated number.

Between flushes the pending amount lives in two places: the run-time
locals ``p`` (cycles) and ``n`` (instructions), and a translation-time
constant ``(C, K)`` — the summed costs of the instructions emitted since
``p``/``n`` were last written.  Writing the constant into the locals (a
*spill*, ``p += C``/``n += K``) happens only where control leaves a
block: on a conditional branch's taken edge (inside the ``if``), at a
GOTO, and on fall-through into a block leader.  Everything else reads
the exact pending amount as an expression:

* throw and deopt sites hand the helpers ``p + C, n + K``;
* unconditional flushes charge ``thread.charge(p + C, CT)`` and retire
  ``n + K``.  After one, the pending amount is known to be zero until
  the next block arm, so later sites use the bare constants ``C, K``
  and nothing resets ``p``/``n`` (their stale values are never read;
  a spill from that state assigns instead of adding).  An activation
  starts the same way unless a branch targets pc 0;
* flushes on one side of a run-time test — a cold string LDC, a
  contended MONITORENTER under the scheduler, the backedge safepoint —
  spill first and zero ``p``/``n`` in place, so both sides agree.

Every block arm is entered with its whole pending amount in ``p``/``n``
(a spill, or the zeroing in the prologue / OSR stub).  Within a tier
the sequence of charges is fixed; across tiers it differs only where a
deopt or an OSR entry splits one interpreter charge into two with the
same sum and tag (see :mod:`repro.jvm.interpreter`).

Java locals and operand forwarding
----------------------------------

The prologue unpacks the locals into ``L0`` ... ``L{max_locals-1}``:
from ``frame.locals`` on a framed or OSR entry, from the argument list
on a frameless one (the rest start as ``None``, as ``Frame`` pads
them).  A method whose argument slots exceed ``max_locals`` is not
translated (bail-out ``args_exceed_locals``).  Only the slow-path
helpers read locals back, and they get the list ``[L0, ...]``: the
deopt helper always, the throw and raise helpers only at pcs an
exception-table entry covers (elsewhere no handler in the activation
can read them, so they get ``None``).

A pure operand — a local read, an int or ``None`` literal, a bound
constant ``F{pc}``/``S{pc}`` — is not assigned to its stack slot: the
emitter keeps it in a map from slot to expression and hands it to the
instruction that consumes it, so ``iload; iload; iadd`` emits one
addition of two locals.  Every operand read goes through one helper
(``opnd``).  The expression is written into its slot only where the
slot must hold the value: before a store or ``iinc`` to the local it
reads, and at every block exit (a taken branch, a GOTO, fall-through
into a block leader), since the next block reads ``s{i}``.  A call
needs no write — no callee can change this activation's Python
locals.  ALU instructions with a literal operand are specialized: only
the other operand's type is tested, ``iand`` with a non-negative mask
needs no int32 wrap, and a shift count is masked at translation.

Deoptimization
--------------

A site the template cannot execute — an opcode in ``exclude_ops``, or a
constant-pool site not yet quickened when the method was translated —
deoptimizes through :meth:`Interpreter._template_deopt`: the activation
gets a Frame at that pc with the current locals and the flattened stack
slots, the amount pending before that instruction is charged, the frame
is marked ``deopted``, the reason goes to
:meth:`JitCompiler.note_deopt`, and the dispatch loop resumes
interpreting the same activation at the same instruction (its cost not
yet accounted, so nothing is double-charged; the interpreter charges
the rest of the segment at its next flush, so the one charge the
interpreter alone would make arrives as two with the same sum and tag).
Cold constant-pool sites self-heal: the interpreter quickens the site
while finishing the activation, and later activations read the
quickened value at run time.  Exceptions raised *by* supported opcodes
never deoptimize — the template replicates the interpreter's throw
sequence (synthesize, then flush) and hands the exception to the
interpreter's handler search, so JVMTI MethodExit events and handler
resumption are identical.

Frameless calls and the outcome protocol
----------------------------------------

The template function is
``template(interp, thread, frame, osr_pc=-1, l=None)``.  It runs in one
of two modes:

* **framed** — :meth:`Interpreter._run` enters it with the activation's
  Frame (``osr_pc`` names a loop header for on-stack replacement).  It
  returns the Java result (``None`` for a void method) with accounting
  flushed and MethodExit fired, or the interpreter's ``_DEOPT`` sentinel
  after a deopt (frame reconstructed and marked).  A thrown exception
  syncs ``frame.pc``, flushes accounting and raises the interpreter's
  private ``_TemplateThrow``, which ``_run`` catches and dispatches.
* **frameless** — another template's INVOKE calls it directly with
  ``frame=None`` and the fresh argument list as ``l``.  No Frame is
  allocated or pushed; the call site keeps the depth check, the
  method's invocation count, the MethodEntry event and
  ``vm.template_entries`` exactly as ``_enter_bytecode_method`` and
  ``_run`` would, in the same order.  A Frame is built only when
  something reads one: a handler that must run in the activation, or a
  deopt; the interpreter helper then finishes the activation under
  ``_run``.  It returns the Java result, or raises :class:`Unwind` for
  an exception that escaped the activation (MethodExit fired), which
  the caller catches at its call site — the same ``except Unwind`` that
  covers natives and ``_run`` — and rethrows at its own pc.

A call takes the frameless path whenever the callee has a template.
Templates fire the JVMTI method events themselves: MethodEntry at a
frameless call site, MethodExit at a return, each when its flag is on.
Both flags and both dispatch methods are read from ``vm.jvmti`` at run
time, so a warm reset that replaces the host is seen.  Natives,
untranslated callees and everything under the race sanitizer — whose
stack capture walks ``thread.frames`` — take the generic
``_enter_bytecode_method`` + ``_run`` path.  With the sanitizer off
nothing reads ``frame.pc`` between slow paths, so flush sites do not
store it; the throw and deopt helpers receive the pc instead.

Per-VM and per-process caches
-----------------------------

Translation runs per VM: the source and the namespace it binds (``vm``,
``heap``, ``loader``, the quickened constants ``I/D/N/C/S/F/A/Q{pc}``,
``SP``, ``SAN``) are that VM's, and so is the resulting function, which
the per-VM :class:`~repro.jit.codecache.TemplateCodeCache` installs.
``compile()`` of the source runs once per process: the code object is
memoized on ``(source, filename)`` (:func:`_compile_template`, bounded
by ``_CODE_MEMO_SIZE``) and ``exec``'d into each VM's own namespace.
The source text carries everything else that can differ — cost
constants, cold vs quickened sites, hooks, pcs — so sharing the code
object cannot change what a template does.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Tuple

from repro.bytecode.flow import build_cfg
from repro.bytecode.opcodes import ArrayKind, Op, SPECS
from repro.classfile.constant_pool import CpMethodRef
from repro.errors import DeadlockError, NoSuchFieldError, VerifyError
from repro.jvm.costmodel import ChargeTag
from repro.jvm.interpreter import Unwind
from repro.jvm.values import JArray, wrap_int32

_NPE = "java.lang.NullPointerException"
_AIOOBE = "java.lang.ArrayIndexOutOfBoundsException"
_ARITH = "java.lang.ArithmeticException"
_CCE = "java.lang.ClassCastException"
_NASE = "java.lang.NegativeArraySizeException"
_IMSE = "java.lang.IllegalMonitorStateException"

_NOP = int(Op.NOP)
_ICONST = int(Op.ICONST)
_LDC = int(Op.LDC)
_ACONST_NULL = int(Op.ACONST_NULL)
_ILOAD = int(Op.ILOAD)
_ISTORE = int(Op.ISTORE)
_ALOAD = int(Op.ALOAD)
_ASTORE = int(Op.ASTORE)
_IINC = int(Op.IINC)
_POP = int(Op.POP)
_DUP = int(Op.DUP)
_DUP_X1 = int(Op.DUP_X1)
_SWAP = int(Op.SWAP)
_IADD = int(Op.IADD)
_ISUB = int(Op.ISUB)
_IMUL = int(Op.IMUL)
_IDIV = int(Op.IDIV)
_IREM = int(Op.IREM)
_INEG = int(Op.INEG)
_ISHL = int(Op.ISHL)
_ISHR = int(Op.ISHR)
_IUSHR = int(Op.IUSHR)
_IAND = int(Op.IAND)
_IOR = int(Op.IOR)
_IXOR = int(Op.IXOR)
_FDIV = int(Op.FDIV)
_I2F = int(Op.I2F)
_F2I = int(Op.F2I)
_FCMP = int(Op.FCMP)
_GOTO = int(Op.GOTO)
_NEW = int(Op.NEW)
_GETFIELD = int(Op.GETFIELD)
_PUTFIELD = int(Op.PUTFIELD)
_GETSTATIC = int(Op.GETSTATIC)
_PUTSTATIC = int(Op.PUTSTATIC)
_INSTANCEOF = int(Op.INSTANCEOF)
_CHECKCAST = int(Op.CHECKCAST)
_NEWARRAY = int(Op.NEWARRAY)
_IALOAD = int(Op.IALOAD)
_IASTORE = int(Op.IASTORE)
_AALOAD = int(Op.AALOAD)
_AASTORE = int(Op.AASTORE)
_ARRAYLENGTH = int(Op.ARRAYLENGTH)
_INVOKESTATIC = int(Op.INVOKESTATIC)
_INVOKEVIRTUAL = int(Op.INVOKEVIRTUAL)
_INVOKESPECIAL = int(Op.INVOKESPECIAL)
_RETURN = int(Op.RETURN)
_IRETURN = int(Op.IRETURN)
_ARETURN = int(Op.ARETURN)
_ATHROW = int(Op.ATHROW)
_MONITORENTER = int(Op.MONITORENTER)
_MONITOREXIT = int(Op.MONITOREXIT)

# conditional branches: condition template + pops
_COND = {
    int(Op.IFEQ): ("{a} == 0", 1),
    int(Op.IFNE): ("{a} != 0", 1),
    int(Op.IFLT): ("{a} < 0", 1),
    int(Op.IFLE): ("{a} <= 0", 1),
    int(Op.IFGT): ("{a} > 0", 1),
    int(Op.IFGE): ("{a} >= 0", 1),
    int(Op.IF_ICMPEQ): ("{a} == {b}", 2),
    int(Op.IF_ICMPNE): ("{a} != {b}", 2),
    int(Op.IF_ICMPLT): ("{a} < {b}", 2),
    int(Op.IF_ICMPLE): ("{a} <= {b}", 2),
    int(Op.IF_ICMPGT): ("{a} > {b}", 2),
    int(Op.IF_ICMPGE): ("{a} >= {b}", 2),
    int(Op.IFNULL): ("{a} is None", 1),
    int(Op.IFNONNULL): ("{a} is not None", 1),
    int(Op.IF_ACMPEQ): ("{a} is {b}", 2),
    int(Op.IF_ACMPNE): ("{a} is not {b}", 2),
}

# int32 overflow check + wrap of the temp ``_r`` (the interpreter's
# inlined fast path, verbatim)
_WRAP = ("if _r > 2147483647 or _r < -2147483648:",
         "    _r = (_r + 2147483648 & 4294967295) - 2147483648")

# binary ALU ops that wrap unconditionally (no int-type fast-path test)
_BIN_WRAP = {
    _IAND: "{a} & {b}",
    _IOR: "{a} | {b}",
    _IXOR: "{a} ^ {b}",
    _ISHL: "{a} << ({b} & 31)",
    _ISHR: "{a} >> ({b} & 31)",
}
_SHIFT = {_ISHL: "<<", _ISHR: ">>"}

# type-polymorphic arithmetic (int fast path with wrap, else host op)
_BIN_POLY = {_IADD: "+", _ISUB: "-", _IMUL: "*"}


#: Bound on :func:`_compile_template`'s memo, in distinct
#: ``(source, filename)`` pairs.  Tables I and II together compile 140,
#: so it only caps a process that translates an unbounded stream of
#: distinct methods.
_CODE_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=_CODE_MEMO_SIZE)
def _compile_template(source: str, filename: str):
    """``compile(source, filename, "exec")``, once per process.

    Code objects are immutable and everything one VM owns reaches the
    template through the namespace it is ``exec``'d into, so VMs whose
    hot method generated the same source share one code object.  The
    filename is part of the key: two methods with identical bodies keep
    their own code objects, and tracebacks name the right method.  It
    lives in this module so ``compile`` inherits this module's
    ``__future__`` flags.
    """
    return compile(source, filename, "exec")


class _Bail(Exception):
    """Translation abandoned; ``reason`` is the metrics key."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _literal(expr: str) -> Optional[int]:
    """The value of a forwarded int literal, or None for any other
    operand expression (a slot, a local, ``None``, a bound constant)."""
    return int(expr) if expr[0] == "-" or expr[0].isdigit() else None


def translate(method, vm, policy=None, exclude_ops=frozenset()
              ) -> Tuple[Optional[object], Optional[str], Optional[str]]:
    """Translate ``method`` into a template function.

    Returns ``(func, source, None)`` on success or ``(None, None,
    reason)`` on bail-out.  ``exclude_ops`` (ints) forces deopt sites
    for those opcodes — used by tests to exercise the deopt machinery.
    """
    try:
        func, source = _translate(method, vm, policy,
                                  frozenset(int(o) for o in exclude_ops))
        return func, source, None
    except _Bail as bail:
        return None, None, bail.reason
    except Exception as exc:  # never let translation break execution
        return None, None, f"error:{type(exc).__name__}"


def _translate(method, vm, policy, exclude_ops):
    info = method.info
    code = info.code
    if not code:
        raise _Bail("no_code")
    limit = policy.template_code_limit if policy is not None else 2000
    n_ins = len(code)
    if n_ins > limit:
        raise _Bail("too_long")
    n_locals = info.max_locals
    n_args = info.arg_slots
    if n_args > n_locals:
        # the interpreter keeps the extra arguments, but the prologue
        # unpacks exactly max_locals values
        raise _Bail("args_exceed_locals")
    ops = method.ops
    operands = method.operands
    costs = method.active_costs
    cp = method.owner.constant_pool

    # -- control flow and the operand-stack depth at every pc.  Only
    # blocks reachable from entry along normal edges are translated:
    # a frame resuming at a handler has a non-empty stack and pc != 0,
    # so the tier dispatch never hands handler-only code to the
    # template.
    try:
        cfg = build_cfg(code, info.exception_table)
        depth_at, effects, _ = cfg.stack_depths(cp)
    except VerifyError:
        raise _Bail("unverifiable")
    emitted = cfg.reachable_blocks(exceptions=False)

    # -- arms: entry plus the targets of the branches that end the
    # emitted blocks; loop headers are the backward targets
    targets = set()
    back_targets = set()
    for block in emitted:
        pc = block.end - 1
        if 0x50 <= ops[pc] <= 0x60:
            target = operands[pc]
            targets.add(target)
            if target <= pc:
                back_targets.add(target)
    leaders = sorted({0} | targets)
    bid = {pc: i for i, pc in enumerate(leaders)}
    # any branch target forces the dispatch-loop form — including a
    # lone target at pc 0 (a single-block loop), which the straight-line
    # form cannot express (`continue` needs the loop)
    multi = len(leaders) > 1 or bool(targets)

    # -- OSR entry points: every loop header gets an entry stub that
    # rebuilds the flattened stack slots from the live interpreter
    # frame and starts execution at the header's block (deopt frame
    # reconstruction run in reverse).  {header pc: stack depth} — the
    # interpreter matches the live frame's depth against this map
    # before entering.
    osr_map = {t: depth_at[t] for t in back_targets} \
        if (policy is None or policy.osr) else {}

    # -- pcs an exception-table entry covers: only a throw there can
    # reach a handler in this activation, so only there do the throw
    # helpers need the Java locals
    covered = [False] * n_ins
    for entry in info.exception_table:
        for pc in range(entry.start, entry.end):
            covered[pc] = True

    # -- source emission
    bindings = {
        "CT": ChargeTag.BYTECODE,
        "vm": vm,
        "heap": vm.heap,
        "loader": vm.loader,
        "MAXF": vm.cost_model.max_frames,
        "method": method,
        "JArray": JArray,
        "wrap_int32": wrap_int32,
        "NoSuchFieldError": NoSuchFieldError,
        "DeadlockError": DeadlockError,
        "Unwind": Unwind,
        "AK_INT": ArrayKind.INT,
        "_nan": math.nan,
        "_inf": math.inf,
        "_ninf": -math.inf,
        "_cs": math.copysign,
    }

    def bind(name, value):
        bindings[name] = value

    # the Java locals: unpacked from the frame (framed or OSR entry) or
    # from the caller's fresh argument list (frameless entry), padded
    # with None to max_locals as Frame.__init__ pads
    local_names = [f"L{i}" for i in range(n_locals)]
    locals_list = "[" + ", ".join(local_names) + "]"
    lines = ["def template(interp, thread, frame, osr_pc=-1, l=None):"]
    if n_locals:
        lines.append("    if l is None:")
        lines.append(f"        {', '.join(local_names)}, = frame.locals")
        lines.append("    else:")
        if n_args:
            lines.append(f"        {', '.join(local_names[:n_args])}, = l")
        if n_locals > n_args:
            lines.append(f"        {' = '.join(local_names[n_args:])} = None")
    # arms entered without a spill start from zero: the entry arm when
    # a branch also targets pc 0, and OSR-entered loop headers (when
    # nothing branches to pc 0, the entry arm starts known zero and
    # writes p/n before reading them)
    if 0 in targets:
        lines.append("    p = 0")
        lines.append("    n = 0")
    if multi:
        lines.append("    b = 0")
        if osr_map:
            # OSR entry stubs: rebuild s0..s{d-1} from the live frame's
            # operand stack and jump to the loop header's block.  Entry
            # is free on the simulated clock, exactly like a normal
            # template entry (the interpreter flushed at the backedge).
            lines.append("    if osr_pc != -1:")
            if 0 not in targets:
                lines.append("        p = 0")
                lines.append("        n = 0")
            lines.append("        _st = frame.stack")
            kw = "if"
            for t in sorted(osr_map):
                lines.append(f"        {kw} osr_pc == {t}:")
                for i in range(depth_at[t]):
                    lines.append(f"            s{i} = _st[{i}]")
                lines.append(f"            b = {bid[t]}")
                kw = "elif"
            lines.append("        frame.stack = []")
        lines.append("    while 1:")
    op_indent = "            " if multi else "    "

    def out(rel, text):
        lines.append(op_indent + "    " * rel + text)

    # Pending accounting at translation time: ``seg`` is the constant
    # (cycles, instructions) accumulated since the last spill or flush;
    # ``known_zero`` says nothing has been spilled into ``p``/``n``
    # since the activation began or last flushed, so the pending amount
    # is exactly ``seg`` and the run-time values of ``p``/``n`` are
    # stale (never read).
    seg = [0, 0]
    known_zero = [True]

    def acc(pc):
        seg[0] += costs[pc]
        seg[1] += 1

    def pending():
        """The exact pending (cycles, instructions), as expressions."""
        c, k = seg
        if known_zero[0]:
            return str(c), str(k)
        return (f"p + {c}" if c else "p"), (f"n + {k}" if k else "n")

    def spill(rel=0, edge=False):
        """Write the pending amount to ``p``/``n``.  ``edge=True`` is a
        spill on a taken branch edge: the fall-through path keeps
        accumulating, so the translation-time state is left as is."""
        c, k = seg
        if known_zero[0]:
            out(rel, f"p = {c}")
            out(rel, f"n = {k}")
        else:
            if c:
                out(rel, f"p += {c}")
            if k:
                out(rel, f"n += {k}")
        if not edge:
            seg[0] = seg[1] = 0
            known_zero[0] = False

    def flush(pc, rel=0, set_pc=True):
        # matches the interpreter: pending includes this op's cost
        # (>= 1), so the charge/retire are unconditional.  Only the
        # race sanitizer's stack capture reads frame.pc between slow
        # paths (which are handed the pc), so only it gets the store.
        if set_pc and san_on:
            out(rel, f"frame.pc = {pc}")
        cycles, icount = pending()
        out(rel, f"thread.charge({cycles}, CT)")
        out(rel, f"vm.instructions_retired += {icount}")
        seg[0] = seg[1] = 0
        known_zero[0] = True

    def flush_spilled(pc, rel):
        """A flush on one side of a run-time branch (cold string LDC,
        contended MONITORENTER, backedge safepoint): the caller spilled
        first, and ``p``/``n`` are zeroed so both sides agree after."""
        if san_on:
            out(rel, f"frame.pc = {pc}")
        out(rel, "thread.charge(p, CT)")
        out(rel, "p = 0")
        out(rel, "vm.instructions_retired += n")
        out(rel, "n = 0")

    # Operand forwarding: stack slot -> the pure expression the slot
    # holds instead of ``s{slot}`` (``Lk``, an int or None literal, a
    # bound constant).  Keys are always below the current depth.
    fwd = {}

    def opnd(i):
        """Stack slot ``i`` as an operand expression."""
        return fwd.get(i) or f"s{i}"

    def ref(i):
        """Stack slot ``i`` as a reference operand, tested with ``is``.
        An int literal there is unverifiable code (and ``5 is None``
        draws a SyntaxWarning from ``compile``)."""
        expr = opnd(i)
        if _literal(expr) is not None:
            raise _Bail("int_as_reference")
        return expr

    def pin_local(name):
        """Before a store or iinc to local ``name``: slots forwarding it
        take its current value."""
        for i in sorted(fwd):
            if fwd[i] == name:
                out(0, f"s{i} = {name}")
                del fwd[i]

    def pin_all(rel=0, live=None):
        """A block exit: the next block reads slots as ``s{i}``.  On a
        taken branch only the slots below ``live`` survive, and the
        fall-through keeps its forwards."""
        for i in sorted(fwd):
            if live is None or i < live:
                out(rel, f"s{i} = {fwd[i]}")
        if live is None:
            fwd.clear()

    def handler_locals(pc):
        return locals_list if covered[pc] else "None"

    def deopt(pc, d, reason, rel=0):
        slots = ", ".join(opnd(i) for i in range(d))
        cycles, icount = pending()
        out(rel, f"return interp._template_deopt(thread, frame, method, "
                 f"{locals_list}, {pc}, [{slots}], {cycles}, {icount}, "
                 f"{reason!r})")

    def throw(pc, cls, msg_expr, rel=0):
        cycles, icount = pending()
        out(rel, f"return interp._template_throw(thread, frame, method, "
                 f"{handler_locals(pc)}, {pc}, {cls!r}, {msg_expr}, "
                 f"{cycles}, {icount})")

    def raise_exc(pc, exc_expr, rel=0):
        """Throw ``exc_expr`` at ``pc``: an ATHROW, or an exception that
        escaped a call made at ``pc``."""
        cycles, icount = pending()
        out(rel, f"return interp._template_raise(thread, frame, method, "
                 f"{handler_locals(pc)}, {pc}, {exc_expr}, {cycles}, "
                 f"{icount})")

    def cold_guard(pc, d):
        """Cold constant-pool site: deopt until the interpreter has
        quickened it, then read the quickened value at run time."""
        bind(f"I{pc}", code[pc])
        out(0, f"_q = I{pc}.quick")
        out(0, "if _q is None:")
        deopt(pc, d, "cold_site", rel=1)
        acc(pc)

    def wrap_into(rel, dest):
        """Wrap ``_r`` to int32 and store it in ``dest``."""
        out(rel, _WRAP[0])
        out(rel, _WRAP[1])
        out(rel, f"{dest} = _r")

    def no_such_field(rel, obj, name):
        out(rel, f'raise NoSuchFieldError(f"{{{obj}!r}} has no field '
                 f'{name}")')

    # preemptive scheduler (cores > 1): emit safepoint checks at
    # backedges and call boundaries.  Gated at translation time — at
    # cores=1 the emitted source carries no scheduler code at all.
    sched_on = vm.scheduler is not None
    if sched_on:
        bind("SP", vm.scheduler)

    # race sanitizer: emit the same shadow hooks the interpreter runs,
    # at the same points.  Gated at translation time — with --sanitize
    # off the emitted source carries no sanitizer code, and the hooks
    # are host-side only (no charge, no retire), so simulated cycle
    # accounting is untouched either way.  Its stack capture walks
    # thread.frames, so under it every call keeps its Frame.
    san_on = vm.sanitizer is not None
    if san_on:
        bind("SAN", vm.sanitizer)

    def safepoint_backedge(target, rel):
        """Quantum check at a taken backward branch (pending charges
        still in ``p``, exactly the interpreter's check)."""
        out(rel, "if thread.cycles_total + p >= thread.preempt_at:")
        flush_spilled(target, rel + 1)
        out(rel + 1, "SP.preempt(thread)")

    def branch(pc, cond, target, live):
        """A conditional branch at ``pc``: forwarded slots below
        ``live`` and the pending amount are written on the taken edge
        only; the fall-through keeps both."""
        out(0, f"if {cond}:")
        pin_all(rel=1, live=live)
        spill(rel=1, edge=True)
        if sched_on and target <= pc:
            safepoint_backedge(target, rel=1)
        out(1, f"b = {bid[target]}")
        out(1, "continue")

    def emit_op(pc, op, d):
        """Emit one instruction; returns True when it falls through."""
        ins = code[pc]

        if op in exclude_ops:
            # the code after the deopt is emitted but never runs
            spec = SPECS[Op(op)]
            deopt(pc, d, f"unsupported_op:{spec.mnemonic}")
            consumed(pc, d)
            return not spec.ends_block

        if op == _ILOAD or op == _ALOAD:
            acc(pc)
            fwd[d] = f"L{operands[pc]}"
        elif op == _ICONST:
            acc(pc)
            fwd[d] = repr(operands[pc])
        elif op == _ISTORE or op == _ASTORE:
            acc(pc)
            name = f"L{operands[pc]}"
            value = opnd(d - 1)
            if value != name:  # storing Lk's own value is a no-op
                pin_local(name)
                out(0, f"{name} = {value}")
        elif op == _ACONST_NULL:
            acc(pc)
            fwd[d] = "None"
        elif op == _NOP or op == _POP:
            acc(pc)
        elif op == _IINC:
            acc(pc)
            idx, delta = operands[pc]
            name = f"L{idx}"
            pin_local(name)
            out(0, f"_r = {name} + {delta}")
            out(0, "if type(_r) is int:")
            wrap_into(1, name)
            out(0, "else:")
            out(1, f"{name} = wrap_int32(_r)")
        elif op == _DUP:
            acc(pc)
            if d - 1 in fwd:
                fwd[d] = fwd[d - 1]
                return True  # both slots forward the same expression
            out(0, f"s{d} = s{d - 1}")
        elif op == _DUP_X1:
            acc(pc)
            a, b = opnd(d - 2), opnd(d - 1)
            out(0, f"s{d - 2}, s{d - 1}, s{d} = {b}, {a}, {b}")
        elif op == _SWAP:
            acc(pc)
            a, b = opnd(d - 2), opnd(d - 1)
            out(0, f"s{d - 2}, s{d - 1} = {b}, {a}")
        elif op in _BIN_POLY:
            acc(pc)
            a, b = opnd(d - 2), opnd(d - 1)
            expr = f"{a} {_BIN_POLY[op]} {b}"
            # a literal operand is an int: test only the other one
            if _literal(b) is not None:
                out(0, f"if type({a}) is int:")
            elif _literal(a) is not None:
                out(0, f"if type({b}) is int:")
            else:
                out(0, f"if type({b}) is int and type({a}) is int:")
            out(1, f"_r = {expr}")
            wrap_into(1, f"s{d - 2}")
            out(0, "else:")
            out(1, f"s{d - 2} = {expr}")
        elif op in _BIN_WRAP:
            acc(pc)
            a, b = opnd(d - 2), opnd(d - 1)
            la, lb = _literal(a), _literal(b)
            if op == _IAND and ((lb is not None and lb >= 0)
                                or (la is not None and la >= 0)):
                # a non-negative int32 mask bounds the result: no wrap
                out(0, f"s{d - 2} = {a} & {b}")
            else:
                if op in _SHIFT and lb is not None:
                    out(0, f"_r = {a} {_SHIFT[op]} {lb & 31}")
                else:
                    out(0, "_r = " + _BIN_WRAP[op].format(a=a, b=b))
                wrap_into(0, f"s{d - 2}")
        elif op == _IUSHR:
            acc(pc)
            a, b = opnd(d - 2), opnd(d - 1)
            lb = _literal(b)
            if lb is not None and lb & 31:
                # shifting a 32-bit value right by 1..31 stays below 2**31
                out(0, f"s{d - 2} = ({a} & 4294967295) >> {lb & 31}")
            else:
                count = lb & 31 if lb is not None else f"({b} & 31)"
                out(0, f"_r = ({a} & 4294967295) >> {count}")
                out(0, "if _r > 2147483647:")
                out(1, "_r -= 4294967296")
                out(0, f"s{d - 2} = _r")
        elif op == _INEG:
            acc(pc)
            v = opnd(d - 1)
            out(0, f"if type({v}) is int:")
            out(1, f"_r = -{v}")
            wrap_into(1, f"s{d - 1}")
            out(0, "else:")
            out(1, f"s{d - 1} = -{v}")
        elif op == _I2F:
            acc(pc)
            out(0, f"s{d - 1} = float({opnd(d - 1)})")
        elif op == _F2I:
            acc(pc)
            out(0, f"_r = int({opnd(d - 1)})")
            wrap_into(0, f"s{d - 1}")
        elif op == _FCMP:
            acc(pc)
            a, b = opnd(d - 2), opnd(d - 1)
            out(0, f"s{d - 2} = -1 if {a} < {b} else "
                   f"(1 if {a} > {b} else 0)")
        elif op == _FDIV:
            acc(pc)
            a, b = opnd(d - 2), opnd(d - 1)
            out(0, f"if {b} == 0:")
            out(1, f"if {a} == 0:")
            out(2, f"s{d - 2} = _nan")
            out(1, "else:")
            out(2, f"_r = _cs(1.0, float({a})) * _cs(1.0, float({b}))")
            out(2, f"s{d - 2} = _inf if _r > 0 else _ninf")
            out(0, "else:")
            out(1, f"s{d - 2} = {a} / {b}")
        elif op == _IDIV or op == _IREM:
            acc(pc)
            a, b = opnd(d - 2), opnd(d - 1)
            lb = _literal(b)
            host = "/" if op == _IDIV else "%"
            if lb:
                # a non-zero literal divisor: no zero test, sign known
                out(0, f"if type({a}) is int:")
                out(1, f"_t = abs({a}) // {abs(lb)}")
                out(1, f"if {a} {'<' if lb > 0 else '>='} 0:")
            else:
                out(0, f"if type({a}) is int and type({b}) is int:")
                out(1, f"if {b} == 0:")
                throw(pc, _ARITH, "'/ by zero'", rel=2)
                out(1, f"_t = abs({a}) // abs({b})")
                out(1, f"if ({a} < 0) != ({b} < 0):")
            out(2, "_t = -_t")
            out(1, "_r = _t" if op == _IDIV else f"_r = {a} - _t * {b}")
            wrap_into(1, f"s{d - 2}")
            out(0, "else:")
            if not lb:
                out(1, f"if {b} == 0:")
                throw(pc, _ARITH, "'/ by zero'", rel=2)
            out(1, f"s{d - 2} = {a} {host} {b}")
        elif op == _GOTO:
            acc(pc)
            pin_all()
            spill()
            if sched_on and operands[pc] <= pc:
                safepoint_backedge(operands[pc], rel=0)
            out(0, f"b = {bid[operands[pc]]}")
            out(0, "continue")
            return False
        elif op in _COND:
            acc(pc)
            tmpl, pops = _COND[op]
            read = ref if " is " in tmpl else opnd
            if pops == 1:
                cond = tmpl.format(a=read(d - 1))
            else:
                cond = tmpl.format(a=read(d - 2), b=read(d - 1))
            branch(pc, cond, operands[pc], d - pops)
        elif op == _GETFIELD:
            q = ins.quick
            if q is not None:
                acc(pc)
                key, label, msg = repr(q), q, repr(f"getfield {q}")
            else:
                cold_guard(pc, d)
                key, label, msg = "_q", "{_q}", "'getfield ' + _q"
            o = ref(d - 1)
            if san_on:  # the hook reads the object after the slot
                out(0, f"_o = {o}")
                o = "_o"
            out(0, f"if {o} is None:")
            throw(pc, _NPE, msg, rel=1)
            out(0, "try:")
            out(1, f"s{d - 1} = {o}.fields[{key}]")
            out(0, "except (KeyError, AttributeError):")
            no_such_field(1, o, label)
            if san_on:
                out(0, f"frame.pc = {pc}")
                out(0, f"SAN.read_field(thread, _o, {key})")
        elif op == _PUTFIELD:
            q = ins.quick
            if q is not None:
                acc(pc)
                key, label, msg = repr(q), q, repr(f"putfield {q}")
            else:
                cold_guard(pc, d)
                key, label, msg = "_q", "{_q}", "'putfield ' + _q"
            v, o = opnd(d - 1), ref(d - 2)
            out(0, f"if {o} is None:")
            throw(pc, _NPE, msg, rel=1)
            out(0, f"if {key} not in {o}.fields:")
            no_such_field(1, o, label)
            out(0, f"{o}.fields[{key}] = {v}")
            if san_on:
                out(0, f"frame.pc = {pc}")
                out(0, f"SAN.write_field(thread, {o}, {key})")
        elif op == _GETSTATIC or op == _PUTSTATIC:
            q = ins.quick
            if q is not None:
                bind(f"D{pc}", q[0].statics)
                bind(f"N{pc}", q[1])
                if san_on:
                    bind(f"H{pc}", q[0])
                acc(pc)
                flush(pc)
                slot, holder, field = f"D{pc}[N{pc}]", f"H{pc}", f"N{pc}"
            else:
                cold_guard(pc, d)
                flush(pc)
                slot, holder, field = "_q[0].statics[_q[1]]", "_q[0]", \
                    "_q[1]"
            if op == _GETSTATIC:
                out(0, f"s{d} = {slot}")
                if san_on:
                    out(0, f"SAN.read_static(thread, {holder}, {field})")
            else:
                out(0, f"{slot} = {opnd(d - 1)}")
                if san_on:
                    out(0, f"SAN.write_static(thread, {holder}, {field})")
        elif op == _NEW:
            q = ins.quick
            if q is not None:
                bind(f"C{pc}", q)
                acc(pc)
                flush(pc)
                out(0, f"s{d} = heap.alloc_object(C{pc})")
            else:
                cold_guard(pc, d)
                flush(pc)
                out(0, f"s{d} = heap.alloc_object(_q)")
        elif op == _LDC:
            q = ins.quick
            if q is not None:
                acc(pc)
                if q[0]:  # string: interning was a VM boundary
                    bind(f"S{pc}", q[1])
                    flush(pc)
                    fwd[d] = f"S{pc}"
                else:
                    bind(f"F{pc}", q[1])
                    fwd[d] = f"F{pc}"
            else:
                cold_guard(pc, d)
                spill()
                out(0, "if _q[0]:")
                flush_spilled(pc, rel=1)
                out(0, f"s{d} = _q[1]")
        elif op == _INSTANCEOF:
            q = ins.quick
            if q is not None:
                acc(pc)
                key = repr(q)
                array = str(1 if q == "java.lang.Object" else 0)
            else:
                cold_guard(pc, d)
                key = "_q"
                array = "1 if _q == 'java.lang.Object' else 0"
            o = ref(d - 1)
            out(0, f"if {o} is None:")
            out(1, f"s{d - 1} = 0")
            out(0, f"elif isinstance({o}, JArray):")
            out(1, f"s{d - 1} = {array}")
            out(0, "else:")
            out(1, f"s{d - 1} = 1 if {o}.jclass.is_subclass_of({key}) "
                   "else 0")
        elif op == _CHECKCAST:
            q = ins.quick
            o = ref(d - 1)
            if q is not None:
                acc(pc)
                key, msg = repr(q), f"{o}.class_name + {' -> ' + q!r}"
            else:
                cold_guard(pc, d)
                key, msg = "_q", f"{o}.class_name + ' -> ' + _q"
            out(0, f"if {o} is not None and not isinstance({o}, JArray) "
                   f"and not {o}.jclass.is_subclass_of({key}):")
            throw(pc, _CCE, msg, rel=1)
            return True  # the slot keeps its value, and its forward
        elif op == _NEWARRAY:
            acc(pc)
            bind(f"A{pc}", operands[pc])
            v = opnd(d - 1)
            out(0, f"if {v} < 0:")
            throw(pc, _NASE, f"str({v})", rel=1)
            out(0, f"s{d - 1} = heap.alloc_array(A{pc}, {v})")
        elif op == _IALOAD or op == _AALOAD:
            acc(pc)
            i, arr = opnd(d - 1), ref(d - 2)
            out(0, f"if {arr} is None:")
            throw(pc, _NPE, "'array load'", rel=1)
            out(0, f"_dt = {arr}.data")
            out(0, f"if {i} < 0 or {i} >= len(_dt):")
            throw(pc, _AIOOBE, f"str({i})", rel=1)
            out(0, f"s{d - 2} = _dt[{i}]")
        elif op == _IASTORE or op == _AASTORE:
            acc(pc)
            v, i, arr = opnd(d - 1), opnd(d - 2), ref(d - 3)
            out(0, f"if {arr} is None:")
            throw(pc, _NPE, "'array store'", rel=1)
            out(0, f"_dt = {arr}.data")
            out(0, f"if {i} < 0 or {i} >= len(_dt):")
            throw(pc, _AIOOBE, f"str({i})", rel=1)
            out(0, f"if {arr}.kind is AK_INT and type({v}) is int "
                   f"and -2147483648 <= {v} <= 2147483647:")
            out(1, f"_dt[{i}] = {v}")
            out(0, "else:")
            out(1, f"_dt[{i}] = {arr}.normalize({v})")
        elif op == _ARRAYLENGTH:
            acc(pc)
            arr = ref(d - 1)
            out(0, f"if {arr} is None:")
            throw(pc, _NPE, "'arraylength'", rel=1)
            out(0, f"s{d - 1} = len({arr}.data)")
        elif op == _MONITORENTER:
            acc(pc)
            if sched_on:
                spill()  # the contended path below flushes
            out(0, f"_o = {opnd(d - 1)}")
            out(0, "if _o is None:")
            throw(pc, _NPE, "'monitorenter'", rel=1)
            out(0, "if _o.monitor_owner is None or "
                   "_o.monitor_owner is thread:")
            out(1, "_o.monitor_owner = thread")
            out(1, "_o.monitor_count += 1")
            if san_on:
                out(1, "SAN.on_acquire(thread, _o)")
            out(0, "else:")
            if sched_on:
                # contended: flush (the thread parks mid-opcode) and
                # block until ownership is handed over
                flush_spilled(pc, rel=1)
                out(1, "SP.acquire_contended(thread, _o)")
            else:
                out(1, "raise interp._sequential_monitor_deadlock("
                       "thread, _o)")
        elif op == _MONITOREXIT:
            acc(pc)
            out(0, f"_o = {opnd(d - 1)}")
            out(0, "if _o is None:")
            throw(pc, _NPE, "'monitorexit'", rel=1)
            out(0, "if _o.monitor_owner is not thread or "
                   "_o.monitor_count <= 0:")
            throw(pc, _IMSE, "'not monitor owner'", rel=1)
            out(0, "_o.monitor_count -= 1")
            out(0, "if _o.monitor_count == 0:")
            out(1, "_o.monitor_owner = None")
            if san_on:
                out(1, "SAN.on_release(thread, _o)")
            if sched_on:
                out(1, "if _o.monitor_waiters:")
                out(2, "SP.release_monitor(thread, _o)")
        elif 0x93 <= op <= 0x95:  # RETURN / IRETURN / ARETURN
            acc(pc)
            flush(pc, set_pc=False)
            # the flag is read at run time (agents can toggle events
            # mid-run, a warm reset replaces the host)
            out(0, "if vm.jvmti.method_exit_enabled:")
            out(1, "vm.jvmti.dispatch_method_exit(thread, method, False)")
            out(0, "return" if op == _RETURN else f"return {opnd(d - 1)}")
            return False
        elif op == _ATHROW:
            acc(pc)
            e = ref(d - 1)
            out(0, f"if {e} is None:")
            throw(pc, _NPE, "'throw null'", rel=1)
            raise_exc(pc, e)
            return False
        elif 0x90 <= op <= 0x92:  # INVOKE family
            np, rv = effects[pc]
            q = ins.quick
            if q is None:
                cold_guard(pc, d)
                qref = "_q"
            else:
                bind(f"Q{pc}", q)
                qref = f"Q{pc}"
                acc(pc)
            flush(pc)
            if sched_on:
                out(0, "if thread.cycles_total >= thread.preempt_at:")
                out(1, "SP.preempt(thread)")
            args = [opnd(i) for i in range(d - np, d)]
            out(0, f"_a = [{', '.join(args)}]")
            if op != _INVOKESTATIC:
                recv = ref(d - np)
                mref = cp.get_typed(operands[pc], CpMethodRef)
                out(0, f"if {recv} is None:")
                throw(pc, _NPE, repr(f"invoke {mref.method_name} on null"),
                      rel=1)
            if op == _INVOKEVIRTUAL:
                out(0, f"_rc = getattr({recv}, 'jclass', None)")
                out(0, "if _rc is None:")
                out(1, "_rc = loader.load('java.lang.Object')")
                out(0, f"if _rc is {qref}[4]:")
                out(1, f"_m = {qref}[5]")
                out(1, "vm.ic_hits += 1")
                out(0, "else:")
                # PIC slow path: shared with the interpreter so cache
                # state and counters evolve identically across tiers
                out(1, f"_m = interp._pic_miss({qref}, _rc)")
            else:
                out(0, f"_m = {qref}[0]")
            result = f"s{d - np} = " if rv else ""
            if san_on:
                out(0, "try:")
                out(1, "if _m.is_native:")
            else:
                # frameless template-to-template call: everything
                # _enter_bytecode_method and _run's tier dispatch do,
                # in the same order, minus the Frame (a templated
                # callee is hot, so there is no hotness check)
                out(0, "_t = _m.template")
                out(0, "if _t is not None:")
                out(1, "if len(thread.frames) + thread.frameless >= MAXF:")
                out(2, "interp._stack_overflow(_m)")
                out(1, "_m.invocation_count += 1")
                out(1, "if vm.jvmti.method_entry_enabled:")
                out(2, "vm.jvmti.dispatch_method_entry(thread, _m)")
                out(1, "vm.template_entries += 1")
                out(1, "thread.frameless += 1")
                out(0, "try:")
                out(1, "if _t is not None:")
                out(2, f"{result}_t(interp, thread, None, -1, _a)")
                out(2, "thread.frameless -= 1")
                out(1, "elif _m.is_native:")
            out(2, f"{result}interp._invoke_native(thread, _m, _a)")
            out(1, "else:")
            out(2, "interp._enter_bytecode_method(thread, _m, _a)")
            out(2, f"{result}interp._run(thread, len(thread.frames) - 1)")
            out(0, "except Unwind as _u:")
            if not san_on:
                out(1, "if _t is not None:")
                out(2, "thread.frameless -= 1")
            raise_exc(pc, "_u.jobject", rel=1)
        else:  # pragma: no cover - every Op has an emitter above
            raise _Bail(f"unsupported_op:0x{op:02x}")
        consumed(pc, d)
        return True

    def consumed(pc, d):
        """The consumed slots' forwards die with them."""
        for i in range(d - effects[pc][0], d):
            fwd.pop(i, None)

    fallthrough = False
    first_arm = True
    for pc in (pc for block in emitted for pc in block.pcs):
        d = depth_at[pc]
        if multi and pc in bid:
            if fallthrough:
                pin_all()
                spill()
                out(0, f"b = {bid[pc]}")
                out(0, "continue")
            kw = "if" if first_arm else "elif"
            lines.append(f"        {kw} b == {bid[pc]}:")
            first_arm = False
            # every way into an arm (a spill, or the OSR/entry zeroing)
            # leaves the whole pending amount in p/n; only the entry
            # arm, when nothing branches to it, starts known zero
            seg[0] = seg[1] = 0
            known_zero[0] = pc == 0 and 0 not in targets
            fwd.clear()  # every way in left the stack in s0..s{d-1}
        elif pc != 0 and not fallthrough:
            raise _Bail("emit_inconsistent")
        fallthrough = emit_op(pc, ops[pc], d)

    source = "\n".join(lines) + "\n"
    code_obj = _compile_template(source,
                                 f"<template:{method.qualified_name}>")
    namespace = dict(bindings)
    exec(code_obj, namespace)
    func = namespace["template"]
    # published for the code cache (OSR eligibility); translate()'s
    # return shape is unchanged so monkeypatching tests keep working
    func.osr_map = osr_map
    return func, source
