"""The bytecode interpreter.

Execution model
---------------

Each thread owns an explicit frame stack; :meth:`Interpreter.call_method`
pushes a frame and drives the inner loop until the stack returns to its
entry depth, so interpreted Java-to-Java calls never consume Python
stack.  The loop re-enters Python recursion at native boundaries — a
``native`` method runs as a host callable, and if that callable invokes
Java code through a JNI ``Call*Method*`` function, a nested
:meth:`call_method` runs on the same thread's frame stack — and in the
template tier (:mod:`repro.jit.template`), whose activations are Python
calls.  A template calling another template passes its arguments
directly and pushes no Frame; such *frameless* activations are counted
in ``thread.frameless`` (the depth limit covers both kinds), and the
``_template_*`` helpers below give one a Frame only when a handler must
run in it or it deoptimizes.  So ``thread.frames`` lists every
interpreted activation but not every templated one; the race sanitizer,
which walks it, keeps every call framed.  A method runs as a template
once it is hot (``LoadedMethod.hot``), whether or not the simulated JIT
compiled it, and templates fire the JVMTI method events themselves; so
hot methods leave this loop even under a method-event agent, which
vetoes the JIT.

Host-speed engineering (accounting-invariant)
---------------------------------------------

The dispatch loop is written for host throughput, under one hard rule:
**wall-clock optimizations must leave simulated cycle accounting
bit-identical.**  Concretely:

* The loop dispatches over pre-decoded per-method opcode/operand tuples
  (:class:`~repro.jvm.classloader.LoadedMethod` ``ops``/``operands``)
  with plain-int comparisons ordered by measured dynamic frequency, and
  keeps all loop state in function locals (no closures, so no cell
  variables on the hot path).
* Constant-pool operands are **quickened**: the first execution of a
  ``GETFIELD``/``PUTFIELD``/``GETSTATIC``/``PUTSTATIC``/``INVOKE*``/
  ``NEW``/``LDC``/``CHECKCAST``/``INSTANCEOF`` site resolves through the
  constant pool, class loader, and method tables, then parks the result
  on the instruction (``Instruction.quick``); later executions reuse it.
  ``INVOKEVIRTUAL`` additionally keeps a polymorphic inline cache keyed
  by receiver class (identity fast path on the first entry, up to
  ``JitPolicy.pic_depth`` entries, megamorphic fallback to the class's
  memoized method table — see :meth:`Interpreter._pic_miss`).  Classes
  are immutable after link, so no invalidation is ever needed.
* Resolution work (pool lookups, ``loader.load`` of already-loaded
  classes, method-table walks) charges **zero** simulated cycles in the
  cost model, so skipping it on cache hits cannot change any simulated
  number.  Every ``flush()`` boundary of the original interpreter is
  preserved verbatim — including on cache hits — so the *sequence* of
  ``thread.charge`` calls (observable by host-side samplers) is
  unchanged, not just the totals.

Across execution tiers the sequence is the same with one exception:
where an activation changes tier mid-segment.  A template that
deoptimizes charges the cycles pending *before* the deopting
instruction, and this loop then charges the rest of the segment at its
next flush, so one charge becomes two with the same sum and tag (at
scale 1 with OSR off, at a cold INVOKE: jess 18 -> 4 + 14, mtrt
37 -> 23 + 14).  OSR entry does the same in the other direction: the
backedge flushes what the loop had pending before the template takes
over.  Totals, per-tag cycles and every flush point are unchanged.

Cycle accounting
----------------

Per-instruction costs come from the executing method's *active* cost
array (interpreted or compiled — the JIT swaps it).  Costs accumulate in
a loop-local counter and are flushed to the thread — tagged
``BYTECODE`` — at every boundary where simulated time becomes
observable: method entry/exit, native calls, JVMTI event dispatch, and
exception dispatch.  This guarantees that any PCL timestamp read inside
an agent callback or native function sees an up-to-date counter.

Exceptions
----------

Java exceptions unwind frame by frame, honouring exception tables and
firing ``MethodExit`` events for every popped frame (the JVMTI contract
the paper's SPA depends on).  An exception that unwinds past the entry
depth of a :meth:`call_method` activation is surfaced to the host caller
as an :class:`Unwind`; at the thread's top level the machine records it
as the thread's uncaught exception.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.bytecode.opcodes import ArrayKind, Op
from repro.classfile.constant_pool import (
    CpClass,
    CpFieldRef,
    CpFloat,
    CpInt,
    CpMethodRef,
    CpString,
)
from repro.errors import (
    DeadlockError,
    NoSuchFieldError,
    NoSuchMethodError,
    StackOverflowSimError,
    VMError,
)
from repro.jvm.costmodel import ChargeTag
from repro.jvm.frame import Frame
from repro.jvm.values import NULL, JArray, JObject, wrap_int32

_THROWABLE = "java.lang.Throwable"
_NPE = "java.lang.NullPointerException"
_AIOOBE = "java.lang.ArrayIndexOutOfBoundsException"
_ARITH = "java.lang.ArithmeticException"
_CCE = "java.lang.ClassCastException"
_NASE = "java.lang.NegativeArraySizeException"
_IMSE = "java.lang.IllegalMonitorStateException"

# Opcodes as plain ints: int equality against a local is the cheapest
# comparison the dispatch loop can make (enum attribute access would be
# a global + attribute load per test).
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
_IFEQ = int(Op.IFEQ)
_IFNE = int(Op.IFNE)
_IFLT = int(Op.IFLT)
_IFLE = int(Op.IFLE)
_IFGT = int(Op.IFGT)
_IFGE = int(Op.IFGE)
_IF_ICMPEQ = int(Op.IF_ICMPEQ)
_IF_ICMPNE = int(Op.IF_ICMPNE)
_IF_ICMPLT = int(Op.IF_ICMPLT)
_IF_ICMPLE = int(Op.IF_ICMPLE)
_IF_ICMPGT = int(Op.IF_ICMPGT)
_IF_ICMPGE = int(Op.IF_ICMPGE)
_IFNULL = int(Op.IFNULL)
_IFNONNULL = int(Op.IFNONNULL)
_IF_ACMPEQ = int(Op.IF_ACMPEQ)
_IF_ACMPNE = int(Op.IF_ACMPNE)
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

_INT_MAX = 2147483647
_INT_MIN_ = -2147483648
_U32 = 4294967295
_BIAS = 2147483648

#: What a framed template returns when it deoptimized (see
#: repro.jit.template); any other return value is the method's result.
_DEOPT = (1,)


class Unwind(Exception):
    """A Java exception crossing a host (native/JNI) boundary."""

    def __init__(self, jobject):
        super().__init__(getattr(jobject, "class_name", "<exception>"))
        self.jobject = jobject


class _Throw(Exception):
    """Internal signal: a handler raised a Java exception.

    ``exc_obj`` carries an existing throwable (ATHROW, native Unwind);
    when it is None the dispatcher synthesizes ``class_name`` with
    ``message`` — exactly what ``throw_vm`` did in the closure-based
    loop, but without forcing the hot path's locals into cells.
    """

    __slots__ = ("exc_obj", "class_name", "message")

    def __init__(self, exc_obj, class_name=None, message=""):
        self.exc_obj = exc_obj
        self.class_name = class_name
        self.message = message


class _TemplateThrow(Exception):
    """A framed template activation threw ``exc_obj`` (``frame.pc``
    synced, accounting flushed); the caller dispatches it."""

    __slots__ = ("exc_obj",)

    def __init__(self, exc_obj):
        self.exc_obj = exc_obj


class Interpreter:
    """Executes bytecode for one :class:`~repro.jvm.machine.JavaVM`."""

    def __init__(self, vm):
        self._vm = vm

    # -- public entry points -----------------------------------------------------

    def call_method(self, thread, method, args: List):
        """Invoke ``method`` with ``args`` on ``thread``; return its result.

        Fires the same events a bytecode-level invocation would.  Raises
        :class:`Unwind` if a Java exception escapes the call.
        """
        if method.is_native:
            return self._invoke_native(thread, method, args)
        self._enter_bytecode_method(thread, method, args)
        return self._run(thread, len(thread.frames) - 1)

    def synthesize_exception(self, thread, class_name: str,
                             message: str = "") -> JObject:
        """Allocate a VM-synthesized exception object (no constructor)."""
        vm = self._vm
        cls = vm.loader.load(class_name)
        obj = vm.heap.alloc_object(cls)
        if message:
            obj.fields["message"] = vm.intern_string(message)
        return obj

    def throw(self, thread, class_name: str, message: str = ""):
        """Raise a Java exception from host code (native implementations)."""
        raise Unwind(self.synthesize_exception(thread, class_name, message))

    # -- method entry/exit helpers ----------------------------------------------

    def _enter_bytecode_method(self, thread, method, args: List) -> None:
        vm = self._vm
        if len(thread.frames) + thread.frameless >= \
                vm.cost_model.max_frames:
            self._stack_overflow(method)
        method.invocation_count += 1
        if not method.hot and \
                method.invocation_count >= vm.jit.policy.invoke_threshold:
            vm.jit.compile(thread, method)
        if vm.jvmti.method_entry_enabled:
            vm.jvmti.dispatch_method_entry(thread, method)
        thread.frames.append(Frame(method, args))

    @staticmethod
    def _stack_overflow(method) -> None:
        """The depth check failed (framed and frameless activations
        both count toward ``cost_model.max_frames``)."""
        raise StackOverflowSimError(
            f"simulated stack overflow in {method.qualified_name}")

    def _exit_method_event(self, thread, method,
                           by_exception: bool) -> None:
        vm = self._vm
        if vm.jvmti.method_exit_enabled:
            vm.jvmti.dispatch_method_exit(thread, method, by_exception)

    def _invoke_native(self, thread, method, args: List):
        """Run a native method to completion on the host."""
        vm = self._vm
        if vm.jvmti.method_entry_enabled:
            vm.jvmti.dispatch_method_entry(thread, method)
        impl = method.native_impl
        if not method.native_resolved:
            impl = vm.native_registry.resolve(method)
            if impl is None:
                exc = self.synthesize_exception(
                    thread, "java.lang.UnsatisfiedLinkError",
                    method.qualified_name)
                self._exit_method_event(thread, method, by_exception=True)
                raise Unwind(exc)
            method.native_impl = impl
            method.native_resolved = True
            vm.native_methods_invoked.add(method.qualified_name)
        thread.charge(vm.cost_model.native_invoke_base, ChargeTag.NATIVE)
        vm.native_invocations += 1
        env = vm.jni_env(thread)
        # attribution key for blocked-time and causal rescaling; envs
        # are per-call, so nested natives each carry their own name
        env.native_name = method.qualified_name
        obs = vm.obs
        entered = thread.cycles_total if obs.enabled else 0
        try:
            result = impl(env, *args)
        except Unwind:
            if obs.enabled:
                self._observe_j2n(obs, thread, method, entered)
            self._exit_method_event(thread, method, by_exception=True)
            raise
        if obs.enabled:
            self._observe_j2n(obs, thread, method, entered)
        self._exit_method_event(thread, method, by_exception=False)
        return result

    @staticmethod
    def _observe_j2n(obs, thread, method, entered: int) -> None:
        """Record one J2N (bytecode -> native) span; observes the
        per-thread cycle counter without charging it."""
        now = thread.cycles_total
        obs.tracer.complete(method.qualified_name, "j2n",
                            thread.thread_id, entered, now)
        obs.metrics.observe("j2n_span_cycles", now - entered)

    # -- template-tier slow paths ------------------------------------------------
    #
    # A template runs either *framed* (entered by :meth:`_run` with the
    # activation's Frame on ``thread.frames``) or *frameless* (called
    # straight from another template's INVOKE with ``frame=None``; its
    # state is its Python locals).  It keeps the Java locals in Python
    # locals and hands them over as a list ``l`` only where something
    # may read them: always at a deopt, and at a throw only when an
    # exception-table entry covers the pc (``l`` is None elsewhere: no
    # handler in the activation can run).  A framed activation gets
    # ``l`` stored into ``frame.locals``.  These helpers are the only
    # places a frameless activation turns into a Frame: when a handler
    # has to run in it, or when it deoptimizes.  The rebuilt Frame goes
    # on top of ``thread.frames`` and :meth:`_run` carries it to its
    # return, so the frameless caller gets the method's result back, or
    # :class:`Unwind` for an exception that escaped the activation
    # (MethodExit already fired).  A framed throw raises
    # :class:`_TemplateThrow` to :meth:`_run`; a framed deopt returns
    # ``_DEOPT``.

    def _template_throw(self, thread, frame, method, l, pc: int,
                        class_name: str, message: str, pending: int,
                        icount: int):
        """Raise a VM-synthesized exception from template code.

        Mirrors the ``_Throw`` handler of :meth:`_run` exactly: sync the
        pc, synthesize (which may load classes and charge VM cycles)
        *before* flushing pending bytecode cycles, then dispatch."""
        if frame is not None:
            frame.pc = pc
        exc_obj = self.synthesize_exception(thread, class_name, message)
        return self._template_raise(thread, frame, method, l, pc, exc_obj,
                                    pending, icount)

    def _template_raise(self, thread, frame, method, l, pc: int, exc_obj,
                        pending: int, icount: int):
        """Throw ``exc_obj`` at ``pc`` of a template activation: an
        ATHROW, or an exception that escaped a call made at ``pc``.

        Framed: sync the frame and raise :class:`_TemplateThrow` for
        :meth:`_run` to dispatch.  Frameless: search the method's own
        handlers here (only a covered pc, ``l`` not None, has any)."""
        if pending:
            thread.charge(pending, ChargeTag.BYTECODE)
        if icount:
            self._vm.instructions_retired += icount
        if frame is not None:
            frame.pc = pc
            if l is not None:
                frame.locals = l
            raise _TemplateThrow(exc_obj)
        handler_pc = None if l is None else \
            self._find_handler(method, pc, exc_obj)
        if handler_pc is None:
            self._exit_method_event(thread, method, by_exception=True)
            raise Unwind(exc_obj)
        frame = Frame(method, l)
        frame.pc = handler_pc
        frame.stack.append(exc_obj)
        return self._finish_frameless(thread, frame)

    def _template_deopt(self, thread, frame, method, l, pc: int, stack,
                        pending: int, icount: int, reason: str):
        """Deoptimize a template activation at ``pc`` (locals ``l``,
        operand stack ``stack``); the instruction at ``pc`` has not
        been accounted."""
        framed = frame is not None
        if framed:
            frame.locals = l
        else:
            frame = Frame(method, l)
        frame.pc = pc
        frame.stack = stack
        frame.deopted = True
        if pending:
            thread.charge(pending, ChargeTag.BYTECODE)
        if icount:
            self._vm.instructions_retired += icount
        self._vm.jit.note_deopt(method, reason)
        return _DEOPT if framed else self._finish_frameless(thread, frame)

    def _finish_frameless(self, thread, frame):
        """Interpret a rebuilt frameless activation to its end.  While
        its Frame is on the stack it stops counting as frameless, so
        the depth check sees every activation exactly once."""
        frames = thread.frames
        frames.append(frame)
        thread.frameless -= 1
        try:
            result = self._run(thread, len(frames) - 1)
        except Unwind:
            thread.frameless += 1
            raise
        thread.frameless += 1
        return result

    # -- invokevirtual polymorphic inline cache -----------------------------------

    def _pic_miss(self, q, receiver_class):
        """Slow path of the invokevirtual PIC (both tiers share it).

        The caller already failed the first-entry identity test
        (``receiver_class is q[4]``) — the monomorphic fast path stays a
        single comparison.  ``q[6]``/``q[7]`` extend the cache to
        :attr:`~repro.jit.policy.JitPolicy.pic_depth` entries:

        * ``q[6] is None`` — monomorphic (or unseeded): only ``q[4]``/
          ``q[5]`` are populated;
        * ``q[6]`` is a list — polymorphic: up to ``pic_depth - 1``
          overflow (class, method) pairs in ``q[6]``/``q[7]``;
        * ``q[6] is False`` — megamorphic: the cache gave up and every
          dispatch walks the receiver class's (memoized) method table.

        All resolution here is host-only work charging zero simulated
        cycles, exactly like the monomorphic miss path it replaces, so
        cycle accounting is bit-identical across cache states.
        """
        vm = self._vm
        rest = q[6]
        if rest:
            methods = q[7]
            for i, cls in enumerate(rest):
                if cls is receiver_class:
                    vm.pic_hits += 1
                    return methods[i]
        vm.ic_misses += 1
        dispatched = receiver_class.resolve_method(q[2], q[3])
        resolved = dispatched if dispatched is not None else q[0]
        if rest is False:  # megamorphic: caching abandoned for good
            vm.pic_megamorphic += 1
            return resolved
        if q[4] is None:  # first execution: seed the monomorphic entry
            q[4] = receiver_class
            q[5] = resolved
            return resolved
        extra = vm.jit.policy.pic_depth - 1
        if rest is None:
            if extra > 0:
                q[6] = [receiver_class]
                q[7] = [resolved]
                vm.pic_mono_to_poly += 1
            else:  # pic_depth == 1: the old monomorphic cache, which
                # goes straight to megamorphic on a second class
                q[6] = False
                vm.pic_poly_to_mega += 1
        elif len(rest) < extra:
            rest.append(receiver_class)
            q[7].append(resolved)
        else:  # all pic_depth entries taken: go megamorphic
            q[6] = False
            q[7] = None
            vm.pic_poly_to_mega += 1
        return resolved

    # -- the interpreter loop --------------------------------------------------------

    def _run(self, thread, base: int):  # noqa: C901 - the dispatch loop
        vm = self._vm
        loader = vm.loader
        heap = vm.heap
        jit = vm.jit
        frames = thread.frames
        charge = thread.charge
        tag_bytecode = ChargeTag.BYTECODE
        # preemptive scheduler, or None under the sequential model;
        # hoisted so safepoint checks are one local load
        sched = vm.scheduler
        # race sanitizer (host-side shadow state), or None when off
        san = vm.sanitizer
        # on-stack replacement gate, hoisted for the backedge hot path
        osr_on = jit.policy.osr

        # opcode constants as fast locals (module globals cost a dict
        # lookup per comparison; locals are array slots)
        ILOAD = _ILOAD
        ALOAD = _ALOAD
        ICONST = _ICONST
        ISTORE = _ISTORE
        ASTORE = _ASTORE
        IINC = _IINC
        GETFIELD = _GETFIELD
        PUTFIELD = _PUTFIELD
        IALOAD = _IALOAD
        AALOAD = _AALOAD
        IASTORE = _IASTORE
        AASTORE = _AASTORE
        IAND = _IAND
        IOR = _IOR
        IXOR = _IXOR
        IADD = _IADD
        ISUB = _ISUB
        IMUL = _IMUL
        IDIV = _IDIV
        IREM = _IREM
        INEG = _INEG
        ISHL = _ISHL
        ISHR = _ISHR
        IUSHR = _IUSHR
        FDIV = _FDIV
        I2F = _I2F
        F2I = _F2I
        FCMP = _FCMP
        GOTO = _GOTO
        IFEQ = _IFEQ
        IFNE = _IFNE
        IFLT = _IFLT
        IFLE = _IFLE
        IFGT = _IFGT
        IFGE = _IFGE
        IF_ICMPEQ = _IF_ICMPEQ
        IF_ICMPNE = _IF_ICMPNE
        IF_ICMPLT = _IF_ICMPLT
        IF_ICMPLE = _IF_ICMPLE
        IF_ICMPGT = _IF_ICMPGT
        IF_ICMPGE = _IF_ICMPGE
        IFNULL = _IFNULL
        IFNONNULL = _IFNONNULL
        IF_ACMPEQ = _IF_ACMPEQ
        LDC = _LDC
        ICONST_NULL = _ACONST_NULL
        POP_ = _POP
        DUP = _DUP
        DUP_X1 = _DUP_X1
        SWAP = _SWAP
        NEW = _NEW
        GETSTATIC = _GETSTATIC
        PUTSTATIC = _PUTSTATIC
        INSTANCEOF = _INSTANCEOF
        CHECKCAST = _CHECKCAST
        NEWARRAY = _NEWARRAY
        ARRAYLENGTH = _ARRAYLENGTH
        INVOKESTATIC = _INVOKESTATIC
        RETURN = _RETURN
        ATHROW = _ATHROW
        MONITORENTER = _MONITORENTER
        NOP = _NOP
        INT_MAX = _INT_MAX
        INT_MIN = _INT_MIN_
        U32 = _U32
        BIAS = _BIAS
        AK_INT = ArrayKind.INT

        while True:
            # (re)load per-frame state; one outer iteration per
            # call/return/exception boundary
            frame = frames[-1]
            method = frame.method
            # tier dispatch: a fresh activation of a method with an
            # installed template runs specialized Python instead of the
            # dispatch loop.  Mid-method frames (handler resumption,
            # deopt restarts, returns into a caller) always interpret.
            tfunc = method.template
            if tfunc is not None and frame.pc == 0 and not frame.stack \
                    and not frame.deopted:
                vm.template_entries += 1
                try:
                    result = tfunc(self, thread, frame)
                except _TemplateThrow as thrown:
                    # frame.pc synced and accounting flushed by the
                    # template; unwind like the except arm below
                    self._dispatch_exception(thread, frames, base,
                                             thrown.exc_obj)
                    continue
                if result is _DEOPT:
                    continue  # reinterpret this activation
                # return: accounting flushed, MethodExit fired
                frames.pop()
                if len(frames) == base:
                    return result
                caller = frames[-1]
                caller.pc += 1
                if method.info.returns_value:
                    caller.stack.append(result)
                continue
            code = method.info.code
            ops = method.ops
            operands = method.operands
            costs = method.active_costs
            stack = frame.stack
            locals_ = frame.locals
            push = stack.append
            pop = stack.pop
            pc = frame.pc
            pending = 0
            icount = 0
            try:
                while True:
                    op = ops[pc]
                    pending += costs[pc]
                    icount += 1

                    if op == ILOAD or op == ALOAD:
                        push(locals_[operands[pc]])
                        pc += 1
                    elif op == ICONST:
                        push(operands[pc])
                        pc += 1
                    elif op == ISTORE or op == ASTORE:
                        locals_[operands[pc]] = pop()
                        pc += 1
                    elif 0x50 <= op <= 0x60:  # branch family
                        if op == GOTO:
                            taken = True
                        elif op == IF_ICMPGE:
                            b = pop()
                            taken = pop() >= b
                        elif op == IF_ICMPNE:
                            b = pop()
                            taken = pop() != b
                        elif op == IFNE:
                            taken = pop() != 0
                        elif op == IF_ICMPLT:
                            b = pop()
                            taken = pop() < b
                        elif op == IF_ICMPLE:
                            b = pop()
                            taken = pop() <= b
                        elif op == IFEQ:
                            taken = pop() == 0
                        elif op == IFGE:
                            taken = pop() >= 0
                        elif op == IFLT:
                            taken = pop() < 0
                        elif op == IFLE:
                            taken = pop() <= 0
                        elif op == IFGT:
                            taken = pop() > 0
                        elif op == IF_ICMPEQ:
                            b = pop()
                            taken = pop() == b
                        elif op == IF_ICMPGT:
                            b = pop()
                            taken = pop() > b
                        elif op == IFNULL:
                            taken = pop() is NULL
                        elif op == IFNONNULL:
                            taken = pop() is not NULL
                        elif op == IF_ACMPEQ:
                            b = pop()
                            taken = pop() is b
                        else:  # IF_ACMPNE
                            b = pop()
                            taken = pop() is not b
                        if taken:
                            target = operands[pc]
                            if target <= pc:  # backedge: JIT + safepoint
                                if not method.hot:
                                    method.backedge_count += 1
                                    if method.backedge_count >= \
                                            jit.policy.backedge_threshold:
                                        # flushed only ahead of a
                                        # compile charge
                                        if jit.enabled:
                                            if pending:
                                                charge(pending,
                                                       tag_bytecode)
                                                pending = 0
                                            if icount:
                                                vm.instructions_retired \
                                                    += icount
                                                icount = 0
                                        jit.compile(thread, method)
                                        costs = method.active_costs
                                if sched is not None and \
                                        thread.cycles_total + pending >= \
                                        thread.preempt_at:
                                    frame.pc = target
                                    if pending:
                                        charge(pending, tag_bytecode)
                                        pending = 0
                                    if icount:
                                        vm.instructions_retired += icount
                                        icount = 0
                                    sched.preempt(thread)
                                # on-stack replacement: a template with
                                # an entry stub for this loop header
                                # takes over the live frame mid-method.
                                # The flush splits one pending charge in
                                # two; totals and safepoint decisions
                                # (cycles_total + pending at instruction
                                # positions) are unchanged, so goldens
                                # stay bit-identical.
                                # A deopted frame may re-enter: deopts
                                # heal (the interpreter quickens the
                                # cold site before the next backedge),
                                # and a template that keeps deopting is
                                # invalidated at the disable threshold,
                                # which clears osr_map and ends the
                                # cycle — ping-pong is bounded.
                                osr_map = method.osr_map
                                if osr_map is not None and osr_on \
                                        and osr_map.get(target) == \
                                        len(stack):
                                    frame.pc = target
                                    if pending:
                                        charge(pending, tag_bytecode)
                                        pending = 0
                                    if icount:
                                        vm.instructions_retired += icount
                                        icount = 0
                                    method.osr_entry_count += 1
                                    vm.osr_entries += 1
                                    try:
                                        result = method.template(
                                            self, thread, frame, target)
                                    except _TemplateThrow as thrown:
                                        self._dispatch_exception(
                                            thread, frames, base,
                                            thrown.exc_obj)
                                        break
                                    # a deopt reconstructed the frame
                                    # and marked it deopted: the outer
                                    # loop reinterprets it
                                    if result is not _DEOPT:
                                        # templated activation returned
                                        # (accounting flushed,
                                        # MethodExit fired)
                                        frames.pop()
                                        if len(frames) == base:
                                            return result
                                        caller = frames[-1]
                                        caller.pc += 1
                                        if method.info.returns_value:
                                            caller.stack.append(result)
                                    break
                            pc = target
                        else:
                            pc += 1
                    elif op == GETFIELD:
                        ins = code[pc]
                        name = ins.quick
                        if name is None:
                            name = method.owner.constant_pool.get_typed(
                                operands[pc], CpFieldRef).field_name
                            ins.quick = name
                        obj = pop()
                        if obj is NULL:
                            raise _Throw(None, _NPE, f"getfield {name}")
                        try:
                            push(obj.fields[name])
                        except (KeyError, AttributeError):
                            raise NoSuchFieldError(
                                f"{obj!r} has no field {name}")
                        if san is not None:
                            frame.pc = pc  # accurate race stacks
                            san.read_field(thread, obj, name)
                        pc += 1
                    elif op == IALOAD or op == AALOAD:
                        index = pop()
                        array = pop()
                        if array is NULL:
                            raise _Throw(None, _NPE, "array load")
                        data = array.data
                        if index < 0 or index >= len(data):
                            raise _Throw(None, _AIOOBE, str(index))
                        push(data[index])
                        pc += 1
                    elif op == IAND:
                        b = pop()
                        r = stack[-1] & b
                        if r > INT_MAX or r < INT_MIN:
                            r = (r + BIAS & U32) - BIAS
                        stack[-1] = r
                        pc += 1
                    elif op == IADD:
                        b = pop()
                        a = stack[-1]
                        if type(b) is int and type(a) is int:
                            r = a + b
                            if r > INT_MAX or r < INT_MIN:
                                r = (r + BIAS & U32) - BIAS
                            stack[-1] = r
                        else:
                            stack[-1] = a + b
                        pc += 1
                    elif op == IINC:
                        idx, delta = operands[pc]
                        r = locals_[idx] + delta
                        if type(r) is int:
                            if r > INT_MAX or r < INT_MIN:
                                r = (r + BIAS & U32) - BIAS
                            locals_[idx] = r
                        else:
                            locals_[idx] = wrap_int32(r)
                        pc += 1
                    elif 0x93 <= op <= 0x95:  # RETURN / IRETURN / ARETURN
                        has_result = op != RETURN
                        result = pop() if has_result else None
                        if pending:
                            charge(pending, tag_bytecode)
                            pending = 0
                        if icount:
                            vm.instructions_retired += icount
                            icount = 0
                        self._exit_method_event(thread, method,
                                                by_exception=False)
                        frames.pop()
                        if len(frames) == base:
                            return result
                        caller = frames[-1]
                        # resume the caller after its invoke instruction
                        caller.pc += 1
                        if has_result:
                            caller.stack.append(result)
                        break
                    elif 0x90 <= op <= 0x92:  # INVOKE family
                        ins = code[pc]
                        q = ins.quick
                        # the frame stays at the invoke pc so
                        # exception-table ranges cover in-flight calls;
                        # RETURN advances past it
                        frame.pc = pc
                        if pending:
                            charge(pending, tag_bytecode)
                            pending = 0
                        if icount:
                            vm.instructions_retired += icount
                            icount = 0
                        if sched is not None and \
                                thread.cycles_total >= thread.preempt_at:
                            sched.preempt(thread)
                        if q is None:
                            ref = method.owner.constant_pool.get_typed(
                                operands[pc], CpMethodRef)
                            target_class = loader.load(ref.class_name)
                            resolved = target_class.resolve_method(
                                ref.method_name, ref.descriptor)
                            if resolved is None:
                                raise NoSuchMethodError(
                                    f"{ref.class_name}.{ref.method_name}"
                                    f"{ref.descriptor}")
                            if op != INVOKESTATIC and \
                                    resolved.info.is_static:
                                raise NoSuchMethodError(
                                    f"instance invoke of static "
                                    f"{resolved.qualified_name}")
                            if op == INVOKESTATIC and \
                                    not resolved.info.is_static:
                                raise NoSuchMethodError(
                                    f"static invoke of instance "
                                    f"{resolved.qualified_name}")
                            # [resolved, arg slots, name, descriptor,
                            #  PIC entry-0 class, PIC entry-0 method,
                            #  PIC overflow classes, PIC overflow
                            #  methods] — see _pic_miss for the cache
                            # state machine on slots 6/7
                            q = [resolved, resolved.info.arg_slots,
                                 ref.method_name, ref.descriptor,
                                 None, None, None, None]
                            ins.quick = q
                        resolved = q[0]
                        n_args = q[1]
                        if n_args:
                            args = stack[-n_args:]
                            del stack[-n_args:]
                        else:
                            args = []
                        if op != INVOKESTATIC:
                            receiver = args[0]
                            if receiver is NULL:
                                raise _Throw(
                                    None, _NPE,
                                    f"invoke {q[2]} on null")
                            if op == _INVOKEVIRTUAL:
                                receiver_class = getattr(
                                    receiver, "jclass", None)
                                if receiver_class is None:  # array
                                    receiver_class = loader.load(
                                        "java.lang.Object")
                                if receiver_class is q[4]:
                                    resolved = q[5]
                                    vm.ic_hits += 1
                                else:  # PIC slow path (shared helper)
                                    resolved = self._pic_miss(
                                        q, receiver_class)
                        if resolved.is_native:
                            try:
                                result = self._invoke_native(
                                    thread, resolved, args)
                            except Unwind as unwind:
                                raise _Throw(unwind.jobject) from None
                            if resolved.info.returns_value:
                                push(result)
                            pc += 1
                        else:
                            self._enter_bytecode_method(
                                thread, resolved, args)
                            break
                    elif op == IMUL:
                        b = pop()
                        a = stack[-1]
                        if type(b) is int and type(a) is int:
                            r = a * b
                            if r > INT_MAX or r < INT_MIN:
                                r = (r + BIAS & U32) - BIAS
                            stack[-1] = r
                        else:
                            stack[-1] = a * b
                        pc += 1
                    elif op == ISHR:
                        b = pop()
                        r = stack[-1] >> (b & 31)
                        if r > INT_MAX or r < INT_MIN:
                            r = (r + BIAS & U32) - BIAS
                        stack[-1] = r
                        pc += 1
                    elif op == ISHL:
                        b = pop()
                        r = stack[-1] << (b & 31)
                        if r > INT_MAX or r < INT_MIN:
                            r = (r + BIAS & U32) - BIAS
                        stack[-1] = r
                        pc += 1
                    elif op == IXOR:
                        b = pop()
                        r = stack[-1] ^ b
                        if r > INT_MAX or r < INT_MIN:
                            r = (r + BIAS & U32) - BIAS
                        stack[-1] = r
                        pc += 1
                    elif op == IASTORE or op == AASTORE:
                        value = pop()
                        index = pop()
                        array = pop()
                        if array is NULL:
                            raise _Throw(None, _NPE, "array store")
                        data = array.data
                        if index < 0 or index >= len(data):
                            raise _Throw(None, _AIOOBE, str(index))
                        if array.kind is AK_INT and type(value) is int \
                                and INT_MIN <= value <= INT_MAX:
                            data[index] = value
                        else:
                            data[index] = array.normalize(value)
                        pc += 1
                    elif op == ISUB:
                        b = pop()
                        a = stack[-1]
                        if type(b) is int and type(a) is int:
                            r = a - b
                            if r > INT_MAX or r < INT_MIN:
                                r = (r + BIAS & U32) - BIAS
                            stack[-1] = r
                        else:
                            stack[-1] = a - b
                        pc += 1
                    elif op == LDC:
                        ins = code[pc]
                        q = ins.quick
                        if q is None:
                            entry = method.owner.constant_pool.get(
                                operands[pc])
                            te = type(entry)
                            if te is CpInt or te is CpFloat:
                                q = (False, entry.value)
                            elif te is CpString:
                                frame.pc = pc
                                if pending:
                                    charge(pending, tag_bytecode)
                                    pending = 0
                                if icount:
                                    vm.instructions_retired += icount
                                    icount = 0
                                q = (True, vm.intern_string(entry.value))
                            else:
                                raise VMError(
                                    f"ldc of unsupported constant "
                                    f"{entry!r}")
                            ins.quick = q
                        if q[0]:  # string: interning is a VM boundary
                            frame.pc = pc
                            if pending:
                                charge(pending, tag_bytecode)
                                pending = 0
                            if icount:
                                vm.instructions_retired += icount
                                icount = 0
                        push(q[1])
                        pc += 1
                    elif op == PUTFIELD:
                        ins = code[pc]
                        name = ins.quick
                        if name is None:
                            name = method.owner.constant_pool.get_typed(
                                operands[pc], CpFieldRef).field_name
                            ins.quick = name
                        value = pop()
                        obj = pop()
                        if obj is NULL:
                            raise _Throw(None, _NPE, f"putfield {name}")
                        if name not in obj.fields:
                            raise NoSuchFieldError(
                                f"{obj!r} has no field {name}")
                        obj.fields[name] = value
                        if san is not None:
                            frame.pc = pc  # accurate race stacks
                            san.write_field(thread, obj, name)
                        pc += 1
                    elif op == GETSTATIC or op == PUTSTATIC:
                        ins = code[pc]
                        q = ins.quick
                        frame.pc = pc
                        if pending:
                            charge(pending, tag_bytecode)
                            pending = 0
                        if icount:
                            vm.instructions_retired += icount
                            icount = 0
                        if q is None:
                            ref = method.owner.constant_pool.get_typed(
                                operands[pc], CpFieldRef)
                            cls = loader.load(ref.class_name)
                            holder = cls.resolve_static_holder(
                                ref.field_name)
                            if holder is None:
                                raise NoSuchFieldError(
                                    f"{ref.class_name} has no static "
                                    f"{ref.field_name}")
                            q = (holder, ref.field_name)
                            ins.quick = q
                        if op == GETSTATIC:
                            push(q[0].statics[q[1]])
                            if san is not None:
                                san.read_static(thread, q[0], q[1])
                        else:
                            q[0].statics[q[1]] = pop()
                            if san is not None:
                                san.write_static(thread, q[0], q[1])
                        pc += 1
                    elif op == IDIV or op == IREM:
                        b = pop()
                        a = pop()
                        if type(a) is int and type(b) is int:
                            if b == 0:
                                raise _Throw(None, _ARITH, "/ by zero")
                            quotient = abs(a) // abs(b)
                            if (a < 0) != (b < 0):
                                quotient = -quotient
                            if op == IDIV:
                                r = quotient
                            else:
                                r = a - quotient * b
                            if r > INT_MAX or r < INT_MIN:
                                r = (r + BIAS & U32) - BIAS
                            push(r)
                        else:
                            if b == 0:
                                raise _Throw(None, _ARITH, "/ by zero")
                            push(a / b if op == IDIV else a % b)
                        pc += 1
                    elif op == FDIV:
                        b = pop()
                        a = pop()
                        if b == 0:
                            # IEEE-754 (JVM fdiv): x/±0.0 is ±Infinity
                            # with the XOR of the operand signs;
                            # 0.0/0.0 is NaN.  Never ArithmeticException.
                            if a == 0:
                                push(math.nan)
                            else:
                                sign = (math.copysign(1.0, float(a))
                                        * math.copysign(1.0, float(b)))
                                push(math.inf if sign > 0 else -math.inf)
                        else:
                            push(a / b)
                        pc += 1
                    elif op == INEG:
                        v = stack[-1]
                        if type(v) is int:
                            r = -v
                            if r > INT_MAX or r < INT_MIN:
                                r = (r + BIAS & U32) - BIAS
                            stack[-1] = r
                        else:
                            stack[-1] = -v
                        pc += 1
                    elif op == IUSHR:
                        b = pop()
                        r = (stack[-1] & U32) >> (b & 31)
                        if r > INT_MAX:
                            r -= 4294967296
                        stack[-1] = r
                        pc += 1
                    elif op == IOR:
                        b = pop()
                        r = stack[-1] | b
                        if r > INT_MAX or r < INT_MIN:
                            r = (r + BIAS & U32) - BIAS
                        stack[-1] = r
                        pc += 1
                    elif op == I2F:
                        stack[-1] = float(stack[-1])
                        pc += 1
                    elif op == F2I:
                        r = int(stack[-1])
                        if r > INT_MAX or r < INT_MIN:
                            r = (r + BIAS & U32) - BIAS
                        stack[-1] = r
                        pc += 1
                    elif op == FCMP:
                        b = pop()
                        a = pop()
                        push(-1 if a < b else (1 if a > b else 0))
                        pc += 1
                    elif op == POP_:
                        pop()
                        pc += 1
                    elif op == DUP:
                        push(stack[-1])
                        pc += 1
                    elif op == DUP_X1:
                        stack.insert(-2, stack[-1])
                        pc += 1
                    elif op == SWAP:
                        stack[-1], stack[-2] = stack[-2], stack[-1]
                        pc += 1
                    elif op == ICONST_NULL:
                        push(NULL)
                        pc += 1
                    elif op == NEW:
                        ins = code[pc]
                        cls = ins.quick
                        frame.pc = pc
                        if pending:
                            charge(pending, tag_bytecode)
                            pending = 0
                        if icount:
                            vm.instructions_retired += icount
                            icount = 0
                        if cls is None:
                            ref = method.owner.constant_pool.get_typed(
                                operands[pc], CpClass)
                            cls = loader.load(ref.name)
                            ins.quick = cls
                        push(heap.alloc_object(cls))
                        pc += 1
                    elif op == NEWARRAY:
                        length = pop()
                        if length < 0:
                            raise _Throw(None, _NASE, str(length))
                        push(heap.alloc_array(operands[pc], length))
                        pc += 1
                    elif op == ARRAYLENGTH:
                        array = pop()
                        if array is NULL:
                            raise _Throw(None, _NPE, "arraylength")
                        push(len(array.data))
                        pc += 1
                    elif op == INSTANCEOF:
                        ins = code[pc]
                        cname = ins.quick
                        if cname is None:
                            cname = method.owner.constant_pool.get_typed(
                                operands[pc], CpClass).name
                            ins.quick = cname
                        obj = pop()
                        if obj is NULL:
                            push(0)
                        elif isinstance(obj, JArray):
                            push(1 if cname == "java.lang.Object" else 0)
                        else:
                            push(1 if obj.jclass.is_subclass_of(cname)
                                 else 0)
                        pc += 1
                    elif op == CHECKCAST:
                        ins = code[pc]
                        cname = ins.quick
                        if cname is None:
                            cname = method.owner.constant_pool.get_typed(
                                operands[pc], CpClass).name
                            ins.quick = cname
                        obj = stack[-1]
                        if obj is not NULL and \
                                not isinstance(obj, JArray) and \
                                not obj.jclass.is_subclass_of(cname):
                            raise _Throw(
                                None, _CCE,
                                f"{obj.class_name} -> {cname}")
                        pc += 1
                    elif op == ATHROW:
                        exc_obj = pop()
                        if exc_obj is NULL:
                            raise _Throw(None, _NPE, "throw null")
                        raise _Throw(exc_obj)
                    elif op == MONITORENTER:
                        obj = pop()
                        if obj is NULL:
                            raise _Throw(None, _NPE, "monitorenter")
                        if obj.monitor_owner is None or \
                                obj.monitor_owner is thread:
                            obj.monitor_owner = thread
                            obj.monitor_count += 1
                            if san is not None:
                                san.on_acquire(thread, obj)
                        elif sched is not None:
                            # contended: block until the owner hands
                            # the monitor over (charges are flushed —
                            # the thread parks mid-opcode)
                            frame.pc = pc
                            if pending:
                                charge(pending, tag_bytecode)
                                pending = 0
                            if icount:
                                vm.instructions_retired += icount
                                icount = 0
                            sched.acquire_contended(thread, obj)
                        else:
                            raise self._sequential_monitor_deadlock(
                                thread, obj)
                        pc += 1
                    elif op == _MONITOREXIT:
                        obj = pop()
                        if obj is NULL:
                            raise _Throw(None, _NPE, "monitorexit")
                        if obj.monitor_owner is not thread or \
                                obj.monitor_count <= 0:
                            raise _Throw(None, _IMSE, "not monitor owner")
                        obj.monitor_count -= 1
                        if obj.monitor_count == 0:
                            obj.monitor_owner = None
                            if san is not None:
                                san.on_release(thread, obj)
                            if sched is not None and obj.monitor_waiters:
                                sched.release_monitor(thread, obj)
                        pc += 1
                    elif op == NOP:
                        pc += 1
                    else:  # pragma: no cover - exhaustive over the ISA
                        raise VMError(f"unhandled opcode {Op(op)!r}")
            except _Throw as signal:
                frame.pc = pc
                exc_obj = signal.exc_obj
                if exc_obj is None:
                    exc_obj = self.synthesize_exception(
                        thread, signal.class_name, signal.message)
                if pending:
                    charge(pending, tag_bytecode)
                if icount:
                    vm.instructions_retired += icount
                self._dispatch_exception(thread, frames, base, exc_obj)
                # fall through to the outer loop, which reloads the
                # handler frame's state (pc set by the dispatcher)

    # -- monitor support --------------------------------------------------------------

    def _sequential_monitor_deadlock(self, thread, obj) -> DeadlockError:
        """Contended MONITORENTER under the sequential model: the owner
        is suspended below us on the host stack and can only release
        after we return — a guaranteed wait-for cycle."""
        owner = obj.monitor_owner
        cycle = [(thread.name, f"monitor of {obj!r}", owner.name),
                 (owner.name, "host-stack resumption", thread.name)]
        return DeadlockError(
            f"deadlock: monitor of {obj!r} held by {owner.name} while "
            f"{thread.name} runs (sequential model): "
            + DeadlockError.render_cycle(cycle), cycle=cycle)

    # -- exception dispatch -----------------------------------------------------------

    def _dispatch_exception(self, thread, frames, base: int,
                            exc_obj) -> None:
        """Unwind until a handler is found; leaves the handler frame on
        top with its pc at the handler.  Raises :class:`Unwind` when the
        exception escapes this activation."""
        while True:
            current = frames[-1]
            m = current.method
            handler_pc = self._find_handler(m, current.pc, exc_obj)
            if handler_pc is not None:
                current.stack.clear()
                current.stack.append(exc_obj)
                current.pc = handler_pc
                return
            self._exit_method_event(thread, m, by_exception=True)
            frames.pop()
            if len(frames) == base:
                raise Unwind(exc_obj)

    # -- exception-table search -------------------------------------------------------

    def _find_handler(self, method, pc: int, exc_obj) -> Optional[int]:
        for entry in method.info.exception_table:
            if entry.start <= pc < entry.end:
                if entry.catch_type is None:
                    return entry.handler
                jclass = getattr(exc_obj, "jclass", None)
                if jclass is not None and \
                        jclass.is_subclass_of(entry.catch_type):
                    return entry.handler
        return None
