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
compiled it.  Before that, once it is warm (its
``JitCompiler.counting_at``-th taken backedge, a fixed fraction of the
JIT's threshold), it runs its *counting form*: a template that charges
the interpreted costs and keeps the JIT's counters as this loop does,
entered framed only, by the tier dispatch and by OSR.  Templates fire
the JVMTI method events themselves, so warm and hot methods leave this
loop even under a method-event agent, which vetoes the JIT.

The generated dispatch loop
---------------------------

What each opcode does is one entry of
:data:`repro.jvm.semantics.SEMANTICS`, which the template tier renders
too; this module holds the loop's skeleton (``_SKELETON``) and renders
each entry as one arm of it (:class:`_Arm`).  :meth:`Interpreter._run`
starts as a stub that, on its first call in a process, generates,
compiles and installs the loop (:func:`dispatch_source` returns its
source).  A raw ``AttributeError`` or ``TypeError`` from executing
bytecode — a type-confused operand that structural verification lets
through — is caught once, at the loop's ``try`` (which also covers its
template calls), and raised as a :class:`~repro.errors.VMError` naming
the method (and the pc, when this loop ran it).

Host-speed engineering (accounting-invariant)
---------------------------------------------

The dispatch loop is written for host throughput, under one hard rule:
**wall-clock optimizations must leave simulated cycle accounting
bit-identical.**  Concretely:

* The loop dispatches over pre-decoded per-method opcode/operand tuples
  (:class:`~repro.jvm.classloader.LoadedMethod` ``ops``/``operands``)
  with int-literal comparisons ordered by measured dynamic frequency
  (``_CHAIN``), and keeps all loop state in function locals (no
  closures, so no cell variables on the hot path).  Operands are
  locals; the deepest is read and written in place (``stack[-1]``)
  when the opcode pushes a result.
* Constant-pool operands are **quickened**: a site's first execution
  resolves it (the entry's ``resolve``) and parks the result in the
  method's per-VM table (``LoadedMethod.quick[pc]``), never on the
  parsed instruction, which every VM in the process shares;
  ``INVOKEVIRTUAL`` also keeps a polymorphic inline cache
  (:meth:`Interpreter._pic_miss`) there.  Resolution charges **zero**
  simulated cycles, and every flush happens on cache hits too, so the
  *sequence* of ``thread.charge`` calls (observable by host-side
  samplers) is unchanged, not just the totals.

Across execution tiers the sequence is the same with one exception:
where an activation changes tier mid-segment.  A template that
deoptimizes charges the cycles pending *before* the deopting
instruction, and this loop then charges the rest of the segment at its
next flush, so one charge becomes two with the same sum and tag (at
scale 1 with OSR off, at a cold INVOKE: jess 18 -> 4 + 14, mtrt
37 -> 23 + 14).  OSR entry does the same in the other direction: the
backedge flushes what the loop had pending before the template takes
over.  Totals, per-tag cycles and every flush point are unchanged.  A
counting form that leaves because a compile swapped the method's costs
(where this loop would reload them) has nothing pending, so it splits
no charge.

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

import linecache
import textwrap
from typing import List, Optional

from repro.bytecode.opcodes import OperandKind, Op
from repro.classfile.constant_pool import (
    CpClass,
    CpFieldRef,
    CpFloat,
    CpInt,
    CpString,
)
from repro.errors import DeadlockError, StackOverflowSimError, VMError
from repro.jvm.costmodel import ChargeTag
from repro.jvm.frame import Frame
from repro.jvm.semantics import (
    RUNTIME,
    SAFEPOINT,
    SEMANTICS,
    Flush,
    parse,
    prepare,
    uses,
)
from repro.jvm.values import JObject

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

    def _template_call(self, thread, callee, args):
        """A counting form's call site: what a template's inline call
        protocol does (:mod:`repro.jit.template`), in one function —
        frameless into a templated callee, through this loop
        otherwise.  Warm code pays one Python call per call site for a
        smaller source, which is what its translation's peak memory
        follows."""
        template = callee.template
        if template is None:
            if callee.is_native:
                return self._invoke_native(thread, callee, args)
            self._enter_bytecode_method(thread, callee, args)
            return self._run(thread, len(thread.frames) - 1)
        vm = self._vm
        if len(thread.frames) + thread.frameless >= \
                vm.cost_model.max_frames:
            self._stack_overflow(callee)
        callee.invocation_count += 1
        if vm.jvmti.method_entry_enabled:
            vm.jvmti.dispatch_method_entry(thread, callee)
        vm.template_entries += 1
        thread.frameless += 1
        try:
            result = template(self, thread, None, -1, args)
        except Unwind:
            thread.frameless -= 1
            raise
        thread.frameless -= 1
        return result

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

    def _run(self, thread, base: int):
        """Interpret ``thread``'s frames down to depth ``base``; returns
        the result of the activation at ``base``.  The first call in a
        process generates the dispatch loop (:func:`_dispatch_loop`)
        and installs it in this method's place."""
        Interpreter._run = _dispatch_loop()
        return self._run(thread, base)

    def _type_confusion(self, exc, method, pc: int) -> VMError:
        """The VMError for a raw ``AttributeError``/``TypeError`` from
        executing bytecode: it names the innermost template on the
        traceback, else the interpreted method and pc."""
        tb = exc.__traceback__
        template = None
        while tb is not None:
            name = tb.tb_frame.f_code.co_filename
            if name.startswith("<template:"):
                template = name[len("<template:"):-1]
            tb = tb.tb_next
        if template is not None:
            where = f"template of {template}"
        else:
            mnemonic = Op(method.ops[pc]).name.lower()
            where = f"{method.qualified_name} at pc {pc} ({mnemonic})"
        return VMError(f"type-confused operand in {where}: "
                       f"{type(exc).__name__}: {exc}")

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


# -- the generated dispatch loop -----------------------------------------------------
#
# ``_run`` is written once here as a skeleton (frame reload, tier
# dispatch, the taken-branch path with JIT counting, safepoint and OSR,
# the invoke/return frame protocol, the exception handlers) and filled
# with one arm per opcode rendered from repro.jvm.semantics.  A
# ``$NAME`` line expands one of ``_MACROS``; ``$ARMS`` is the if-chain.

_SKELETON = '''
def _run(interp, thread, base):
    vm = interp._vm
    loader = vm.loader
    heap = vm.heap
    jit = vm.jit
    frames = thread.frames
    charge = thread.charge
    tag_bytecode = ChargeTag.BYTECODE
    # preemptive scheduler, or None under the sequential model
    SP = vm.scheduler
    # race sanitizer (host-side shadow state), or None when off
    SAN = vm.sanitizer
    osr_on = jit.policy.osr
    counting_at = jit.counting_at
    while True:
        # (re)load per-frame state; one outer iteration per
        # call/return/exception boundary
        frame = frames[-1]
        method = frame.method
        pc = frame.pc
        try:
            # tier dispatch: a fresh activation of a method with an
            # installed template, or else a counting form, runs it
            # instead of this loop.  Frames resumed mid-method
            # (handler, deopt, return into a caller) always interpret.
            tfunc = method.template or method.counting
            if tfunc and pc == 0 and not frame.stack \\
                    and not frame.deopted:
                vm.template_entries += 1
                try:
                    result = tfunc(interp, thread, frame)
                except _TemplateThrow as thrown:
                    # frame.pc synced and accounting flushed by the
                    # template
                    interp._dispatch_exception(thread, frames, base,
                                               thrown.exc_obj)
                    continue
                if result is _DEOPT:
                    continue  # reinterpret this activation
                $TEMPLATE_RETURN
                continue
            quick = method.quick
            ops = method.ops
            operands = method.operands
            costs = method.active_costs
            stack = frame.stack
            locals_ = frame.locals
            push = stack.append
            pop = stack.pop
            pending = 0
            icount = 0
            while True:
                op = ops[pc]
                pending += costs[pc]
                icount += 1
$ARMS
        except _Throw as signal:
            frame.pc = pc
            exc_obj = signal.exc_obj
            if exc_obj is None:
                exc_obj = interp.synthesize_exception(
                    thread, signal.class_name, signal.message)
            if pending:
                charge(pending, tag_bytecode)
            if icount:
                vm.instructions_retired += icount
                vm.interpreted_instructions += icount
            interp._dispatch_exception(thread, frames, base, exc_obj)
            # the outer loop reloads the handler frame's state
        except (AttributeError, TypeError) as exc:
            raise interp._type_confusion(exc, method, pc) from exc
'''

#: After a branch family's chain has set ``taken``.
_TAKEN = '''
if taken:
    target = operands[pc]
    if target <= pc:  # backedge: JIT counting, safepoint, OSR
        if not method.hot:
            method.backedge_count += 1
            if method.backedge_count >= jit.policy.backedge_threshold:
                # flushed only ahead of a compile charge
                if jit.enabled:
                    $FLUSH
                jit.compile(thread, method)
                costs = method.active_costs
            elif method.backedge_count == counting_at and \\
                    method.counting is None:
                # warm: the counting form (host work only), entered
                # just below
                jit.translate_counting(method)
        if SP is not None and \\
                thread.cycles_total + pending >= thread.preempt_at:
            frame.pc = target
            $FLUSH
            SP.preempt(thread)
        # on-stack replacement: the method's dispatch-form translation
        # (its counting form before it is hot), whose entry stub for
        # this loop header takes over the live frame (made at the first
        # OSR entry when the template is structured; host work only).
        # The flush splits one pending charge in two with the same sum;
        # safepoint decisions (cycles_total + pending) are unchanged.
        # An activation whose costs went stale (a JNI callback or
        # another thread compiled the method) keeps them until its next
        # call, return or handler, so it stays here.  A template that
        # keeps deopting is invalidated at the disable threshold, which
        # clears osr_map, so ping-pong is bounded.
        osr_map = method.osr_map
        if osr_map is not None and osr_on and \\
                osr_map.get(target) == len(stack) and \\
                costs is method.active_costs:
            entry = method.osr_template or jit.osr_template(method)
            if entry is not None:
                frame.pc = target
                $FLUSH
                method.osr_entry_count += 1
                vm.osr_entries += 1
                try:
                    result = entry(interp, thread, frame, target)
                except _TemplateThrow as thrown:
                    interp._dispatch_exception(thread, frames, base,
                                               thrown.exc_obj)
                    break
                # a deopt marked the frame: the outer loop
                # reinterprets it
                if result is not _DEOPT:
                    $TEMPLATE_RETURN
                break
    pc = target
else:
    pc += 1
'''

_FLUSH = '''
if pending:
    charge(pending, tag_bytecode)
    pending = 0
if icount:
    vm.instructions_retired += icount
    vm.interpreted_instructions += icount
    icount = 0
'''

#: The skeleton's ``$NAME`` lines.
_MACROS = {
    "FLUSH": _FLUSH,
    # a template activation returned: accounting flushed, MethodExit
    # fired
    "TEMPLATE_RETURN": '''
frames.pop()
if len(frames) == base:
    return result
caller = frames[-1]
caller.pc += 1
if method.info.returns_value:
    caller.stack.append(result)
''',
}

#: The frame protocol of the table's ``!args``/``!call``/``!return``.
_PROTOCOL = {
    # the frame stays at the invoke pc so exception-table ranges cover
    # calls in flight; the callee's return advances it
    "args": '''
_n = q[1]
if _n:
    _a = stack[-_n:]
    del stack[-_n:]
else:
    _a = []
''',
    "call": '''
if _m.is_native:
    try:
        _v = interp._invoke_native(thread, _m, _a)
    except Unwind as unwind:
        raise _Throw(unwind.jobject) from None
    if _m.info.returns_value:
        push(_v)
    pc += 1
else:
    interp._enter_bytecode_method(thread, _m, _a)
    break
''',
    "return": '''
frames.pop()
if len(frames) == base:
    return {v}
caller = frames[-1]
# resume the caller after its invoke instruction
caller.pc += 1
''',
}

_BRANCHES = [Op.GOTO, Op.IF_ICMPGE, Op.IF_ICMPNE, Op.IFNE, Op.IF_ICMPLT,
             Op.IF_ICMPLE, Op.IFEQ, Op.IFGE, Op.IFLT, Op.IFLE, Op.IFGT,
             Op.IF_ICMPEQ, Op.IF_ICMPGT, Op.IFNULL, Op.IFNONNULL,
             Op.IF_ACMPEQ, Op.IF_ACMPNE]

#: The if-chain, ordered by measured dynamic frequency.  A tuple is one
#: arm for opcodes with the same semantics; a list is a family, tested
#: by its opcode range, with its own chain inside.  The last arm is the
#: ``else`` (every opcode has an arm).
_CHAIN = (
    (Op.ILOAD, Op.ALOAD), Op.ICONST, (Op.ISTORE, Op.ASTORE), _BRANCHES,
    Op.GETFIELD, (Op.IALOAD, Op.AALOAD), Op.IAND, Op.IADD, Op.IINC,
    [(Op.IRETURN, Op.ARETURN), Op.RETURN],
    [Op.INVOKEVIRTUAL, Op.INVOKESTATIC, Op.INVOKESPECIAL],
    Op.IMUL, Op.ISHR, Op.ISHL, Op.IXOR, (Op.IASTORE, Op.AASTORE), Op.ISUB,
    Op.LDC, Op.PUTFIELD, Op.GETSTATIC, Op.PUTSTATIC, Op.IDIV, Op.IREM,
    Op.FDIV, Op.INEG, Op.IUSHR, Op.IOR, Op.I2F, Op.F2I, Op.FCMP, Op.POP,
    Op.DUP, Op.DUP_X1, Op.SWAP, Op.ACONST_NULL, Op.NEW, Op.NEWARRAY,
    Op.ARRAYLENGTH, Op.INSTANCEOF, Op.CHECKCAST, Op.ATHROW,
    Op.MONITORENTER, Op.MONITOREXIT, Op.NOP,
)


class _Arm:
    """Renders one table entry as a dispatch-loop arm (a backend of
    :func:`repro.jvm.semantics.prepare`): operands live in locals, the
    deepest one is read in place when the opcode pushes a result, and
    one read once on the first line is read from the stack there."""

    def __init__(self, entry):
        self.entry = entry
        self.lines: List[str] = []
        spec = entry.spec
        self.in_place = entry.operands and spec.pushes > 0
        names = list(entry.operands)
        self.expr = {name: name for name in names}
        if spec.pops == -1:  # an invoke: !args takes the arguments
            self.expr["recv"] = "_a[0]"
        elif names:
            deepest = names[0]
            access = "stack[-1]" if self.in_place else "pop()"
            first = entry.cond or next(
                (text for _, text in parse(entry.body)), "")
            # a single read on the first line, unless that line also
            # pushes past it (dup_x1, swap)
            if uses(entry, deepest) == 1 and \
                    "{" + deepest + "}" in first and \
                    "," not in first.partition("=> ")[2]:
                self.expr[deepest] = access
            for name in reversed(names[1:]):
                self.emit(0, f"{name} = pop()" if uses(entry, name)
                          else "pop()")
            if self.expr[deepest] == deepest:
                self.emit(0, f"{deepest} = {access}"
                          if uses(entry, deepest) else access)
        if spec.operand is OperandKind.IINC:
            self.lines.insert(0, "idx, delta = operands[pc]")

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def block(self, depth: int, fragment: str) -> None:
        self.lines.extend(_indented(fragment, depth))

    # -- backend interface

    def value(self, name: str) -> str:
        if name in self.expr:
            return self.expr[name]
        if name in self.entry.quick:
            return self.entry.quick[name].access.format(q="q")
        if name == "local":
            return "locals_[idx]" if \
                self.entry.spec.operand is OperandKind.IINC \
                else "locals_[operands[pc]]"
        return {"imm": "operands[pc]", "kind": "operands[pc]",
                "delta": "delta", "pc": "pc"}[name]

    literals = staticmethod(dict)  # operands are never literals here

    @staticmethod
    def gate(kind: str) -> str:
        return "SAN is not None" if kind == "san" else "SP is not None"

    def render(self, lines, depth: int = 0) -> None:
        entry = self.entry
        for line in lines:
            d = depth + line.depth
            if line.kind is None:
                self.emit(d, line.text)
            elif line.kind == "result":
                raw, exprs = line.args
                for i, (token, expr) in enumerate(zip(raw, exprs)):
                    if i == 0 and entry.operands and self.in_place:
                        if token != "{" + entry.operands[0] + "}":
                            self.emit(d, f"stack[-1] = {expr}")
                    else:
                        self.emit(d, f"push({expr})")
            elif line.kind == "throw":
                cls, message = line.args
                self.emit(d, f"raise _Throw(None, {cls!r}, {message})")
            elif line.kind == "raise":
                self.emit(d, f"raise _Throw({line.args[0]})")
            elif line.kind == "flush":
                self.block(d, "frame.pc = pc\n" + _FLUSH)
            elif line.kind == "return":
                value = line.args[0]
                self.block(d, _PROTOCOL["return"].format(v=value))
                if value is not None:
                    self.emit(d, f"caller.stack.append({value})")
                self.emit(d, "break")
            else:
                self.block(d, _PROTOCOL[line.kind])

    def build(self) -> List[str]:
        entry = self.entry
        if entry.resolve is not None:
            self.emit(0, "q = quick[pc]")
        if entry.flush is Flush.BEFORE:  # a return leaves frame.pc dead
            self.block(0, ("" if entry.spec.ends_block else
                           "frame.pc = pc\n") + _FLUSH)
        if entry.safepoint:
            self.render(prepare(entry, self, SAFEPOINT))
        if entry.resolve is not None:
            self.emit(0, "if q is None:")
            self.render(prepare(entry, self, entry.resolve), 1)
            self.emit(1, "quick[pc] = q")
        if entry.cond is not None or entry.op is Op.GOTO:
            cond = "True" if entry.cond is None else \
                entry.cond.format_map(self.expr)
            self.emit(0, f"taken = {cond}")
            return self.lines
        self.render(prepare(entry, self))
        if not entry.spec.ends_block and "!call" not in entry.body:
            self.emit(0, "pc += 1")
        return self.lines


def _chain(members, depth: int, out: List[str]) -> None:
    """The if-chain over ``members`` (ops, tuples of ops, families);
    the last member is the ``else``."""
    pad = "    " * depth
    for i, member in enumerate(members):
        ops = [op for m in (member if isinstance(member, list) else
                            [member])
               for op in (m if isinstance(m, tuple) else (m,))]
        lo, hi = min(ops), max(ops)
        if isinstance(member, list):  # a family: one range test
            assert sorted(ops) == list(range(lo, hi + 1)), member
            test, names = f"0x{lo:02x} <= op <= 0x{hi:02x}", ""
        else:
            test = " or ".join(f"op == 0x{int(op):02x}" for op in ops)
            names = "  # " + ", ".join(SEMANTICS[op].spec.mnemonic
                                       for op in ops)
        keyword = "if" if i == 0 else "elif"
        out.append(pad + (f"else:{names}" if i == len(members) - 1
                          else f"{keyword} {test}:{names}"))
        if isinstance(member, list):
            _chain(member, depth + 1, out)
            if member is _BRANCHES:
                out.extend(_indented(_TAKEN, depth + 1))
            continue
        entry = SEMANTICS[ops[0]]
        assert all(entry.same_as(SEMANTICS[op]) for op in ops), ops
        out.extend(pad + "    " + line for line in _Arm(entry).build())


def _indented(fragment: str, depth: int = 0) -> List[str]:
    """A fragment's lines at ``depth``, its ``$NAME`` lines expanded."""
    out = []
    for line in textwrap.dedent(fragment).strip("\n").splitlines():
        text = line.lstrip(" ")
        pad = "    " * depth + line[:len(line) - len(text)]
        if text.startswith("$"):
            out.extend(_indented(_MACROS[text[1:]], len(pad) // 4))
        elif text:
            out.append(pad + text)
    return out


def dispatch_source() -> str:
    """The dispatch loop's source: the skeleton with its arms."""
    arms: List[str] = []
    _chain(list(_CHAIN), 4, arms)
    return "\n".join(_indented(_SKELETON.replace(
        "$ARMS\n", "\n".join(arms) + "\n"))) + "\n"


_FILENAME = "<repro.jvm.interpreter dispatch loop>"


def _dispatch_loop():
    """Generate, compile and return the dispatch loop function.  Its
    source is registered with :mod:`linecache`, so tracebacks through
    it show the generated lines."""
    source = dispatch_source()
    linecache.cache[_FILENAME] = (len(source), None,
                                  source.splitlines(True), _FILENAME)
    namespace = dict(RUNTIME, ChargeTag=ChargeTag, Unwind=Unwind,
                     _Throw=_Throw, _TemplateThrow=_TemplateThrow,
                     _DEOPT=_DEOPT, VMError=VMError, CpClass=CpClass,
                     CpFieldRef=CpFieldRef, CpFloat=CpFloat, CpInt=CpInt,
                     CpString=CpString)
    exec(compile(source, _FILENAME, "exec"), namespace)
    return namespace["_run"]
