"""The template translator: bytecode -> specialized Python source.

This is the VM's second execution tier, and the template backend of the
opcode table :data:`repro.jvm.semantics.SEMANTICS` (what an instruction
computes, throws, flushes and specializes); this module owns the
pending-cycle segments, operand forwarding, the block layout, cold-site
deopts, OSR entry stubs, the counting form and the frameless call
protocol with its inlined leaf callees.  When a method goes hot
(:meth:`JitCompiler.compile`), or is
warm before that (:meth:`JitCompiler.translate_counting`),
:func:`translate` turns the
method's pre-decoded ``ops``/``operands`` streams into one specialized
Python function (source generation + ``exec``): straight-line bytecode
becomes straight-line Python, Java locals become Python locals ``L0``,
``L1``, ..., operand-stack slots become Python locals ``s0``, ``s1``,
... (the depth at every pc is statically known for verifiable code)
unless the value is forwarded (below).  Translation is a host decision,
separate from the simulated JIT: a method the JIT may not compile
(``-Xint``, or the veto of a method-event agent) is translated too, and
its template sums the method's *active* cost array — the interpreted
costs — so it charges exactly what the dispatch loop would.

Block layout
------------

A reducible method is laid out as nested ``while 1:`` loops and ``if``
arms from the dominators of :meth:`repro.bytecode.flow.CFG.dominance`
(:class:`_Layout`, after Ramsey's "Beyond Relooper"): a loop header
opens a ``while``, a back edge is ``continue``, a merge goes after the
construct whose arms fall into it, a loop exit that rejoins other code
goes after its loop and is reached by ``break``, and every other block
is emitted where it is branched to.  A method whose edges need more
than one innermost ``break``/``continue`` or fall-out, whose graph is
irreducible, or that nests too deep keeps the *dispatch form*: its
blocks become arms of one ``while 1`` over a block index ``b``.  The
dispatch form is also the OSR entry function (``translate(...,
osr=True)``): only it has entry stubs that take a live frame in at a
loop header, and the VM makes it at a structured method's first OSR
entry.

Accounting contract (the hard rule)
-----------------------------------

Simulated cycle accounting must be **bit-identical** to the dispatch
loop: both render each entry's flush class (:class:`~repro.jvm.
semantics.Flush`), and exception dispatch synthesizes first, then
flushes, as the loop's ``_Throw`` handler does.  Resolution charges zero
cycles, so binding quickened constants at translation cannot change
any simulated number.

Between flushes the pending amount lives in two places: the run-time
locals ``p`` (cycles) and ``n`` (instructions), and a translation-time
constant ``(C, K)`` — the summed costs of the instructions emitted since
``p``/``n`` were last written.  *Leaders* are the branch targets, plus
the blocks placed after a loop and reached by ``break``.  Writing the
constant into the locals (a *spill*, ``p += C``/``n += K``) happens
only on an edge into a leader: a conditional branch's taken edge
(inside the ``if``), a GOTO, and a fall-through into a leader; the
edge spills before its ``continue``, ``break``, fall-out or inlined
target.  A fall-through into any other block keeps accumulating, and
each conditional branch restores the translation-time state (the
constant, whether it is exact, the forwards) for the arm it emits
second.  Everything else reads the exact pending amount as an
expression:

* throw and deopt sites hand the helpers ``p + C, n + K``;
* unconditional flushes charge ``p + C`` and retire ``n + K``.  With no
  sampler attached at translation the charge is
  :meth:`~repro.jvm.threads.SimThread.charge` written out
  (``thread.cycles_total += c``, ``thread.cycles_by_tag[CT] += c``);
  a sampler must see each charge, so then it stays a call.  After a
  flush the pending amount is known to be zero until the next leader,
  so later sites use the bare constants ``C, K`` and nothing resets
  ``p``/``n`` (their stale values are never read; a spill from that
  state assigns instead of adding).  An activation starts the same way
  unless a branch targets pc 0;
* flushes on one side of a run-time test — a cold string LDC, a
  contended MONITORENTER under the scheduler, the backedge safepoint
  (on the taken edges whose target pc is not above the branch, as in
  the dispatch loop) — spill first and zero ``p``/``n`` in place, so
  both sides agree.

Every leader is entered with its whole pending amount in ``p``/``n``
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
locals.  ALU instructions with a literal operand are specialized (the
table entries' ``Literal`` specializations): a shift count is masked at
translation, and a non-zero literal divisor needs no zero test.

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
quickened value at run time from the method's per-VM table, bound once
per template as ``QK`` (``_q = QK[pc]``); the parsed instruction is
shared by every VM in the process and holds no run-time state.
Exceptions raised *by* supported opcodes never deoptimize — the
template replicates the interpreter's throw sequence (synthesize, then
flush) and hands the exception to the interpreter's handler search, so
JVMTI MethodExit events and handler resumption are identical.

The counting form
-----------------

A method that is warm but not hot runs its *counting form*
(``translate(..., osr=True, counting=True)``): the dispatch form, so
one translation serves fresh entries and OSR entries alike, plus what
the dispatch loop does for the simulated JIT while the method is not
hot.  At each taken backward branch it does what ``_TAKEN`` does, in
its order: while ``not method.hot`` it counts ``backedge_count``; at
the threshold (inlined, so it is in the key) it flushes if
``vm.jit.enabled``, then calls ``vm.jit.compile``; then the safepoint.
It leaves for the interpreter exactly where the dispatch loop reloads
the costs and finds them changed, with nothing pending (deopt reason
``counting_switch``, which :meth:`JitCompiler.note_deopt` does not
hold against the method): at the threshold backedge when the compile
swapped the costs, at the target; and after a bytecode call returns to
a method compiled meanwhile (recursion, another thread), at the next
pc.  The loop does not reload costs after a native call, so neither
does the form.  The interpreter's next OSR takes the activation into
the hot form.  Under the JIT's veto or ``-Xint`` the costs never
change, and the activation runs on.  The form lives in
``LoadedMethod.counting``, not ``template``: only ``_run``'s tier
dispatch and OSR enter it, always framed, so a call into it still
counts the invocation, compiles at ``invoke_threshold`` and fires
MethodEntry in ``_enter_bytecode_method``.  Its own call sites call
``Interpreter._template_call``, the inline call protocol in one
function, which keeps its source (and ``compile()``'s peak memory)
small.  No counting form is made while a sampler is attached (a
sampler must see each charge, which OSR entries split).

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

Inlined leaf callees
--------------------

A hot translation (the structured form, and the dispatch form that is
also the OSR entry function; not a counting form) emits the body of a
small callee at its call site instead of the call, when at
translation the callee is hot and its installed template is a
deopt-free *leaf* (:func:`_inlinees`): at most :data:`MAX_INLINE_SIZE`
instructions (HotSpot's ``MaxInlineSize``), no exception handler, no
deopt site (no ``exclude_ops`` op, no cold constant-pool site: the
template would deoptimize, and inlining would hide it), and nothing a
leaf may not do (:data:`_NOT_LEAF`: calls, allocation, monitors,
``athrow``, statics, a string ``ldc``, backward branches).  The sites
are ``invokestatic`` and ``invokespecial`` through the resolved method,
and ``invokevirtual`` through its PIC's first entry (``q[4]``/``q[5]``,
seeded once and never replaced).  One level only.  Nothing is inlined
under a sampler, the scheduler, the race sanitizer or the tracer, or
while a method event is enabled at translation: each must see every
call, or reads the clock between flushes (below).

The body is rendered under its own names (:class:`_Source`): its
locals are the caller's argument expressions when pure and never
written, else ``J{k}``; its stack slots start above the caller's depth
at the site; its bound constants are ``{prefix}{site}_{pc}``, bound
through the caller's quickening table.  Every forward branch's arms are
emitted apart (the code after a merge repeats, within
``_INLINE_BUDGET``), so each path to a return knows its pending amount
at translation.  The body runs behind run-time guards, in this order
of what they test: the receiver is a ``JObject`` whose class ``is``
``q[4]`` (virtual: so not null, not an array, not a type-confused
operand) or is not null (special); the callee still has a template;
neither method-event flag is on (``vm.jvmti`` read at run time, as a
warm reset replaces it); and the depth check passes.  Inside the body a null reference, a
negative or too-large index or a zero divisor leaves the body (``_g =
0``, then the ``while``'s test fails) before any heap write, and a body
that would need to leave after one (``putfield``, ``iastore``,
``aastore``) is not inlined; field accesses on the receiver need no
null test, since the site tested it.  A failed guard or check runs the
call as before, through :meth:`Interpreter._template_call` (the inline
protocol in one function): so the NPE at the call site, the
``StackOverflowError``, an exception inside the callee with its
MethodExit and handler search, and PIC misses all stay as they were.

Accounting: the inlined path charges nothing.  The callee's costs along
the path taken, with the call's and the caller's pending constant, are
spilled into ``p``/``n`` at its return, as on a fall-through into a
leader; the fallback flushes as the call does, then zeroes ``p``/``n``,
so both leave the pending amount there.  The call's two charges and the
caller's next one merge into one, so every reader of ``cycles_total``
must sit behind a flush or a gate: PCL reads, natives, JVMTI callbacks
and safepoints sit behind flushes, samplers (which see each charge) are
a gate, and so is the tracer.  Its class-load span is the one reader
between flushes: a throw synthesizes its exception before it charges
(as the dispatch loop does), and the first synthesis of an exception
class loads it, so a throw after an inlined call would time that span
short by the callee's cost.  (The load's VM charge moves ahead of the
callee's cycles, which only a sampler could see; no synthesized
exception class has an initializer.)  Host counters stay exact: the
inlined path counts ``invocation_count``, ``vm.template_entries`` and,
at a virtual site, ``vm.ic_hits``, as the protocol does, and a check
that leaves takes them back before the call counts them again.

Per-VM and per-process caches
-----------------------------

A translation is a *plan*, made once per process for each distinct key
and bound to every VM that asks for it: HotSpot's split between
read-only shared data and each VM's own resolved state (Class Data
Sharing, JEP 310).  The key (:func:`_key`) is everything the source
depends on:

* the shared ``MethodInfo`` (one per class bytes); the plan pins it,
  so its ``id`` is never reused while the plan lives;
* the active cost tuple (compiled or interpreted costs);
* each quickened constant-pool site with what it writes into the
  source: a literal value, or the prefix of the constant it binds
  (:func:`_site_form`, which :class:`Backend` reads too).  A site not
  listed is cold;
* whether a sampler, a scheduler and the race sanitizer were present;
* the policy's code limit and OSR switch, ``exclude_ops`` and the
  ``osr`` form;
* the ``counting`` form, and for it the policy's backedge threshold;
* whether a method event was enabled;
* for each site that may inline its callee, the callee's ``MethodInfo``
  identity, its active costs and its quickened site forms (the
  callee plan's ``leaf``); the plan pins those ``MethodInfo`` s too.

The plan holds the source, its code object, ``osr_map``,
``structured``, its ``leaf`` key part and inlined-site count, and a
*recipe*: the per-site globals the source reads and where a VM finds
them (``{prefix}{pc}`` in its own ``quick[pc]``, ``A{pc}`` in the
operand stream, an inlined callee's ``M{pc}`` and PIC class ``R{pc}``,
and the callee's own constants in the callee's table).  :func:`_bind`
``exec``s the code object into a fresh namespace of that VM's objects (``vm``, ``heap``,
``loader``, ``MAXF``, ``method``, ``QK``, ``SP``, ``SAN`` and the
recipe's constants), so the function, its PIC lists and the per-VM
:class:`~repro.jit.codecache.TemplateCodeCache` stay the VM's and
nothing a VM owns enters the memo.  The memo (:data:`_plans`) keeps
the ``_PLAN_MEMO_SIZE`` most recently used plans, locks each lookup
and store so VMs on several host threads can translate at once, and
never holds a bail-out.  A code object's filename names its method, so
two methods with the same body keep their own.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict, namedtuple
from typing import NamedTuple, Optional, Tuple

from repro.bytecode.flow import build_cfg
from repro.bytecode.opcodes import SPECS, Op, OperandKind
from repro.errors import VerifyError
from repro.jit.policy import JitPolicy
from repro.jvm.costmodel import ChargeTag
from repro.jvm.interpreter import Unwind
from repro.jvm.semantics import (
    RUNTIME,
    SAFEPOINT,
    SEMANTICS,
    Flush,
    Lit,
    Quick,
    literal_of,
    prepare,
)
from repro.jvm.values import JObject
from repro.observability import logging as obs_logging

#: A pure operand expression, forwarded instead of stored: a Java
#: local (an inlined callee's ``J{k}``), an int or None literal, a bound
#: constant (an inlined callee's ``{prefix}{site}_{pc}``).
_PURE = re.compile(r"L\d+|-?\d+|None|[A-Z]\d+(?:_\d+)?")

#: The largest callee, in instructions, whose body a call site inlines
#: (HotSpot's ``MaxInlineSize`` is 35 bytecode bytes).
MAX_INLINE_SIZE = 35
#: Instructions an inlined body may emit (each forward branch's arms are
#: emitted apart, so the code after a merge repeats once per arm), and
#: how deep its arms may nest.
_INLINE_BUDGET = 3 * MAX_INLINE_SIZE
_INLINE_DEPTH = 8

#: Where an inlining site finds its callee in its quickened list: the
#: resolved method, or the first PIC entry's (``Interpreter._pic_miss``
#: seeds it once and never replaces it), behind its class ``q[4]``.
_CALLEE = {Op.INVOKESTATIC: 0, Op.INVOKESPECIAL: 0, Op.INVOKEVIRTUAL: 5}
_PIC_CLASS = Quick("{q}[4]")
#: What a leaf callee may not do: call, allocate, lock, throw, or touch
#: a static.
_NOT_LEAF = frozenset((
    Op.INVOKEVIRTUAL, Op.INVOKESTATIC, Op.INVOKESPECIAL, Op.NEW,
    Op.NEWARRAY, Op.MONITORENTER, Op.MONITOREXIT, Op.ATHROW,
    Op.GETSTATIC, Op.PUTSTATIC))
_HEAP_WRITES = frozenset((Op.PUTFIELD, Op.IASTORE, Op.AASTORE))
_RETURNS = frozenset((Op.IRETURN, Op.ARETURN, Op.RETURN))
_LOCAL_WRITES = frozenset((Op.ISTORE, Op.ASTORE, Op.IINC))


#: Bound on the plan memo, in distinct keys.  A Table I + Table II
#: pass makes 158 plans, so it only caps a process that
#: translates an unbounded stream of distinct methods.
_PLAN_MEMO_SIZE = 1024

#: The globals every template reads, the same objects in every VM.
_SHARED = dict(RUNTIME, CT=ChargeTag.BYTECODE, Unwind=Unwind,
               JObject=JObject)

#: The deopt reason of a counting activation leaving once its method
#: is compiled (:meth:`JitCompiler.note_deopt` does not hold it against
#: the method's templates).
SWITCH = "counting_switch"


class _Plan(NamedTuple):
    """One translation, shared read-only by every VM whose method has
    its key."""

    info: object  # pins the key's MethodInfo
    source: str
    code: object
    osr_map: dict
    structured: bool
    #: ``(name, path, pc, field)`` per per-site global: a VM binds
    #: ``field.value(quick[pc])``, or ``operands[pc]`` when ``field`` is
    #: None, of the method itself (``path`` None) or of the callee an
    #: inlining site finds at ``quick[path[0]][path[1]]``
    recipe: tuple
    #: the body-defining part of this plan's key when a caller may
    #: inline the method (small, no handler, no deopt site, nothing
    #: :data:`_NOT_LEAF`, no backward branch), else None
    leaf: Optional[tuple]
    #: call sites whose callee's body is inlined
    inlined: int
    #: pins the inlined callees' MethodInfos, which the key names by id
    callees: tuple


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _PlanMemo:
    """Key -> plan, least recently used out past ``maxsize``.  A lock
    guards each lookup and store; two threads that miss one key both
    translate, and the plans they make are equal."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._plans: "OrderedDict[tuple, _Plan]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = self._misses = 0

    def get(self, key) -> Optional[_Plan]:
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self._misses += 1
            else:
                self._hits += 1
                self._plans.move_to_end(key)
            return plan

    def put(self, key, plan: _Plan) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            if len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)

    def cache_info(self):
        """Hits, misses, bound and size, as ``lru_cache`` reports them."""
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self.maxsize,
                              len(self._plans))

    def cache_clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._hits = self._misses = 0


#: The per-process plan memo.
_plans = _PlanMemo(_PLAN_MEMO_SIZE)

_log = obs_logging.get_logger("jit.template")
#: Translations that raised (a translator bug, not a bail-out) in this
#: process, and the lock that counts them.
_errors = [0]
_errors_lock = threading.Lock()


def translation_errors() -> int:
    """How many translations in this process raised an exception (each
    ends as an ``error:<Type>`` bail-out, logged as a warning)."""
    return _errors[0]


class _Bail(Exception):
    """Translation abandoned; ``reason`` is the metrics key."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Unstructured(Exception):
    """The structured layout cannot express an edge, or passes one of
    its bounds: the method keeps the dispatch form."""


class _NotLeaf(Exception):
    """A call site's callee cannot be inlined there: the site keeps the
    call."""


class _Source:
    """The instructions being emitted and what their names read: the
    translated method's own, or those of a leaf callee whose body an
    inlining call site emits under its own names (locals ``J{k}`` or the
    caller's argument expressions, stack slots from the caller's depth
    at the site up, bound constants ``{prefix}{site}_{pc}``)."""

    def __init__(self, method, effects, depth_at, local_names,
                 exclude_ops=frozenset(), site=None, index=None, offset=0):
        self.ops = method.ops
        self.operands = method.operands
        self.quick = method.quick
        self.costs = method.active_costs
        self.cp = method.owner.constant_pool
        self.effects = effects
        self.depth_at = depth_at
        self.locals = local_names
        self.exclude_ops = exclude_ops
        #: where the translated method's quickening table holds the
        #: callee, for the recipe (None: the method itself)
        self.path = None if site is None else (site, index)
        self.prefix = "" if site is None else f"{site}_"
        #: the callee's stack slot i is the caller's ``s{offset + i}``
        self.offset = offset
        #: the receiver's expression, when no instruction rewrites it:
        #: the site tested it, so field accesses on it cannot throw
        self.this = None
        self.budget = _INLINE_BUDGET
        #: emission state along the current path: a heap write emitted,
        #: and over the whole body: a check that leaves it, a branch
        self.wrote = self.failed = self.branched = False

    def name(self, form: str, pc: int) -> str:
        return f"{form}{self.prefix}{pc}"


#: Bounds on the structured form, past which a method keeps the
#: dispatch form: nested ``while`` loops, indentation levels of any
#: line below the function's body, and blocks placed in one chain of
#: inlined arms (the layout recurses along it).  Well inside CPython's
#: 20 statically nested blocks (a loop body adds at most one ``try``)
#: and 100 indentation levels.
_MAX_LOOPS = 12
_MAX_INDENT = 24
_MAX_CHAIN = 200


class _Layout:
    """Where the structured form puts each block (Ramsey, "Beyond
    Relooper", ICFP 2022, within Python's innermost-only ``break`` and
    ``continue``).  Blocks are the CFG's blocks reachable along normal
    edges, by index.

    * A loop header opens ``while 1:``; a back edge is ``continue``.
    * A block with two or more forward in-edges (a merge) is a follow
      of its immediate dominator: it goes after the construct whose
      arms fall into it — inside the dominator's loop when the
      dominator is a loop header and the block is in its loop, else
      right after that loop, reached by ``break``.
    * A loop header's one exit that rejoins other code goes right
      after its loop too, when no merge is placed there.
    * Every other block goes where it is branched to (``inline``), so
      exits that only return or throw stay inside their loop.
    """

    def __init__(self, cfg):
        dom = cfg.dominance()
        if not dom.reducible:
            raise _Unstructured
        blocks = cfg.blocks
        #: loop header -> the blocks of its natural loop
        self.loops = loops = dom.loops
        forward = {node: [] for node in dom.order}
        for node in dom.order:
            for i, succ in enumerate(blocks[node].successors):
                if (node, succ) not in dom.back_edges:
                    forward[succ].append((node, i))
        #: block -> the (source, successor index) edge it is inlined at
        self.inline_at = {}
        #: block -> follows placed after its code (inside its loop) and
        #: after its loop, in reverse postorder
        self.inside = {node: [] for node in dom.order}
        self.after = {node: [] for node in dom.order}
        for node in dom.order[1:]:
            owner = dom.idom[node]
            if len(forward[node]) > 1:
                if owner in loops and node not in loops[owner]:
                    self.after[owner].append(node)
                else:
                    self.inside[owner].append(node)
            else:
                self.inline_at[node] = forward[node][0]
        for header, body in loops.items():
            if self.after[header]:
                continue
            for node in dom.children[header]:
                if node not in body and node in self.inline_at and \
                        self._rejoins(dom, blocks, node):
                    del self.inline_at[node]
                    self.after[header].append(node)
                    break

    @staticmethod
    def _rejoins(dom, blocks, node) -> bool:
        """Whether control leaves the blocks ``node`` dominates: it
        does not only return or throw."""
        work = [node]
        while work:
            current = work.pop()
            for succ in blocks[current].successors:
                if not dom.dominates(node, succ):
                    return True
            work.extend(dom.children[current])
        return False


def translate(method, vm, policy=None, exclude_ops=frozenset(), osr=False,
              counting=False
              ) -> Tuple[Optional[object], Optional[str], Optional[str]]:
    """Translate ``method`` into a template function.

    Returns ``(func, source, None)`` on success or ``(None, None,
    reason)`` on bail-out.  The function is the structured form when
    the method's layout allows it, else the dispatch form; ``osr=True``
    asks for the dispatch form, whose entry stubs let an interpreted
    frame enter at a loop header (the OSR entry function).
    ``counting=True`` (with ``osr=True``) asks for the counting form,
    which keeps the JIT's backedge counter for a method not yet hot.
    ``func.structured`` says which form it is and ``func.osr_map``
    maps each loop header to its stack depth.  ``exclude_ops`` (ints)
    forces deopt sites for those opcodes — used by tests to exercise
    the deopt machinery.  The translation comes from the process's
    plan memo when another VM made the same one.  A translator
    exception is a bail-out too (``error:<Type>``), so a translator bug
    never stops a run; it is logged as a warning naming the method and
    counted (:func:`translation_errors`).
    """
    try:
        plan = _plan(method, vm, policy or JitPolicy(),
                     frozenset(int(o) for o in exclude_ops), osr, counting)
        return _bind(plan, method, vm), plan.source, None
    except _Bail as bail:
        return None, None, bail.reason
    except Exception as exc:  # never let translation break execution
        with _errors_lock:
            _errors[0] += 1
        _log.warning("template translation failed",
                     method=method.qualified_name,
                     error=f"{type(exc).__name__}: {exc}")
        return None, None, f"error:{type(exc).__name__}"


def _plan(method, vm, policy, exclude_ops, osr, counting) -> _Plan:
    """``method``'s plan: the memo's, else a fresh translation, which
    the memo then keeps."""
    key = _key(method, vm, policy, exclude_ops, osr, counting)
    plan = _plans.get(key)
    if plan is None:
        plan = _translate(method, vm, policy, exclude_ops, osr, counting)
        _plans.put(key, plan)
    return plan


#: Opcode -> the fields of its quickened constant that the source may
#: show (those not known from the constant pool).
_SITE_FIELDS = {int(op): tuple(field for field in entry.quick.values()
                               if field.known is None)
                for op, entry in SEMANTICS.items() if entry.resolve}


def _site_form(field, q):
    """How a quickened site's ``field`` shows in the source: a
    :class:`Lit` of its value, or the prefix of the constant
    ``{prefix}{pc}`` a VM binds it to."""
    if field.bind is None:
        return Lit(field.value(q))
    return field.bind(q) if callable(field.bind) else field.bind


def _sites(method) -> tuple:
    """Each quickened site of ``method`` with what it writes into the
    source."""
    ops = method.ops
    return tuple((pc, tuple([repr(_site_form(field, q))
                             for field in _SITE_FIELDS[ops[pc]]]))
                 for pc, q in enumerate(method.quick) if q is not None)


def _method_events(vm) -> bool:
    jvmti = vm.jvmti
    return jvmti.method_entry_enabled or jvmti.method_exit_enabled


def _inlinees(method, vm, counting) -> dict:
    """Call site pc -> the callee whose body the site may inline: a hot
    callee whose installed template may be inlined (its plan's
    ``leaf``).  None in a counting form, or under a sampler, the
    scheduler, the race sanitizer, a method event or the tracer."""
    if counting or vm.threads.samplers or vm.scheduler is not None or \
            vm.sanitizer is not None or vm.obs.tracer.enabled or \
            _method_events(vm):
        return {}
    found = {}
    ops = method.ops
    for pc, q in enumerate(method.quick):
        op = ops[pc]
        if q is None or op not in _CALLEE:
            continue
        if op == Op.INVOKEVIRTUAL and q[4] is None:  # PIC not seeded
            continue
        callee = q[_CALLEE[op]]
        if getattr(callee.template, "leaf", None) is not None:
            found[pc] = callee
    return found


def _key(method, vm, policy, exclude_ops, osr, counting) -> tuple:
    """Everything ``method``'s source depends on in ``vm`` (the module
    docstring, *Per-VM and per-process caches*)."""
    return (id(method.info), method.active_costs, _sites(method),
            not vm.threads.samplers, vm.scheduler is not None,
            vm.sanitizer is not None, policy.template_code_limit,
            policy.osr, exclude_ops, osr,
            counting and policy.backedge_threshold, _method_events(vm),
            tuple([(pc, callee.template.leaf) for pc, callee in
                   _inlinees(method, vm, counting).items()]))


def _bind(plan: _Plan, method, vm):
    """``plan``'s template function in ``vm``: the shared code object
    ``exec``'d into a fresh namespace of the VM's own objects."""
    quick = method.quick
    namespace = dict(_SHARED, vm=vm, heap=vm.heap, loader=vm.loader,
                     MAXF=vm.cost_model.max_frames, method=method,
                     QK=quick, SP=vm.scheduler, SAN=vm.sanitizer)
    for name, path, pc, field in plan.recipe:
        owner = method if path is None else quick[path[0]][path[1]]
        namespace[name] = owner.operands[pc] if field is None \
            else field.value(owner.quick[pc])
    exec(plan.code, namespace)
    func = namespace["template"]
    # published for the code cache (OSR eligibility and entry, inlined
    # sites) and for callers that may inline this method; the return
    # shape is unchanged so monkeypatching tests keep working
    func.osr_map = plan.osr_map
    func.structured = plan.structured
    func.leaf = plan.leaf
    func.inlined = plan.inlined
    return func


def _translate(method, vm, policy, exclude_ops, osr, counting) -> _Plan:
    """Make ``method``'s plan in ``vm``, or raise :class:`_Bail`."""
    info = method.info
    code = info.code
    if not code:
        raise _Bail("no_code")
    n_ins = len(code)
    if n_ins > policy.template_code_limit:
        raise _Bail("too_long")
    n_locals = info.max_locals
    n_args = info.arg_slots
    if n_args > n_locals:
        # the interpreter keeps the extra arguments, but the prologue
        # unpacks exactly max_locals values
        raise _Bail("args_exceed_locals")
    ops = method.ops
    operands = method.operands
    quick = method.quick
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

    # -- leaders: entry plus the targets of the branches that end the
    # emitted blocks; loop headers (for OSR) are the backward targets
    targets = set()
    back_targets = set()
    for block in emitted:
        pc = block.end - 1
        if 0x50 <= ops[pc] <= 0x60:
            target = operands[pc]
            targets.add(target)
            if target <= pc:
                back_targets.add(target)
    bid = {pc: i for i, pc in enumerate(sorted({0} | targets))}

    # -- OSR entry points: every loop header gets an entry stub in the
    # dispatch form that rebuilds the flattened stack slots from the
    # live interpreter frame and starts execution at the header's block
    # (deopt frame reconstruction run in reverse).  {header pc: stack
    # depth} — the interpreter matches the live frame's depth against
    # this map before entering.
    osr_map = {t: depth_at[t] for t in back_targets} if policy.osr else {}

    # -- call sites that inline their callee's body
    inlinees = _inlinees(method, vm, counting)
    inlined = []

    # -- pcs an exception-table entry covers: only a throw there can
    # reach a handler in this activation, so only there do the throw
    # helpers need the Java locals
    covered = [False] * n_ins
    for entry in info.exception_table:
        for pc in range(entry.start, entry.end):
            covered[pc] = True

    # -- source emission.  The per-site globals the source reads, by
    # name: where a VM finds each (the plan's recipe)
    recipe = {}

    # the Java locals: unpacked from the frame (framed or OSR entry) or
    # from the caller's fresh argument list (frameless entry), padded
    # with None to max_locals as Frame.__init__ pads
    local_names = [f"L{i}" for i in range(n_locals)]
    locals_list = "[" + ", ".join(local_names) + "]"
    # the instructions being emitted: this method's, or an inlined
    # callee's (``inline_call``)
    src = top = _Source(method, effects, depth_at, local_names,
                        exclude_ops)
    deopts = [False]  # whether the source has a deopt site
    lines = ["def template(interp, thread, frame, osr_pc=-1, l=None):"]
    if n_locals:
        lines.append("    if l is None:")
        lines.append(f"        {', '.join(local_names)}, = frame.locals")
        lines.append("    else:")
        if n_args:
            lines.append(f"        {', '.join(local_names[:n_args])}, = l")
        if n_locals > n_args:
            lines.append(f"        {' = '.join(local_names[n_args:])} = None")
    # leaders entered without a spill start from zero: the entry block
    # when a branch also targets pc 0, and OSR-entered loop headers
    # (when nothing branches to pc 0, the entry starts known zero and
    # writes p/n before reading them)
    if 0 in targets:
        lines.append("    p = 0")
        lines.append("    n = 0")

    # Emission writes into ``sink[0]`` at indentation ``pad[0]`` plus a
    # relative depth, the deepest of which is ``deep[0]``; the
    # structured form captures each arm into its own buffer first
    # (:func:`capture`), then splices it (``put``).
    sink = [[]]
    pad = ["    "]
    deep = [0]

    def out(rel, text):
        sink[0].append(pad[0] + "    " * rel + text)
        if rel > deep[0]:
            deep[0] = rel

    # Pending accounting at translation time: ``seg`` is the constant
    # (cycles, instructions) accumulated since the last spill or flush;
    # ``known_zero`` says nothing has been spilled into ``p``/``n``
    # since the activation began or last flushed, so the pending amount
    # is exactly ``seg`` and the run-time values of ``p``/``n`` are
    # stale (never read).
    seg = [0, 0]
    known_zero = [True]

    def acc(pc):
        seg[0] += src.costs[pc]
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

    def enter_leader():
        """A leader is entered with its whole pending amount in
        ``p``/``n`` and its stack in ``s0..s{d-1}``."""
        seg[0] = seg[1] = 0
        known_zero[0] = False
        fwd.clear()

    def save():
        """The translation-time state one arm of a branch starts from:
        the pending constant, whether it is exact, the forwards."""
        return list(seg), known_zero[0], dict(fwd)

    def restore(state):
        seg[:], known_zero[0] = state[0], state[1]
        fwd.clear()
        fwd.update(state[2])

    # With no sampler attached at translation, a charge is
    # SimThread.charge written out: its two additions, no call.  A
    # sampler must see every charge, so then the call stays.
    inline_charge = not vm.threads.samplers

    def charge(rel, cycles):
        if not inline_charge:
            out(rel, f"thread.charge({cycles}, CT)")
            return
        if " " in cycles:
            out(rel, f"_c = {cycles}")
            cycles = "_c"
        out(rel, f"thread.cycles_total += {cycles}")
        out(rel, f"thread.cycles_by_tag[CT] += {cycles}")

    def flush(pc, rel=0, set_pc=True):
        # matches the interpreter: pending includes this op's cost
        # (>= 1), so the charge/retire are unconditional.  Only the
        # race sanitizer's stack capture reads frame.pc between slow
        # paths (which are handed the pc), so only it gets the store.
        if src is not top:
            raise _NotLeaf
        if set_pc and san_on:
            out(rel, f"frame.pc = {pc}")
        cycles, icount = pending()
        charge(rel, cycles)
        out(rel, f"vm.instructions_retired += {icount}")
        seg[0] = seg[1] = 0
        known_zero[0] = True

    def flush_spilled(pc, rel):
        """A flush on one side of a run-time branch (cold string LDC,
        contended MONITORENTER, backedge safepoint): the caller spilled
        first, and ``p``/``n`` are zeroed so both sides agree after."""
        if src is not top:
            raise _NotLeaf
        if san_on:
            out(rel, f"frame.pc = {pc}")
        charge(rel, "p")
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
        if literal_of(expr) is not None:
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
        if src is not top:
            raise _NotLeaf
        deopts[0] = True
        slots = ", ".join(opnd(i) for i in range(d))
        cycles, icount = pending()
        out(rel, f"return interp._template_deopt(thread, frame, method, "
                 f"{locals_list}, {pc}, [{slots}], {cycles}, {icount}, "
                 f"{reason!r})")

    def throw(pc, cls, msg_expr, rel=0):
        if src is not top:
            # an inlined body leaves for the call, which throws; only
            # before a heap write, since the call runs the body again
            if src.wrote:
                raise _NotLeaf
            src.failed = True
            out(rel, "_g = 0")
            out(rel, "continue")
            return
        cycles, icount = pending()
        out(rel, f"return interp._template_throw(thread, frame, method, "
                 f"{handler_locals(pc)}, {pc}, {cls!r}, {msg_expr}, "
                 f"{cycles}, {icount})")

    def raise_exc(pc, exc_expr, rel=0):
        """Throw ``exc_expr`` at ``pc``: an ATHROW, or an exception that
        escaped a call made at ``pc``."""
        if src is not top:
            raise _NotLeaf
        cycles, icount = pending()
        out(rel, f"return interp._template_raise(thread, frame, method, "
                 f"{handler_locals(pc)}, {pc}, {exc_expr}, {cycles}, "
                 f"{icount})")

    def cold_guard(pc, d):
        """Cold constant-pool site: deopt until the interpreter has
        quickened it, then read the quickened value at run time from
        this VM's table (``QK``, the method's ``quick``)."""
        if src is not top:
            raise _NotLeaf
        out(0, f"_q = QK[{pc}]")
        out(0, "if _q is None:")
        deopt(pc, d, "cold_site", rel=1)
        acc(pc)

    # preemptive scheduler (cores > 1): emit safepoint checks at
    # backedges and call boundaries.  Gated at translation time — at
    # cores=1 the emitted source carries no scheduler code at all.
    sched_on = vm.scheduler is not None

    # race sanitizer: emit the same shadow hooks the interpreter runs,
    # at the same points.  Gated at translation time — with --sanitize
    # off the emitted source carries no sanitizer code, and the hooks
    # are host-side only (no charge, no retire), so simulated cycle
    # accounting is untouched either way.  Its stack capture walks
    # thread.frames, so under it every call keeps its Frame.
    san_on = vm.sanitizer is not None

    def safepoint_backedge(target, rel):
        """Quantum check at a taken backward branch (pending charges
        still in ``p``, exactly the interpreter's check)."""
        out(rel, "if thread.cycles_total + p >= thread.preempt_at:")
        flush_spilled(target, rel + 1)
        out(rel + 1, "SP.preempt(thread)")

    def switch(pc, slots, rel):
        """The counting form's way out once the method is compiled,
        where the dispatch loop would reload its costs: deopt at ``pc``
        with nothing pending."""
        out(rel, f"return interp._template_deopt(thread, frame, method, "
                 f"{locals_list}, {pc}, [{', '.join(slots)}], 0, 0, "
                 f"{SWITCH!r})")

    def count_backedge(target):
        """The counting form's taken backward branch, as ``_TAKEN``
        counts one: while the method is not hot, count; at the
        threshold flush (if the JIT is on) and compile; then the
        safepoint.  A compile that swapped the costs leaves for the
        interpreter at the target, whose next OSR enters the hot
        form."""
        out(0, "if not method.hot:")
        out(1, "method.backedge_count += 1")
        out(1, f"if method.backedge_count >= {policy.backedge_threshold}:")
        out(2, "if vm.jit.enabled:")
        flush_spilled(target, 3)
        out(2, "vm.jit.compile(thread, method)")
        out(2, "if method.compiled:")
        if sched_on:  # nothing is pending: the check alone
            out(3, "if thread.cycles_total >= thread.preempt_at:")
            if san_on:
                out(4, f"frame.pc = {target}")
            out(4, "SP.preempt(thread)")
        switch(target, [f"s{i}" for i in range(depth_at[target])], 3)

    def taken_edge(pc, target, live):
        """A taken branch at ``pc``.  A conditional one writes the
        forwarded slots below ``live`` and the pending amount on the
        edge only, so the fall-through keeps both; a goto (``live``
        None) writes them all.  The dispatch loop counts (in a counting
        form) and checks a safepoint on taken branches whose target pc
        is not above the branch."""
        pin_all(live=live)
        spill(edge=live is not None)
        if target <= pc:
            if counting:
                count_backedge(target)
            if sched_on:
                safepoint_backedge(target, rel=0)

    def bound(form, pc, field):
        """The global a VM binds to the current source's site ``pc``
        (its operand when ``field`` is None)."""
        name = src.name(form, pc)
        recipe[name] = (src.path, pc, field)
        return name

    class Backend:
        """One instruction's fields and directives, for
        :func:`repro.jvm.semantics.prepare`: operands are stack slots
        (forwarded expressions where pure), a quickened site's fields
        are bound constants or literals, a cold site's are read from
        ``_q``."""

        def __init__(self, pc, d, entry):
            self.pc = pc
            self.entry = entry
            self.quick = src.quick[pc]
            pops = src.effects[pc][0]
            self.base = d - pops
            self.slot = {name: self.base + i
                         for i, name in enumerate(entry.operands)}
            self.captured = None  # an operand the sanitizer reads late
            self.unchanged = set()
            self.forwards = {}

        def value(self, name):
            entry = self.entry
            if name in self.slot:
                if name == self.captured:
                    return f"_{name}"
                i = self.slot[name]
                return ref(i) if name in entry.refs else opnd(i)
            pc = self.pc
            field = entry.quick.get(name)
            if field is not None:
                if field.known is not None:
                    return Lit(field.known(src.cp, src.operands[pc]))
                q = self.quick
                if q is None:
                    return field.access.format(q="_q")
                form = _site_form(field, q)
                if type(form) is Lit:
                    return form
                return bound(form, pc, field)
            operand = src.operands[pc]
            if name == "local":
                iinc = entry.spec.operand is OperandKind.IINC
                return src.locals[operand[0] if iinc else operand]
            if name == "delta":
                return repr(operand[1])
            if name == "kind":
                return bound("A", pc, None)
            return repr(operand) if name == "imm" else str(pc)

        def literals(self):
            values = {name: literal_of(opnd(i))
                      for name, i in self.slot.items()
                      if name not in self.entry.refs}
            return {k: v for k, v in values.items() if v is not None}

        @staticmethod
        def gate(kind):
            return san_on if kind == "san" else sched_on

        def render(self, lines):
            pc = self.pc
            for line in lines:
                rel = line.depth
                kind = line.kind
                if kind is None:
                    out(rel, line.text)
                elif kind == "result":
                    self.result(rel, *line.args)
                elif kind == "throw":
                    throw(pc, line.args[0], line.args[1], rel=rel)
                elif kind == "raise":
                    raise_exc(pc, line.args[0], rel=rel)
                elif kind == "flush":
                    if rel:  # one run-time side: spilled before
                        flush_spilled(pc, rel)
                    else:
                        flush(pc, rel)
                elif kind == "args":
                    np = src.effects[pc][0]
                    args = ", ".join(opnd(i) for i in range(self.base,
                                                            self.base + np))
                    out(rel, f"_a = [{args}]")
                elif kind == "call":
                    call(rel, pc, self.base, f"s{self.base} = "
                         if src.effects[pc][1] else "")
                else:  # return
                    value = line.args[0]
                    out(rel, "return" if value is None
                        else f"return {value}")

        def result(self, rel, raw, exprs):
            """Store the pushed values: an operand written back to its
            own position stays, a pure value of a forwarding op is
            forwarded, the rest are assigned."""
            names = self.entry.operands
            targets, values = [], []
            for i, (token, expr) in enumerate(zip(raw, exprs)):
                slot = self.base + i
                if i < len(names) and token == "{" + names[i] + "}":
                    self.unchanged.add(slot)
                elif self.entry.forwards and rel == 0 and \
                        _PURE.fullmatch(expr):
                    self.forwards[slot] = expr
                else:
                    targets.append(f"s{slot}")
                    values.append(expr)
            if targets:
                out(rel, f"{', '.join(targets)} = {', '.join(values)}")

    def call(rel, pc, base, result):
        """The call protocol: frameless into a templated callee,
        through the interpreter otherwise.  A counting form, and the
        fallback of a site that inlines its callee, call
        ``Interpreter._template_call``, which does what the inline
        protocol does, so that their source stays small; and after a
        bytecode callee returns to a method compiled meanwhile a
        counting form leaves where the dispatch loop reloads the costs
        (the loop keeps them after a native)."""
        compact = counting or fallback[0]
        if compact and not san_on:
            out(rel, "try:")
            out(rel + 1, f"{result}interp._template_call(thread, _m, _a)")
        elif san_on:
            out(rel, "try:")
            out(rel + 1, "if _m.is_native:")
        else:
            # frameless template-to-template call: everything
            # _enter_bytecode_method and _run's tier dispatch do, in the
            # same order, minus the Frame (a templated callee is hot, so
            # there is no hotness check)
            out(rel, "_t = _m.template")
            out(rel, "if _t is not None:")
            out(rel + 1, "if len(thread.frames) + thread.frameless >= MAXF:")
            out(rel + 2, "interp._stack_overflow(_m)")
            out(rel + 1, "_m.invocation_count += 1")
            out(rel + 1, "if vm.jvmti.method_entry_enabled:")
            out(rel + 2, "vm.jvmti.dispatch_method_entry(thread, _m)")
            out(rel + 1, "vm.template_entries += 1")
            out(rel + 1, "thread.frameless += 1")
            out(rel, "try:")
            out(rel + 1, "if _t is not None:")
            out(rel + 2, f"{result}_t(interp, thread, None, -1, _a)")
            out(rel + 2, "thread.frameless -= 1")
            out(rel + 1, "elif _m.is_native:")
        if san_on or not compact:
            out(rel + 2, f"{result}interp._invoke_native(thread, _m, _a)")
            out(rel + 1, "else:")
            out(rel + 2, "interp._enter_bytecode_method(thread, _m, _a)")
            out(rel + 2,
                f"{result}interp._run(thread, len(thread.frames) - 1)")
        out(rel, "except Unwind as _u:")
        if not san_on and not compact:
            out(rel + 1, "if _t is not None:")
            out(rel + 2, "thread.frameless -= 1")
        raise_exc(pc, "_u.jobject", rel=rel + 1)
        if counting:
            out(rel, "if method.compiled and not _m.is_native:")
            switch(pc + 1, [opnd(i) for i in range(base)]
                   + ([f"s{base}"] if result else []), rel + 1)

    def emit_op(pc, op, d):
        """Emit one non-branch instruction; returns True when it falls
        through."""
        spec = SPECS[op]
        if op in src.exclude_ops:
            # the code after the deopt is emitted but never runs
            deopt(pc, d, f"unsupported_op:{spec.mnemonic}")
            consumed(pc, d)
            return not spec.ends_block

        entry = SEMANTICS[op]
        backend = Backend(pc, d, entry)
        if entry.resolve is not None and backend.quick is None:
            cold_guard(pc, d)
        else:
            acc(pc)
            callee = inlinees.get(pc) if src is top else None
            if callee is not None and inline_call(pc, d, entry, backend,
                                                  callee):
                return True
        emit_effect(pc, d, entry, backend)
        return not spec.ends_block

    def emit_effect(pc, d, entry, backend):
        """An instruction's effect once its cost is accounted."""
        spec = entry.spec
        if entry.flush is Flush.BEFORE:
            # the frame's pc is dead once the activation ends
            flush(pc, set_pc=not spec.ends_block)
        if entry.safepoint:
            backend.render(prepare(entry, backend, SAFEPOINT))
        if san_on and entry.operands and spec.pushes and re.search(
                r"!san .*\{" + entry.operands[0] + "}", entry.body):
            # the hook reads the object after the result took its slot
            name = entry.operands[0]
            out(0, f"_{name} = {backend.value(name)}")
            backend.captured = name
        lines = prepare(entry, backend)
        if src.this is not None and "o" in backend.slot and \
                backend.value("o") == src.this and \
                lines[0].text == f"if {src.this} is None:" and \
                lines[1].kind == "throw":
            # a field of an inlined callee's receiver, which its call
            # site tested
            lines = lines[2:]
        if entry.writes_local:
            local = backend.value("local")
            if len(lines) == 1 and lines[0].text == f"{local} = {local}":
                lines = []  # storing Lk's own value is a no-op
            else:
                pin_local(local)
        if entry.flush is Flush.ONE_SIDE and any(
                line.kind == "flush" and line.depth for line in lines):
            spill()  # the flush below is on one run-time side only
        backend.render(lines)
        consumed(pc, d, backend.unchanged)
        fwd.update(backend.forwards)

    def emit_branch(pc, op, d):
        """Account a branch at ``pc``; returns its condition and the
        depth below its operands, both None for a goto."""
        if op in src.exclude_ops:
            # the branch after the deopt is emitted but never runs
            deopt(pc, d, f"unsupported_op:{SPECS[op].mnemonic}")
        acc(pc)
        entry = SEMANTICS[op]
        if entry.cond is None:
            return None, None
        backend = Backend(pc, d, entry)
        return entry.cond.format_map(
            {name: backend.value(name) for name in entry.operands}), \
            backend.base

    def consumed(pc, d, unchanged=()):
        """The consumed slots' forwards die with them (a slot the
        instruction leaves as it is keeps its forward)."""
        for i in range(d - src.effects[pc][0], d):
            if i not in unchanged:
                fwd.pop(i, None)

    # -- inlined leaf callees (the module docstring, *Inlined leaf
    # callees*)

    #: whether the call being emitted is an inlining site's fallback
    fallback = [False]

    def inline_call(pc, d, entry, backend, callee):
        """The call at ``pc`` (its cost accounted) with ``callee``'s body
        inlined behind run-time guards, and today's call as the
        fallback.  Both leave the pending amount in ``p``/``n``.
        Returns False, having emitted nothing, when the body cannot be
        inlined."""
        state = save()
        names = set(recipe)
        try:
            body, inl = capture(lambda: inline_body(pc, d, backend.base,
                                                    callee))
            if body[1] > _INLINE_DEPTH:
                raise _NotLeaf
        except (_NotLeaf, _Bail, _Unstructured):
            restore(state)
            for name in set(recipe) - names:
                del recipe[name]
            return False
        restore(state)
        recipe[f"M{pc}"] = (None, pc, Quick(f"{{q}}[{_CALLEE[ops[pc]]}]"))
        guard = [f"M{pc}.template is not None",
                 "not vm.jvmti.method_entry_enabled",
                 "not vm.jvmti.method_exit_enabled",
                 "len(thread.frames) + thread.frameless < MAXF"]
        if entry.refs:
            recv = ref(backend.base)
            if ops[pc] == Op.INVOKEVIRTUAL:
                # an object (not null, an array or a type-confused int)
                # of the PIC's first class
                recipe[f"R{pc}"] = (None, pc, _PIC_CLASS)
                guard[:0] = [f"{recv}.__class__ is JObject",
                             f"{recv}.jclass is R{pc}"]
            else:
                guard.insert(0, f"{recv} is not None")
        if inl.failed:
            # a check in the body that fails clears _g and re-tests the
            # loop's condition, which runs the else: the call
            out(0, "_g = 1")
            guard.insert(0, "_g")
        if inl.failed or inl.branched:
            out(0, f"while {' and '.join(guard)}:")
        else:
            body[0].pop()  # the one path's break
            out(0, f"if {' and '.join(guard)}:")
        put(body, 1)
        out(0, "else:")
        call_code, _ = capture(lambda: fallback_call(pc, d, entry, backend,
                                                     inl.failed))
        put(call_code, 1)
        seg[0] = seg[1] = 0
        known_zero[0] = False
        inlined.append(callee.info)
        return True

    def counters(pc, step):
        """The host counters the call protocol writes at ``pc``."""
        yield f"M{pc}.invocation_count {step}= 1"
        yield f"vm.template_entries {step}= 1"
        if ops[pc] == Op.INVOKEVIRTUAL:
            yield f"vm.ic_hits {step}= 1"

    def fallback_call(pc, d, entry, backend, failed):
        """Today's call, once the guards or a check in the body failed;
        what it flushed is zero in ``p``/``n`` after."""
        if failed:
            out(0, "if not _g:")  # the body had counted the call
            for line in counters(pc, "-"):
                out(1, line)
        fallback[0] = True
        try:
            emit_effect(pc, d, entry, backend)
        finally:
            fallback[0] = False
        out(0, "p = 0")
        out(0, "n = 0")

    def inline_body(pc, d, base, callee):
        """Emit ``callee``'s body as called at ``pc`` (stack depth ``d``,
        arguments from slot ``base``): the protocol's counts, the
        arguments bound to its locals, then every path to a return.
        Returns the callee's :class:`_Source`."""
        nonlocal src
        info = callee.info
        depths, callee_effects, _ = build_cfg(
            info.code, info.exception_table).stack_depths(
            callee.owner.constant_pool)
        written = {operand[0] if op == Op.IINC else operand
                   for op, operand in zip(callee.ops, callee.operands)
                   if op in _LOCAL_WRITES}
        names, binds = [], []
        for k in range(info.max_locals):
            expr = opnd(base + k) if k < info.arg_slots else "None"
            if k < info.arg_slots and k not in written and \
                    _PURE.fullmatch(expr):
                names.append(expr)
            else:
                names.append(f"J{k}")
                binds.append(f"J{k} = {expr}")
        inl = _Source(callee, callee_effects, depths, names, site=pc,
                      index=_CALLEE[ops[pc]], offset=d)
        if not info.is_static and 0 not in written:
            inl.this = names[0]
        outer, src = src, inl
        try:
            for line in counters(pc, "+"):
                out(0, line)
            for line in binds:
                out(0, line)
            inline_path(0, base)
        finally:
            src = outer
        return inl

    def inline_path(cpc, base):
        """Emit the inlined callee from its ``cpc`` to a return along
        each path, forward branches' arms apart; a return stores the
        result in the call's slot ``base``, spills the pending amount
        and ends in ``break``."""
        while True:
            src.budget -= 1
            if src.budget < 0:
                raise _NotLeaf
            op = src.ops[cpc]
            d = src.offset + src.depth_at[cpc]
            if op in _RETURNS:
                acc(cpc)
                if op != Op.RETURN:
                    out(0, f"s{base} = {opnd(d - 1)}")
                spill()
                out(0, "break")
                return
            if not SPECS[op].is_branch:
                emit_op(cpc, op, d)
                src.wrote = src.wrote or op in _HEAP_WRITES
                cpc += 1
                continue
            target = src.operands[cpc]  # forward: the callee is a leaf
            cond, _ = emit_branch(cpc, op, d)
            if cond is None:  # goto
                cpc = target
                continue
            src.branched = True
            state, wrote = save(), src.wrote
            out(0, f"if {cond}:")
            taken, _ = capture(lambda: inline_path(target, base))
            put(taken, 1)
            restore(state)
            src.wrote = wrote
            consumed(cpc, d)
            cpc += 1

    # -- the dispatch form: basic blocks become arms of a ``while 1``
    # dispatch over a block index ``b``, with OSR entry stubs

    def dispatch_form():
        pad[0] = "            "
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
        fallthrough = False
        first_arm = True
        for pc in (pc for block in emitted for pc in block.pcs):
            d = depth_at[pc]
            if pc in bid:
                if fallthrough:
                    pin_all()
                    spill()
                    out(0, f"b = {bid[pc]}")
                    out(0, "continue")
                kw = "if" if first_arm else "elif"
                sink[0].append(f"        {kw} b == {bid[pc]}:")
                first_arm = False
                # every way into an arm (a spill, or the OSR/entry
                # zeroing) leaves the whole pending amount in p/n; only
                # the entry arm, when nothing branches to it, starts
                # known zero
                enter_leader()
                known_zero[0] = pc == 0 and 0 not in targets
            elif pc != 0 and not fallthrough:
                raise _Bail("emit_inconsistent")
            op = ops[pc]
            if not SPECS[op].is_branch:
                fallthrough = emit_op(pc, op, d)
                continue
            cond, live = emit_branch(pc, op, d)
            fallthrough = cond is not None
            if fallthrough:
                out(0, f"if {cond}:")
                pad[0] += "    "
            target = operands[pc]
            taken_edge(pc, target, live)
            out(0, f"b = {bid[target]}")
            out(0, "continue")
            if fallthrough:
                pad[0] = pad[0][:-4]
                consumed(pc, d)

    # -- the structured form: nested ``while``/``if`` over the layout

    def capture(emit):
        """Run ``emit`` into a fresh buffer; returns the buffer (its
        lines and their deepest indentation) and ``emit``'s result."""
        saved = sink[0], pad[0], deep[0]
        sink[0], pad[0], deep[0] = [], "", 0
        try:
            result = emit()
            return (sink[0], deep[0]), result
        finally:
            sink[0], pad[0], deep[0] = saved

    def put(buffer, rel):
        """Splice a captured buffer in, ``rel`` levels deeper."""
        code, depth = buffer
        if rel + depth > deep[0]:
            deep[0] = rel + depth
            if deep[0] > _MAX_INDENT:
                raise _Unstructured
        prefix = pad[0] + "    " * rel
        sink[0].extend(prefix + line for line in code or ["pass"])

    def entered_spilled(node):
        """Whether every edge into ``node`` spills: a branch target,
        or a block placed after a construct."""
        return blocks[node].start in bid or node not in layout.inline_at

    def transfer(x, i, cont, loop):
        """Control leaves block ``x`` along its successor ``i``, its
        spill (if any) emitted: inline the target here, or reach it by
        ``continue``, ``break`` or falling out to ``cont``.  Returns
        whether the emitted code can complete normally."""
        y = blocks[x].successors[i]
        if layout.inline_at.get(y) == (x, i):
            if entered_spilled(y):
                enter_leader()
            return tree(y, cont, loop)
        if loop is not None and y == loop[0]:
            out(0, "continue")
            return False
        if loop is not None and y == loop[1]:
            out(0, "break")
            loop[2] = True
            return False
        if y == cont:
            return True
        raise _Unstructured

    def fall(x, i, cont, loop):
        """A fall-through edge: into a block entered spilled, write the
        pending amount and stack slots first."""
        if entered_spilled(blocks[x].successors[i]):
            pin_all()
            spill()
        return transfer(x, i, cont, loop)

    chain = [0]

    def tree(x, cont, loop):
        """Emit block ``x`` and the blocks placed with it; ``cont`` is
        the block the construct falls out into (None: none), ``loop``
        the innermost ``while`` as ``[header, break target, broken,
        loop depth]``.  Returns whether the construct can complete
        normally."""
        chain[0] += 1
        if chain[0] > _MAX_CHAIN:
            raise _Unstructured
        if x in layout.loops:
            falls = loop_tree(x, cont, loop)
        else:
            falls = within(x, layout.inside[x], cont, loop)
        chain[0] -= 1
        return falls

    def loop_tree(x, cont, loop):
        after = layout.after[x]
        depth = loop[3] + 1 if loop is not None else 1
        if depth > _MAX_LOOPS:
            raise _Unstructured
        inner = [x, after[0] if after else cont, False, depth]
        out(0, "while 1:")
        body, _ = capture(lambda: within(x, layout.inside[x], None, inner))
        put(body, 1)
        falls = inner[2]
        for i, y in enumerate(after):
            enter_leader()
            falls = tree(y, after[i + 1] if i + 1 < len(after) else cont,
                         loop)
        return falls

    def within(x, follows, cont, loop):
        falls = node(x, follows[0] if follows else cont, loop)
        for i, y in enumerate(follows):
            enter_leader()
            falls = tree(y, follows[i + 1] if i + 1 < len(follows)
                         else cont, loop)
        return falls

    def node(x, cont, loop):
        """Emit block ``x``'s instructions and its way out."""
        block = blocks[x]
        last = block.end - 1
        for pc in range(block.start, last):
            emit_op(pc, ops[pc], depth_at[pc])
        op = ops[last]
        d = depth_at[last]
        if not SPECS[op].is_branch:
            if not emit_op(last, op, d):
                return False
            return fall(x, 0, cont, loop)
        cond, live = emit_branch(last, op, d)
        target = operands[last]
        if cond is None:  # goto
            taken_edge(last, target, None)
            return transfer(x, 0, cont, loop)
        state = save()

        def taken():
            taken_edge(last, target, live)
            return transfer(x, 0, cont, loop)

        taken_code, taken_falls = capture(taken)
        restore(state)
        consumed(last, d)
        rest, rest_falls = capture(lambda: fall(x, 1, cont, loop))
        if not taken_falls:
            # an arm that cannot fall through needs no else
            out(0, f"if {cond}:")
            put(taken_code, 1)
            put(rest, 0)
            return rest_falls
        if not rest_falls:
            out(0, f"if not {cond}:")
            put(rest, 1)
            put(taken_code, 0)
            return True
        out(0, f"if {cond}:")
        put(taken_code, 1)
        out(0, "else:")
        put(rest, 1)
        return True

    blocks = cfg.blocks
    structured = not osr and not counting
    if structured:
        try:
            layout = _Layout(cfg)
            known_zero[0] = 0 not in targets
            if tree(0, None, None):
                raise _Unstructured
        except (_Unstructured, RecursionError):
            structured = False
            sink[0] = []
            seg[0] = seg[1] = 0
            fwd.clear()
    if not structured:
        dispatch_form()
    lines += sink[0]

    source = "\n".join(lines) + "\n"
    # compiled here so the code inherits this module's __future__ flags
    code_obj = compile(source, f"<template:{method.qualified_name}>",
                       "exec")
    leaf = None
    if n_ins <= MAX_INLINE_SIZE and not info.exception_table and \
            not deopts[0] and not back_targets and _NOT_LEAF.isdisjoint(ops):
        leaf = (id(info), costs, _sites(method))
    return _Plan(info, source, code_obj, osr_map, structured,
                 tuple((name, *site) for name, site in recipe.items()),
                 leaf, len(inlined), tuple(inlined))
