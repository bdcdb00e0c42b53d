"""Control flow and operand-stack depths of one method.

The one control-flow description that every reader of bytecode shares:
the structural verifier (:mod:`repro.bytecode.verifier`), the template
translator (:mod:`repro.jit.template`), the typed verifier
(:mod:`repro.analysis.typed_verifier`) and the race passes
(:mod:`repro.analysis.races`).  It works on pre-decoded code whose
branch operands are already resolved to instruction indices.

:func:`build_cfg` partitions the code into maximal straight-line
:class:`BasicBlock` runs.  Leaders are instruction 0, every branch
target, every instruction after a control transfer, and every exception
handler entry.  Successor edges cover fall-through and branch targets;
exception edges are kept separate (``handler_blocks`` plus
:meth:`CFG.handlers_covering`) because they leave from *every*
instruction of a protected range, not from block boundaries.

:meth:`CFG.stack_depths` is the stack-discipline walk: the operand-stack
depth before every instruction, proved consistent across every path
that reaches it.  Both check only what they need and raise a
:class:`~repro.errors.VerifyError` (pc and mnemonic where known; the
verifier adds class and method) on code they cannot describe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bytecode.instructions import ExceptionEntry, Instruction
from repro.bytecode.opcodes import Op, OperandKind, VARIABLE
from repro.classfile.constant_pool import CpMethodRef
from repro.classfile.members import parse_descriptor
from repro.errors import ClassFileError, VerifyError


@dataclass
class BasicBlock:
    """One maximal straight-line run ``[start, end)`` of instructions."""

    index: int
    start: int
    end: int                 # exclusive
    successors: List[int] = field(default_factory=list)  # block indices
    is_handler: bool = False

    @property
    def pcs(self) -> range:
        return range(self.start, self.end)


class CFG:
    """Basic blocks, edges, reachability and stack depths of one method."""

    def __init__(self, code: Sequence[Instruction], blocks: List[BasicBlock],
                 block_index_of: Dict[int, int],
                 exception_table: Sequence[ExceptionEntry]):
        self.code = code
        self.blocks = blocks
        self._block_index_of = block_index_of  # leader pc -> block index
        self.exception_table = list(exception_table)

    def block_of(self, pc: int) -> BasicBlock:
        """The block whose leader is ``pc`` (must be a leader)."""
        return self.blocks[self._block_index_of[pc]]

    def handlers_covering(self, pc: int) -> List[ExceptionEntry]:
        """Exception-table rows whose protected range includes ``pc``."""
        return [entry for entry in self.exception_table
                if entry.start <= pc < entry.end]

    @property
    def handler_blocks(self) -> List[BasicBlock]:
        return [b for b in self.blocks if b.is_handler]

    def reachable_blocks(self, exceptions: bool = True) -> List[BasicBlock]:
        """Blocks reachable from the entry block, following normal edges
        and, unless ``exceptions`` is False, exception edges."""
        seen = {0}
        stack = [0]
        while stack:
            block = self.blocks[stack.pop()]
            targets = list(block.successors)
            if exceptions:
                for pc in block.pcs:
                    for entry in self.handlers_covering(pc):
                        targets.append(self._block_index_of[entry.handler])
            for target in targets:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return [self.blocks[i] for i in sorted(seen)]

    def unreachable_blocks(self) -> List[BasicBlock]:
        reachable = {b.index for b in self.reachable_blocks()}
        return [b for b in self.blocks if b.index not in reachable]

    def stack_depths(self, constant_pool
                     ) -> Tuple[List[int],
                                List[Optional[Tuple[int, int]]], int]:
        """Walk the operand-stack discipline block by block.

        Pc 0 starts at depth 0 and every handler entry at depth 1 (the
        thrown object), whether or not its protected range is reachable.
        Returns ``(depth, effects, max_depth)``: the depth before each
        pc (-1 where no path reaches it), ``(pops, pushes)`` for each
        reached pc (``None`` elsewhere), and the maximum depth.  Only
        reached invokes are resolved from ``constant_pool``.  Raises
        :class:`~repro.errors.VerifyError` on an underflow, on two paths
        that disagree on the depth at a join, and on a reached invoke
        whose constant is not a method reference with a valid
        descriptor.
        """
        code = self.code
        depth = [-1] * len(code)
        effects: List[Optional[Tuple[int, int]]] = [None] * len(code)
        depth[0] = 0
        work = [0]
        for entry in self.exception_table:
            if depth[entry.handler] < 0:
                depth[entry.handler] = 1
                work.append(self._block_index_of[entry.handler])
        max_depth = 1 if self.exception_table else 0
        while work:
            block = self.blocks[work.pop()]
            d = depth[block.start]
            for pc in block.pcs:
                ins = code[pc]
                spec = ins.spec
                if spec.pops == VARIABLE:
                    pops, pushes = _invoke_effect(ins, constant_pool, pc)
                else:
                    pops, pushes = spec.pops, spec.pushes
                effects[pc] = (pops, pushes)
                depth[pc] = d
                if d < pops:
                    raise VerifyError(
                        f"stack underflow ({spec.mnemonic}: needs {pops}, "
                        f"have {d})", pc=pc, mnemonic=spec.mnemonic)
                d += pushes - pops
                if d > max_depth:
                    max_depth = d
            for successor in block.successors:
                start = self.blocks[successor].start
                known = depth[start]
                if known < 0:
                    depth[start] = d
                    work.append(successor)
                elif known != d:
                    raise VerifyError(
                        f"inconsistent stack depth at pc {start} "
                        f"({known} vs {d})", pc=block.end - 1)
        return depth, effects, max_depth


def _invoke_effect(ins: Instruction, constant_pool,
                   pc: int) -> Tuple[int, int]:
    """``(pops, pushes)`` of an invoke, from its method reference."""
    try:
        ref = constant_pool.get_typed(ins.operand, CpMethodRef)
        params, ret = parse_descriptor(ref.descriptor)
    except ClassFileError as exc:
        raise VerifyError(str(exc), pc=pc,
                          mnemonic=ins.spec.mnemonic) from None
    receiver = 0 if ins.op is Op.INVOKESTATIC else 1
    return len(params) + receiver, 0 if ret == "V" else 1


def build_cfg(code: Sequence[Instruction],
              exception_table: Sequence[ExceptionEntry]) -> CFG:
    """Partition ``code`` into basic blocks and wire successor edges.

    Raises :class:`~repro.errors.VerifyError` when the code cannot be
    partitioned: it is empty, a label is unresolved or a branch target
    out of range, an exception range is invalid, or the last
    instruction falls through.
    """
    n = len(code)
    if not n:
        raise VerifyError("method has empty code")

    def check_target(index, what, pc=None):
        if not isinstance(index, int) or index < 0 or index >= n:
            raise VerifyError(f"{what} {index!r} out of range", pc=pc)

    leaders = {0}
    handler_pcs = set()
    for pc, ins in enumerate(code):
        spec = ins.spec
        if spec.operand is OperandKind.LABEL:
            if isinstance(ins.operand, str):
                raise VerifyError(f"unresolved label {ins.operand!r}",
                                  pc=pc, mnemonic=spec.mnemonic)
            check_target(ins.operand, "branch target", pc=pc)
            leaders.add(ins.operand)
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif spec.ends_block and pc + 1 < n:
            leaders.add(pc + 1)
    if not code[-1].spec.ends_block:
        raise VerifyError("control falls off the end of the method",
                          pc=n - 1)
    for entry in exception_table:
        check_target(entry.start, "exception-table start")
        check_target(entry.handler, "exception-table handler")
        if not isinstance(entry.end, int) or entry.end < entry.start or \
                entry.end > n:
            raise VerifyError(
                f"bad exception-table range [{entry.start}, {entry.end})")
        leaders.add(entry.handler)
        handler_pcs.add(entry.handler)

    ordered = sorted(leaders)
    blocks: List[BasicBlock] = []
    block_index_of: Dict[int, int] = {}
    for i, start in enumerate(ordered):
        end = ordered[i + 1] if i + 1 < len(ordered) else n
        block = BasicBlock(index=i, start=start, end=end,
                           is_handler=start in handler_pcs)
        blocks.append(block)
        block_index_of[start] = i

    for block in blocks:
        last = code[block.end - 1]
        spec = last.spec
        if spec.operand is OperandKind.LABEL:
            block.successors.append(block_index_of[last.operand])
        if not spec.ends_block and block.end < n:
            block.successors.append(block_index_of[block.end])

    return CFG(code, blocks, block_index_of, exception_table)
