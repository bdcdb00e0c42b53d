"""Folded-stack flamegraph export from the callchain CCT.

The callchain agent (the paper's Section VII future-work extension)
builds per-thread calling-context trees with *inclusive* cycle
attribution.  Flamegraph tooling (Brendan Gregg's ``flamegraph.pl``,
speedscope, Perfetto's import) expects *folded stacks*: one line per
calling context with its **self** weight — the inclusive time minus
the children's, so the tooling can re-derive inclusive totals by
summation.

Native frames are suffixed ``_[k]`` so standard flamegraph palettes
color them like kernel/native frames — the Java/native boundary the
paper is about stays visible in the rendered graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple


#: The folded format's structural characters.  ``;`` separates frames
#: and a newline separates stacks, so neither may appear inside a
#: frame or thread name — a hostile class name like ``a;b`` would
#: otherwise split into two frames and corrupt every descendant stack.
_FRAME_SANITIZE = str.maketrans({";": ":", "\n": "_", "\r": "_"})


def _sanitize(name: str) -> str:
    return name.translate(_FRAME_SANITIZE)


def _self_cycles(node) -> int:
    inherited = sum(child.inclusive_cycles
                    for child in node.children.values())
    return max(0, node.inclusive_cycles - inherited)


def _contexts(roots):
    """``(stack, chain, node)`` for every calling context of every
    thread, ``stack`` being the sanitized ``thread;frame;...`` prefix."""
    for thread_name, root in roots:
        for chain, node in root.walk():
            if len(chain) < 2:
                continue  # skip the synthetic <thread> sentinel root
            frames = [_sanitize(thread_name)]
            frames.extend(
                _sanitize(frame) + ("_[k]" if is_native else "")
                for frame, is_native in _tag_chain(root, chain))
            yield ";".join(frames), chain, node


def _lines(weighted) -> List[str]:
    """Sorted ``stack weight`` lines from ``(stack, weight)`` pairs;
    equal stacks (threads that share a name) are summed, so every
    thread's weight is carried."""
    totals: Dict[str, int] = {}
    for stack, weight in weighted:
        if weight > 0:
            totals[stack] = totals.get(stack, 0) + weight
    return sorted(f"{stack} {weight}" for stack, weight in totals.items())


def folded_lines(roots: Iterable[Tuple[str, object]]) -> List[str]:
    """``thread;frame;frame weight`` lines, lexicographically sorted.

    ``roots`` holds ``(thread name, CCT root)`` pairs, one per thread
    (the shape of :attr:`repro.agents.callchain.CallChainAgent.roots`).
    Frames with zero self time are folded away (their weight lives in
    descendants).
    """
    return _lines((stack, _self_cycles(node))
                  for stack, _, node in _contexts(roots))


def _tag_chain(root, chain):
    """Walk ``chain`` (which starts at the sentinel root) re-resolving
    each node so frames carry their Java/native tag."""
    node = root
    for frame in chain[1:]:
        node = node.children[frame]
        yield frame, node.is_native


def write_folded(path: str, roots: Iterable[Tuple[str, object]]) -> int:
    """Write folded stacks; returns the number of lines."""
    lines = folded_lines(roots)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)


def _self_blocked(node) -> int:
    inherited = sum(getattr(child, "blocked_inclusive", 0)
                    for child in node.children.values())
    return max(0, getattr(node, "blocked_inclusive", 0) - inherited)


def wall_folded_lines(roots: Iterable[Tuple[str, object]]) -> List[str]:
    """Wall-clock folded stacks: on-CPU *and* off-CPU weight.

    Same format and ``roots`` as :func:`folded_lines`, but each
    context's blocked self time (device waits charged by blocking
    natives, DESIGN.md §13) is emitted as a synthetic leaf frame
    suffixed ``_[offcpu]`` under the frame that blocked, so flamegraph
    tooling renders wall time with the off-CPU share visually
    distinct.  Summing every line's weight gives the threads' wall
    cycles.
    """
    def weighted():
        for stack, chain, node in _contexts(roots):
            yield stack, _self_cycles(node)
            leaf = _sanitize(chain[-1]) + "_[offcpu]"
            yield f"{stack};{leaf}", _self_blocked(node)

    return _lines(weighted())


def write_wall_folded(path: str,
                      roots: Iterable[Tuple[str, object]]) -> int:
    """Write wall-clock folded stacks; returns the number of lines."""
    lines = wall_folded_lines(roots)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)
