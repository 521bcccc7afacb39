"""Natural loop detection from back edges.

A back edge ``latch -> header`` (identified by DFS, consistent with the
propagation engine) defines a natural loop: the header plus every block
that reaches the latch without passing through the header.  Loops with
the same header are merged.  Used by the heuristic predictors (loop
branch / loop exit / loop header heuristics) and by code layout.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.cfg import CFG


class Loop:
    """One natural loop: header, body blocks, latches, and exit edges."""

    def __init__(self, header: str):
        self.header = header
        self.blocks: Set[str] = {header}
        self.latches: Set[str] = set()

    def contains(self, label: str) -> bool:
        return label in self.blocks

    def exit_edges(self, cfg: CFG) -> List[tuple]:
        """Edges leaving the loop (src inside, dst outside)."""
        out = []
        for label in self.blocks:
            for succ in cfg.successors[label]:
                if succ not in self.blocks:
                    out.append((label, succ))
        return out

    def __repr__(self) -> str:
        return f"Loop(header={self.header!r}, blocks={len(self.blocks)})"


class LoopInfo:
    """All natural loops of a function, with membership queries."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.loops: Dict[str, Loop] = {}
        self._build()
        self._membership: Dict[str, List[Loop]] = {}
        for loop in self.loops.values():
            for label in loop.blocks:
                self._membership.setdefault(label, []).append(loop)

    def _build(self) -> None:
        # Sorted: the back-edge set's order varies with the hash seed,
        # and loop order decides the order of loops_containing().
        for latch, header in sorted(self.cfg.back_edges):
            loop = self.loops.get(header)
            if loop is None:
                loop = Loop(header)
                self.loops[header] = loop
            loop.latches.add(latch)
            # Walk predecessors back from the latch up to the header.
            worklist = [latch]
            while worklist:
                label = worklist.pop()
                if label in loop.blocks:
                    continue
                loop.blocks.add(label)
                worklist.extend(self.cfg.predecessors[label])

    # -- queries -----------------------------------------------------------

    def is_header(self, label: str) -> bool:
        return label in self.loops

    def loops_containing(self, label: str) -> List[Loop]:
        return self._membership.get(label, [])

    def innermost(self, label: str) -> Optional[Loop]:
        candidates = self.loops_containing(label)
        if not candidates:
            return None
        return min(candidates, key=lambda loop: len(loop.blocks))

    def depth(self, label: str) -> int:
        return len(self.loops_containing(label))

    def in_same_loop(self, a: str, b: str) -> bool:
        loop = self.innermost(a)
        return loop is not None and loop.contains(b)
