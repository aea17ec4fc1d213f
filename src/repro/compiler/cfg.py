"""Control-flow graph utilities over the IR.

Provides predecessor/successor maps, reachability, dominator computation
(iterative dataflow formulation), natural-loop detection from back edges, and
reverse post-order -- the ingredients the optimization passes need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.ir import IRFunction


@dataclass
class Loop:
    """A natural loop: a header block plus the set of blocks in its body."""

    header: str
    body: set[str] = field(default_factory=set)

    def __contains__(self, label: str) -> bool:
        return label in self.body


class CFG:
    """Successor/predecessor structure of one IR function."""

    def __init__(self, function: IRFunction) -> None:
        self.function = function
        self._back_edges: list[tuple[str, str]] | None = None
        self.successors: dict[str, list[str]] = {}
        self.predecessors: dict[str, list[str]] = {label: [] for label in function.blocks}
        for label, block in function.blocks.items():
            succs = block.successors()
            self.successors[label] = succs
            for succ in succs:
                if succ in self.predecessors:
                    self.predecessors[succ].append(label)

    # -- reachability ------------------------------------------------------------

    def reachable(self) -> set[str]:
        """Blocks reachable from the entry block."""
        seen: set[str] = set()
        stack = [self.function.entry]
        while stack:
            label = stack.pop()
            if label in seen or label not in self.function.blocks:
                continue
            seen.add(label)
            stack.extend(self.successors.get(label, []))
        return seen

    def reverse_postorder(self) -> list[str]:
        """Blocks in reverse post-order (a good iteration order for forward analyses)."""
        visited: set[str] = set()
        order: list[str] = []

        def visit(label: str) -> None:
            if label in visited or label not in self.function.blocks:
                return
            visited.add(label)
            for succ in self.successors.get(label, []):
                visit(succ)
            order.append(label)

        visit(self.function.entry)
        return list(reversed(order))

    # -- dominators --------------------------------------------------------------

    def dominators(self) -> dict[str, set[str]]:
        """For each reachable block, the set of blocks dominating it."""
        reachable = self.reachable()
        all_blocks = set(reachable)
        dom: dict[str, set[str]] = {label: set(all_blocks) for label in reachable}
        entry = self.function.entry
        dom[entry] = {entry}
        order = self.reverse_postorder()
        changed = True
        while changed:
            changed = False
            for label in order:
                if label == entry:
                    continue
                preds = [p for p in self.predecessors.get(label, []) if p in reachable]
                if preds:
                    new = set(all_blocks)
                    for pred in preds:
                        new &= dom[pred]
                else:
                    new = set()
                new.add(label)
                if new != dom[label]:
                    dom[label] = new
                    changed = True
        return dom

    def immediate_dominators(self) -> dict[str, str | None]:
        """The immediate dominator of each reachable block (entry maps to None)."""
        dom = self.dominators()
        idom: dict[str, str | None] = {}
        for label, dominators in dom.items():
            if label == self.function.entry:
                idom[label] = None
                continue
            strict = dominators - {label}
            # The immediate dominator is the strict dominator dominated by all others.
            best = None
            for candidate in strict:
                if all(candidate in dom[other] or other == candidate for other in strict):
                    best = candidate
            idom[label] = best
        return idom

    # -- loops --------------------------------------------------------------------

    def back_edges(self) -> list[tuple[str, str]]:
        """Edges (tail, head) where head dominates tail.

        Computed once per instance: like the successor maps, the answer
        describes the function as it was when first asked, and callers
        that change its blocks build a new ``CFG``.  Every back edge
        closes a cycle, so a function without one skips the dominators.
        """
        if self._back_edges is None:
            if not self._has_reachable_cycle():
                self._back_edges = []
            else:
                dom = self.dominators()
                self._back_edges = [
                    (label, succ)
                    for label in self.reachable()
                    for succ in self.successors.get(label, [])
                    if succ in dom.get(label, set())
                ]
        return self._back_edges

    def _has_reachable_cycle(self) -> bool:
        """Whether a depth-first walk from the entry meets a block on its own path."""
        blocks = self.function.blocks
        entry = self.function.entry
        if entry not in blocks:
            return False
        on_path = {entry: True}  # False once a block's walk is finished
        stack = [(entry, iter(self.successors.get(entry, [])))]
        while stack:
            label, successors = stack[-1]
            for succ in successors:
                if succ not in blocks:
                    continue
                state = on_path.get(succ)
                if state:
                    return True
                if state is None:
                    on_path[succ] = True
                    stack.append((succ, iter(self.successors.get(succ, []))))
                    break
            else:
                on_path[label] = False
                stack.pop()
        return False

    def natural_loops(self) -> list[Loop]:
        """Natural loops, one per back edge, merged when they share a header."""
        loops: dict[str, Loop] = {}
        for tail, head in self.back_edges():
            loop = loops.setdefault(head, Loop(header=head, body={head}))
            # Walk predecessors from the tail until the header.
            stack = [tail]
            while stack:
                label = stack.pop()
                if label in loop.body:
                    continue
                loop.body.add(label)
                stack.extend(self.predecessors.get(label, []))
        return list(loops.values())

    def is_reducible(self) -> bool:
        """A graph is reducible when removing back edges leaves it acyclic."""
        back = set(self.back_edges())
        reachable = self.reachable()
        # Kahn-style cycle check on the forward edges only.
        indegree: dict[str, int] = {label: 0 for label in reachable}
        for label in reachable:
            for succ in self.successors.get(label, []):
                if succ in reachable and (label, succ) not in back:
                    indegree[succ] += 1
        queue = [label for label, degree in indegree.items() if degree == 0]
        seen = 0
        while queue:
            label = queue.pop()
            seen += 1
            for succ in self.successors.get(label, []):
                if succ in reachable and (label, succ) not in back:
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        queue.append(succ)
        return seen == len(reachable)


__all__ = ["CFG", "Loop"]
