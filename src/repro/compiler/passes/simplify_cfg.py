"""Control-flow graph simplification.

* removes blocks unreachable from the entry;
* threads jumps through empty forwarding blocks (a block whose only
  instruction is ``jump X``);
* merges a block into its unique successor when that successor has no other
  predecessors;
* collapses conditional jumps whose two targets are identical.

Seeded fault ``cfg-self-loop-collapse`` (crash, mirrors GCC PR69740):
while threading forwarding blocks the pass fails to notice a block that jumps
to itself (an empty infinite loop, typically produced by enumerations that
turn a loop condition into a constant); following the chain never terminates
and the internal "loop structure" verification gives up with an assertion.

Seeded fault ``cfg-retain-garbage-block`` (ill-formed IR): the unreachable
sweep loses track of one dead block and leaves it -- intact but orphaned --
in the function.  The garbage never executes (the VM translates blocks
lazily on first entry) and every downstream pass tolerates it, so campaigns
that do not verify IR see byte-identical behaviour; only the between-pass
verifier (:mod:`repro.compiler.verify`) observes the corruption, which is
why the fault does not mark itself triggered here -- the driver's verifier
wiring does that when (and only when) verification is on.
"""

from __future__ import annotations

from repro.compiler.cfg import CFG
from repro.compiler.ir import CJump, IRFunction, Jump
from repro.compiler.passes import FunctionPass, PassContext


class SimplifyCFG(FunctionPass):
    """Clean up the control-flow graph after other passes."""

    name = "simplify-cfg"

    def run(self, function: IRFunction, context: PassContext) -> bool:
        changed = False
        changed = self._collapse_trivial_cjumps(function, context) or changed
        changed = self._thread_forwarding_blocks(function, context) or changed
        changed = self._remove_unreachable(function, context) or changed
        changed = self._merge_straight_line(function, context) or changed
        return changed

    def _collapse_trivial_cjumps(self, function: IRFunction, context: PassContext) -> bool:
        changed = False
        for block in function.blocks.values():
            terminator = block.terminator
            if isinstance(terminator, CJump) and terminator.true_target == terminator.false_target:
                block.instructions[-1] = Jump(terminator.true_target)
                self.note(context, "cjump_collapsed")
                changed = True
        return changed

    def _thread_forwarding_blocks(self, function: IRFunction, context: PassContext) -> bool:
        # A forwarding block contains exactly one instruction: jump X.
        forwarding: dict[str, str] = {}
        for label, block in function.blocks.items():
            if len(block.instructions) == 1 and isinstance(block.instructions[0], Jump):
                forwarding[label] = block.instructions[0].target

        self_loop = next((label for label, target in forwarding.items() if label == target), None)
        if self_loop is not None and context.faults.active("cfg-self-loop-collapse"):
            context.faults.crash(
                "cfg-self-loop-collapse", detail=f"block {self_loop!r} forwards to itself"
            )

        def resolve(label: str) -> str:
            seen = set()
            current = label
            while current in forwarding and current not in seen:
                seen.add(current)
                current = forwarding[current]
            return current

        changed = False
        for block in function.blocks.values():
            terminator = block.terminator
            if isinstance(terminator, Jump):
                target = resolve(terminator.target)
                if target != terminator.target and target != block.label:
                    terminator.target = target
                    self.note(context, "jump_threaded")
                    changed = True
            elif isinstance(terminator, CJump):
                true_target = resolve(terminator.true_target)
                false_target = resolve(terminator.false_target)
                if true_target != terminator.true_target or false_target != terminator.false_target:
                    terminator.true_target = true_target
                    terminator.false_target = false_target
                    self.note(context, "cjump_threaded")
                    changed = True
        if function.entry in forwarding:
            # Keep the entry block; threading only rewrites edges.
            pass
        return changed

    def _remove_unreachable(self, function: IRFunction, context: PassContext) -> bool:
        reachable = CFG(function).reachable()
        unreachable = [label for label in function.blocks if label not in reachable]
        retained: str | None = None
        if unreachable:
            candidate = self._garbage_block_to_retain(function, reachable, unreachable)
            if candidate is not None and context.faults.active("cfg-retain-garbage-block"):
                retained = candidate
        removed = False
        for label in unreachable:
            if label == retained:
                continue
            del function.blocks[label]
            self.note(context, "unreachable_block_removed")
            removed = True
        return removed

    @staticmethod
    def _garbage_block_to_retain(
        function: IRFunction, reachable: set, unreachable: list
    ) -> str | None:
        """Which unreachable block the seeded fault forgets to delete.

        Deterministic (first eligible in layout order) and deliberately
        restricted to blocks that are harmless with verification off: never
        a single-``jump`` forwarding block (those interact with the
        self-loop threading fault) and only blocks whose every successor is
        reachable (so no dangling edges are left behind).
        """
        for label in unreachable:
            block = function.blocks[label]
            if len(block.instructions) == 1 and isinstance(block.instructions[0], Jump):
                continue
            if any(succ not in reachable for succ in block.successors()):
                continue
            return label
        return None

    def _merge_straight_line(self, function: IRFunction, context: PassContext) -> bool:
        changed = True
        merged_any = False
        while changed:
            changed = False
            cfg = CFG(function)
            for label in list(function.blocks):
                if label not in function.blocks:
                    continue
                block = function.blocks[label]
                terminator = block.terminator
                if not isinstance(terminator, Jump):
                    continue
                target = terminator.target
                if target == label or target not in function.blocks:
                    continue
                if target == function.entry:
                    continue
                if len(cfg.predecessors.get(target, [])) != 1:
                    continue
                successor = function.blocks[target]
                block.instructions = block.instructions[:-1] + successor.instructions
                del function.blocks[target]
                self.note(context, "blocks_merged")
                changed = True
                merged_any = True
                break
        return merged_any


__all__ = ["SimplifyCFG"]
