"""The abstract enumeration problem derived from a skeleton.

``PartitionScope`` and the counting formulas do not care about ASTs.  They
operate on a flattened structure:

* a list of *variable classes* -- one per (scope, type) pair that declares at
  least one variable.  The compact alpha-renaming permutes variables only
  within a class, so the class is the unit of symmetry;
* a list of *problem holes* -- each hole lists the classes it may draw a
  variable from, ordered from the innermost scope outwards.

:class:`EnumerationProblem` is that structure, plus helpers to translate a
class-level solution back into a characteristic vector over concrete variable
names.  :func:`problems_from_skeleton` builds one problem per function
(intra-procedural granularity, the paper's default) or a single whole-program
problem (inter-procedural granularity).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.holes import Hole, Skeleton
from repro.core.scopes import ScopeKind


class Granularity(enum.Enum):
    """Enumeration granularity (paper Section 4.3)."""

    INTRA_PROCEDURAL = "intra"
    INTER_PROCEDURAL = "inter"


@dataclass(frozen=True)
class VariableClass:
    """A set of mutually interchangeable variables (same scope, same type)."""

    id: int
    scope_id: int
    type: str
    variables: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class ProblemHole:
    """One hole, reduced to the classes it may draw its variable from.

    ``class_ids`` is ordered innermost-scope first, so ``class_ids[-1]`` is the
    outermost (most global) class the hole can use.
    """

    index: int
    class_ids: tuple[int, ...]
    skeleton_index: int = -1


@dataclass
class EnumerationProblem:
    """A scoped set-partition problem (paper Section 4.2.1).

    Attributes:
        name: human-readable label (skeleton name or function name).
        classes: the variable classes, indexed by ``VariableClass.id``.
        holes: the problem holes in enumeration order.
        skeleton_hole_indices: for each problem hole, the index of the
            corresponding hole in the originating skeleton (identity when the
            problem was built directly).
    """

    name: str
    classes: list[VariableClass]
    holes: list[ProblemHole]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        by_id = {cls.id for cls in self.classes}
        for hole in self.holes:
            if not hole.class_ids:
                raise ValueError(f"hole {hole.index} has no candidate variable class")
            for class_id in hole.class_ids:
                if class_id not in by_id:
                    raise ValueError(f"hole {hole.index} references unknown class {class_id}")

    # -- shape helpers -----------------------------------------------------

    @property
    def num_holes(self) -> int:
        return len(self.holes)

    def class_by_id(self, class_id: int) -> VariableClass:
        for cls in self.classes:
            if cls.id == class_id:
                return cls
        raise KeyError(f"unknown class {class_id}")

    def candidate_names(self, hole: ProblemHole) -> list[str]:
        """All concrete variable names the hole may use (innermost first)."""
        names: list[str] = []
        for class_id in hole.class_ids:
            names.extend(self.class_by_id(class_id).variables)
        return names

    def naive_size(self) -> int:
        """The naive search-space size ``prod_i |v_i|`` for this problem."""
        size = 1
        for hole in self.holes:
            size *= len(self.candidate_names(hole))
        return size

    def is_unscoped(self) -> bool:
        """True when every hole sees exactly the same single class."""
        if not self.holes:
            return True
        first = self.holes[0].class_ids
        return len(first) == 1 and all(hole.class_ids == first for hole in self.holes)


def _class_key(scope_id: int, type_name: str) -> tuple[int, str]:
    return (scope_id, type_name)


def problems_from_skeleton(
    skeleton: Skeleton,
    granularity: Granularity = Granularity.INTRA_PROCEDURAL,
) -> list[EnumerationProblem]:
    """Build enumeration problems from a skeleton.

    With intra-procedural granularity one problem is produced per function
    (file-scope holes, if any, form their own problem named ``<file>``); the
    global SPE solution is the Cartesian product of the per-problem solutions.
    With inter-procedural granularity a single problem covers the whole
    skeleton.
    """
    if granularity is Granularity.INTER_PROCEDURAL:
        problem = _build_problem(skeleton, skeleton.holes, skeleton.name)
        return [problem] if problem.holes else []

    problems: list[EnumerationProblem] = []
    groups: dict[str | None, list[Hole]] = {}
    for hole in skeleton.holes:
        groups.setdefault(hole.function, []).append(hole)
    for function, holes in groups.items():
        label = function if function is not None else "<file>"
        problem = _build_problem(skeleton, holes, f"{skeleton.name}::{label}")
        if problem.holes:
            problems.append(problem)
    return problems


def _build_problem(skeleton: Skeleton, holes: list[Hole], name: str) -> EnumerationProblem:
    """Translate skeleton holes into an :class:`EnumerationProblem`.

    Variable classes are (scope, type) pairs.  Scope chains are collapsed so
    that classes declaring no variable of the relevant type do not appear.
    """
    tree = skeleton.scope_tree
    class_ids: dict[tuple[int, str], int] = {}
    classes: list[VariableClass] = []
    problem_holes: list[ProblemHole] = []

    def class_for(scope_id: int, type_name: str) -> int | None:
        declared = tree.scope(scope_id).declared_of_type(type_name)
        if not declared:
            return None
        key = _class_key(scope_id, type_name)
        if key not in class_ids:
            class_ids[key] = len(classes)
            classes.append(
                VariableClass(
                    id=len(classes),
                    scope_id=scope_id,
                    type=type_name,
                    variables=tuple(variable.name for variable in declared),
                )
            )
        return class_ids[key]

    for position, hole in enumerate(holes):
        visible: list[int] = []
        shadowed: set[str] = set()
        for scope_id in tree.ancestors(hole.scope_id):
            scope = tree.scope(scope_id)
            declared = scope.declared_of_type(hole.type)
            # Variable classes are whole (scope, type) groups: the compact
            # alpha-renaming permutes all of them together.  If an inner scope
            # shadows only part of the group, permuting the group would not
            # preserve validity at this hole, so we conservatively drop the
            # whole class here (documented in DESIGN.md; frontends avoid
            # emitting partially-shadowed groups).
            if declared and all(variable.name not in shadowed for variable in declared):
                class_id = class_for(scope_id, hole.type)
                if class_id is not None:
                    visible.append(class_id)
            shadowed.update(variable.name for variable in scope.variables)
        if not visible:
            raise ValueError(
                f"hole {hole} has no candidate variables; skeleton {skeleton.name!r} is malformed"
            )
        problem_holes.append(
            ProblemHole(index=position, class_ids=tuple(visible), skeleton_index=hole.index)
        )

    return EnumerationProblem(name=name, classes=classes, holes=problem_holes)


def flat_problem(
    name: str,
    global_variables: int | list[str],
    scopes: list[tuple[int | list[str], int]],
    num_global_holes: int,
    type: str = "int",
) -> EnumerationProblem:
    """Convenience constructor for the paper's two-level "normal form".

    Args:
        name: label for the problem.
        global_variables: number of global variables (names are synthesised)
            or an explicit list of names.
        scopes: one ``(variables, num_holes)`` pair per local scope; holes in
            scope ``l`` may use the global variables plus that scope's own.
        num_global_holes: holes that may only use global variables.
        type: single variable type shared by everything.

    This mirrors Figure 7 of the paper and is heavily used by tests and
    benchmarks that exercise the algorithm without a language frontend.
    """

    def names(spec: int | list[str], prefix: str) -> tuple[str, ...]:
        if isinstance(spec, int):
            return tuple(f"{prefix}{i}" for i in range(spec))
        return tuple(spec)

    classes: list[VariableClass] = []
    global_names = names(global_variables, "g")
    classes.append(VariableClass(id=0, scope_id=0, type=type, variables=global_names))

    holes: list[ProblemHole] = []
    index = 0
    for _ in range(num_global_holes):
        holes.append(ProblemHole(index=index, class_ids=(0,)))
        index += 1
    for scope_number, (variables, hole_count) in enumerate(scopes, start=1):
        local_names = names(variables, f"l{scope_number}_")
        class_id = len(classes)
        classes.append(
            VariableClass(id=class_id, scope_id=scope_number, type=type, variables=local_names)
        )
        for _ in range(hole_count):
            holes.append(ProblemHole(index=index, class_ids=(class_id, 0)))
            index += 1

    return EnumerationProblem(name=name, classes=classes, holes=holes)


def unscoped_problem(name: str, num_holes: int, variables: int | list[str], type: str = "int") -> EnumerationProblem:
    """Convenience constructor for the unscoped (WHILE-style) problem."""
    return flat_problem(name, variables, [], num_holes, type=type)


__all__ = [
    "EnumerationProblem",
    "Granularity",
    "ProblemHole",
    "VariableClass",
    "flat_problem",
    "problems_from_skeleton",
    "unscoped_problem",
]
