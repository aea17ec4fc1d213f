"""Holes, skeletons and characteristic vectors.

A *skeleton* is a program with every variable occurrence replaced by a hole
(paper Section 3.1).  Language frontends (:mod:`repro.lang`,
:mod:`repro.minic`) produce :class:`Skeleton` values; the enumeration core
consumes them through :class:`repro.core.problem.EnumerationProblem`.

A *characteristic vector* is one concrete filling of the skeleton's holes
with variable names; it uniquely identifies a realized program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.scopes import ScopeTree, Variable


@dataclass(frozen=True)
class Hole:
    """One variable occurrence in a skeleton.

    Attributes:
        index: position of the hole in the skeleton's hole order (0-based).
        scope_id: the scope the occurrence appears in (determines visibility).
        type: the type the filling variable must have.
        original_name: the variable name in the seed program (if any).
        function: name of the enclosing function, or ``None`` at file scope.
        location: free-form source location string for diagnostics.
    """

    index: int
    scope_id: int
    type: str = "int"
    original_name: str | None = None
    function: str | None = None
    location: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        origin = f"<-{self.original_name}" if self.original_name else ""
        return f"hole#{self.index}{origin}@scope{self.scope_id}:{self.type}"


class CharacteristicVector(tuple):
    """A filling of a skeleton's holes, as a tuple of variable names.

    The paper writes this as ``s_P = <v_1, ..., v_n>``.  The class is a thin
    tuple subclass so vectors hash/compare structurally but print nicely and
    carry a couple of helpers.
    """

    __slots__ = ()

    def __new__(cls, names: Iterable[str]) -> "CharacteristicVector":
        return super().__new__(cls, tuple(names))

    def __repr__(self) -> str:
        return f"<{', '.join(self)}>"

    def variables_used(self) -> set[str]:
        """The distinct variable names appearing in the vector."""
        return set(self)

    def substitution_from(self, other: "CharacteristicVector | Sequence[str]") -> dict[str, set[str]]:
        """Map each name in ``other`` to the set of names it becomes in ``self``.

        Useful to inspect whether a plain (non-compact) renaming exists between
        two fillings: a renaming exists iff every name maps to exactly one
        name and the induced mapping is injective.
        """
        if len(other) != len(self):
            raise ValueError("vectors must have the same length")
        mapping: dict[str, set[str]] = {}
        for source, target in zip(other, self):
            mapping.setdefault(source, set()).add(target)
        return mapping


class IdentifierBinder:
    """Shared parse-once rebinding bookkeeping for frontend binders.

    Every frontend that keeps its parsed program around and realizes variants
    by *rebinding* (patching identifier nodes in place instead of rendering
    and re-parsing) needs the same scaffolding: the shared unit, the hole
    identifier nodes in hole order, a per-hole map from candidate name to
    whatever the frontend resolves that name to, the per-hole sets of names
    that violate declaration-before-use, and the currently-bound vector so
    repeated binds of the same vector are no-ops.  Subclasses supply only the
    two language-specific pieces:

    * :meth:`_rebind` -- patch one identifier node to a new name/binding;
    * :meth:`_render` -- pretty-print the bound unit to source text.

    ``binding_maps[i]`` maps each legal filling name of hole ``i`` to an
    opaque frontend binding (a declaration node, or just the name itself for
    unscoped languages); membership in the map is the validity check.
    """

    __slots__ = ("unit", "identifiers", "binding_maps", "late_names", "_bound")

    def __init__(
        self,
        unit: object,
        identifiers: list,
        binding_maps: list[dict],
        late_names: list[frozenset[str]] | None = None,
    ) -> None:
        self.unit = unit
        self.identifiers = identifiers
        self.binding_maps = binding_maps
        self.late_names = (
            late_names if late_names is not None else [frozenset()] * len(identifiers)
        )
        # The vector currently bound; the original program is bound at start.
        self._bound: tuple[str, ...] | None = tuple(
            identifier.name for identifier in identifiers
        )

    def bind(self, vector: Sequence[str]):
        """Rebind the shared unit to ``vector`` (no-op if already bound)."""
        key = tuple(vector)
        if key == self._bound:
            return self.unit
        self._bound = None  # invalidate while partially rebound
        for identifier, name, candidates in zip(self.identifiers, key, self.binding_maps):
            binding = candidates.get(name)  # maps never store None
            if binding is None:
                raise ValueError(
                    f"variable {name!r} is not visible (or has the wrong type) "
                    f"at hole of {identifier.name!r}"
                )
            self._rebind(identifier, name, binding)
        self._bound = key
        return self.unit

    def render(self, vector: Sequence[str]) -> str:
        """Rebind and pretty-print: the textual realization of ``vector``."""
        return self._render(self.bind(vector))

    def order_clean(self, vector: Sequence[str]) -> bool:
        """True when no entry names a declaration that follows its hole."""
        for name, late in zip(vector, self.late_names):
            if name in late:
                return False
        return True

    # -- language-specific hooks ------------------------------------------

    def _rebind(self, identifier, name: str, binding) -> None:
        raise NotImplementedError

    def _render(self, unit) -> str:
        raise NotImplementedError


@dataclass
class Skeleton:
    """A syntactic skeleton: holes + scope tree + a way to realize fillings.

    Frontends construct one of these per seed program.  ``realize`` is a
    callback supplied by the frontend that renders a concrete program from a
    characteristic vector; the core never needs to know the AST shape.

    Frontends that keep their parsed program around may additionally attach
    ``bind_fn``: a callback that *rebinds* the frontend's single AST to a
    characteristic vector in O(holes) and returns it (an opaque object as far
    as the core is concerned).  Consumers that understand the frontend's AST
    (the reference interpreter, the compiler driver) can then skip the
    render / re-lex / re-parse / re-resolve round-trip entirely -- the
    parse-once fast path of the campaign harness.  ``order_clean_fn``
    reports whether a vector respects the frontend's declaration-before-use
    discipline (vectors that do not would be *rejected* by a textual
    frontend, so they must take the render+reparse path to stay
    observationally identical).
    """

    name: str
    holes: list[Hole]
    scope_tree: ScopeTree
    original_vector: CharacteristicVector | None = None
    realize_fn: Callable[[Sequence[str]], str] | None = None
    bind_fn: Callable[[Sequence[str]], object] | None = None
    order_clean_fn: Callable[[Sequence[str]], bool] | None = None
    metadata: dict = field(default_factory=dict)

    # -- basic shape -------------------------------------------------------

    @property
    def num_holes(self) -> int:
        return len(self.holes)

    def functions(self) -> list[str]:
        """Names of the functions that own at least one hole (in hole order)."""
        names: list[str] = []
        for hole in self.holes:
            if hole.function is not None and hole.function not in names:
                names.append(hole.function)
        return names

    def hole_types(self) -> set[str]:
        return {hole.type for hole in self.holes}

    # -- candidate variables ----------------------------------------------

    def candidate_variables(self, hole: Hole) -> list[Variable]:
        """The variables that may legally fill ``hole`` (scope- and type-correct)."""
        return self.scope_tree.visible_variables(hole.scope_id, type=hole.type)

    def candidate_names(self, hole: Hole) -> list[str]:
        return [variable.name for variable in self.candidate_variables(hole)]

    def hole_variable_sets(self) -> list[list[str]]:
        """The hole variable sets ``v_i`` for every hole, in hole order."""
        return [self.candidate_names(hole) for hole in self.holes]

    # -- realization -------------------------------------------------------

    def realize(self, vector: Sequence[str]) -> str:
        """Render the program obtained by filling the holes with ``vector``."""
        if self.realize_fn is None:
            raise ValueError(f"skeleton {self.name!r} has no realize function attached")
        if len(vector) != self.num_holes:
            raise ValueError(
                f"vector length {len(vector)} does not match hole count {self.num_holes}"
            )
        self.validate_vector(vector)
        return self.realize_fn(tuple(vector))

    @property
    def supports_binding(self) -> bool:
        """Whether this skeleton can realize variants by AST rebinding."""
        return self.bind_fn is not None

    def bind(self, vector: Sequence[str]):
        """Rebind the skeleton's program AST to ``vector`` and return it.

        O(holes): no clone, no render, no re-parse.  The returned object is
        the frontend's *shared* AST -- it stays bound to ``vector`` only
        until the next ``bind``/``realize`` call, so callers must not hold
        on to it across variants (use :class:`BoundVariant`, which rebinds
        on access).
        """
        if self.bind_fn is None:
            raise ValueError(f"skeleton {self.name!r} has no bind function attached")
        if len(vector) != self.num_holes:
            raise ValueError(
                f"vector length {len(vector)} does not match hole count {self.num_holes}"
            )
        return self.bind_fn(tuple(vector))

    def vector_order_clean(self, vector: Sequence[str]) -> bool:
        """True when every entry is declared before the hole it fills."""
        if self.order_clean_fn is None:
            return bool(self.metadata.get("declaration_order_clean", True))
        return self.order_clean_fn(tuple(vector))

    def validate_vector(self, vector: Sequence[str]) -> None:
        """Raise ``ValueError`` unless every entry is visible at its hole."""
        for hole, name in zip(self.holes, vector):
            if name not in self.candidate_names(hole):
                raise ValueError(
                    f"variable {name!r} is not visible (or has the wrong type) at {hole}"
                )

    # -- statistics (Table 2 style) -----------------------------------------

    def stats(self) -> dict[str, float]:
        """Per-skeleton characteristics used by Table 2.

        Returns a dict with hole count, scope count, function count, the
        number of distinct variable types, total declared variables, and the
        average number of candidate variables per hole.
        """
        candidate_sizes = [len(self.candidate_names(hole)) for hole in self.holes]
        variables = self.scope_tree.all_variables()
        return {
            "holes": float(self.num_holes),
            "scopes": float(len(self.scope_tree)),
            "functions": float(len(self.scope_tree.function_scopes())),
            "types": float(len({variable.type for variable in variables})) if variables else 0.0,
            "variables": float(len(variables)),
            "vars_per_hole": (
                sum(candidate_sizes) / len(candidate_sizes) if candidate_sizes else 0.0
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Skeleton({self.name!r}, holes={self.num_holes}, scopes={len(self.scope_tree)})"


class BoundVariant:
    """One enumerated variant, realized lazily.

    Carries the (skeleton, enumeration index, characteristic vector) triple;
    the expensive representations are produced on demand:

    * ``program`` -- the skeleton's AST rebound to the vector (O(holes) per
      access; the AST is shared across variants, so the property rebinds on
      every read and remains correct even if variants are interleaved);
    * ``source`` -- the rendered program text, produced only when something
      actually needs text (a bug report, a reduction, the CLI) and cached.

    ``cache`` is a scratch dict for consumers that memoise per-variant
    derived artefacts (the compiler driver stores the lowered IR there so
    one lowering is shared by every configuration of the oracle matrix).
    """

    __slots__ = ("skeleton", "index", "vector", "cache", "_source")

    def __init__(self, skeleton: Skeleton, index: int, vector: CharacteristicVector) -> None:
        self.skeleton = skeleton
        self.index = index
        self.vector = vector
        self.cache: dict = {}
        self._source: str | None = None

    @property
    def program(self):
        """The skeleton's AST rebound to this variant's vector."""
        return self.skeleton.bind(self.vector)

    @property
    def source(self) -> str:
        """The rendered program text (cached after the first render)."""
        if self._source is None:
            self._source = self.skeleton.realize(self.vector)
        return self._source

    @property
    def order_clean(self) -> bool:
        """Whether this vector respects declaration-before-use (see Skeleton)."""
        return self.skeleton.vector_order_clean(self.vector)

    @property
    def supports_binding(self) -> bool:
        return self.skeleton.supports_binding

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoundVariant({self.skeleton.name!r}#{self.index}, {self.vector!r})"
