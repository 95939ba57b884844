"""Symbols, charts and the opaque-function registry.

A ``Sym`` is either a chart coordinate or a jet symbol: a named opaque
function of declared arguments carrying a sorted derivative multi-index,
so that mixed partials canonicalize to a single symbol.  Symbols are
totally ordered by ``(name, multi-index)``; this global order is what
makes every polynomial canonical regardless of when a symbol was first
created.
"""

from .errors import ChartError, SymbolCollisionError, UnknownSymbolError


class Sym:
    """A coordinate (``args == ()``) or a jet symbol of an opaque function."""

    __slots__ = ("name", "args", "index", "key", "_hash")

    def __init__(self, name, args=(), index=()):
        self.name = name
        self.args = tuple(args)
        self.index = tuple(sorted(index))
        self.key = (self.name, self.index)
        self._hash = hash(self.key)

    @property
    def is_coordinate(self):
        return not self.args

    @property
    def reads(self):
        """The coordinates this symbol depends on: its own name, or its
        function's arguments."""
        return self.args or (self.name,)

    def derived(self, coord):
        """Jet symbol with one more derivative slot; caller checks coord in args."""
        return Sym(self.name, self.args, self.index + (coord,))

    def render(self):
        if not self.index:
            return self.name
        return self.name + "_" + "".join(self.index)

    def __eq__(self, other):
        return isinstance(other, Sym) and self.key == other.key

    def __lt__(self, other):
        return self.key < other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Sym({self.render()!r})"


class Chart:
    """A named chart with an ordered tuple of distinct coordinate names."""

    __slots__ = ("name", "coords", "_axis", "_syms")

    def __init__(self, name, coords):
        coords = tuple(coords)
        if len(set(coords)) != len(coords):
            raise ChartError(f"chart {name!r} has repeated coordinates")
        self.name = name
        self.coords = coords
        self._axis = {c: i for i, c in enumerate(coords)}
        self._syms = tuple(Sym(c) for c in coords)

    @property
    def dim(self):
        return len(self.coords)

    def axis(self, coord):
        try:
            return self._axis[coord]
        except KeyError:
            raise ChartError(f"{coord!r} is not a coordinate of chart {self.name}") from None

    def sym(self, coord):
        return self._syms[self.axis(coord)]

    def __contains__(self, coord):
        return coord in self._axis

    def __repr__(self):
        return f"Chart({self.name}: {','.join(self.coords)})"


# The three built-in charts of the equivalence problem: the second jet
# space, the 6-dimensional bundle over it, and the latter re-coordinatized
# so that the quotient 4-manifold occupies the first four slots.
J2_CHART = Chart("J2", ("x", "y", "p", "q"))
P_CHART = Chart("P", ("x", "y", "p", "q", "alpha", "gamma"))
M_ADAPTED_CHART = Chart("M", ("x", "y", "z", "t", "alpha", "p"))
BUILT_IN_CHARTS = (J2_CHART, P_CHART, M_ADAPTED_CHART)

# 4-dimensional chart carrying the quotient metric.
METRIC_CHART = Chart("M4", ("x", "y", "z", "t"))

_RESERVED_NAMES = frozenset(
    c for chart in BUILT_IN_CHARTS + (METRIC_CHART,) for c in chart.coords
)


class SymbolTable:
    """Append-only registry of opaque functions, one per request."""

    def __init__(self):
        self._functions = {}

    def declare(self, name, args):
        """Register an opaque function and return its underived jet symbol.

        ``name`` is a ``str`` identifier that is neither a coordinate nor
        declared yet; ``args`` is a non-empty list or tuple of distinct
        names among x, y, p, q.  Each refusal is a ``SymbolCollisionError``
        whose text is the ``bad-opaque`` message of ``analyze``."""
        if not (isinstance(name, str) and isinstance(args, (list, tuple))
                and all(isinstance(a, str) for a in args)):
            raise SymbolCollisionError(
                f"opaque {name!r}: need a str name and a list or tuple of str args, got {args!r}")
        if not set(args) <= set(J2_CHART.coords) or len(set(args)) < len(args):
            raise SymbolCollisionError(
                f"opaque {name!r}: arguments must be distinct among x, y, p, q, got {list(args)!r}"
            )
        if not name.isidentifier():
            raise SymbolCollisionError(f"opaque function name {name!r} is not an identifier")
        if not args:
            raise SymbolCollisionError(f"opaque function {name!r} needs at least one argument")
        if name in _RESERVED_NAMES:
            raise SymbolCollisionError(f"{name!r} is a coordinate name")
        if name in self._functions:
            raise SymbolCollisionError(f"opaque function {name!r} already declared")
        sym = Sym(name, args)
        self._functions[name] = sym
        return sym

    def base(self, name):
        return self._functions.get(name)

    def resolve(self, name):
        """Map a rendered name back to a ``Sym`` (coordinates score first).

        A derivative name is ``base_letters``: each letter is one of the
        function's arguments, and ``_`` may stand between letters.
        """
        if name in _RESERVED_NAMES:
            return Sym(name)
        base = self.base(name)
        if base is not None:
            return base
        head, _, tail = name.partition("_")
        base = self.base(head)
        letters = tail.replace("_", "")
        if base is not None and tail and set(letters) <= set(base.args):
            return Sym(head, base.args, letters)
        raise UnknownSymbolError(f"unknown symbol {name!r}")
