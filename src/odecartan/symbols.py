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
        if all(len(c) == 1 for c in self.index):
            return self.name + "_" + "".join(self.index)
        return self.name + "_" + "_".join(self.index)

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
        """Register an opaque function and return its underived jet symbol."""
        args = tuple(args)
        if not name.isidentifier():
            raise SymbolCollisionError(f"opaque function name {name!r} is not an identifier")
        if not args:
            raise SymbolCollisionError(f"opaque function {name!r} needs at least one argument")
        if name in _RESERVED_NAMES:
            raise SymbolCollisionError(f"{name!r} is a coordinate name")
        for a in args:
            if a not in _RESERVED_NAMES:
                raise ChartError(f"argument {a!r} of {name!r} is not a known coordinate")
        if name in self._functions:
            raise SymbolCollisionError(f"opaque function {name!r} already declared")
        sym = Sym(name, args)
        self._functions[name] = sym
        return sym

    def base(self, name):
        return self._functions.get(name)

    def resolve(self, name):
        """Map a rendered name back to a ``Sym`` (coordinates score first).

        Derivative names are ``base_suffix`` where the suffix is a
        concatenation (optionally underscore-separated) of argument names.
        """
        if name in _RESERVED_NAMES:
            return Sym(name)
        base = self.base(name)
        if base is not None:
            return base
        if "_" in name:
            head, _, tail = name.partition("_")
            base = self.base(head)
            if base is not None and tail:
                index = _parse_index(tail.replace("_", ""), base.args)
                if index is not None:
                    return Sym(head, base.args, index)
        raise UnknownSymbolError(f"unknown symbol {name!r}")


def _parse_index(text, args):
    """Greedy split of ``text`` into argument names, with backtracking (a
    stack of partial splits, so a long name cannot exhaust recursion)."""
    names = sorted(set(args), key=len)
    stack = [(0, ())]
    while stack:
        pos, acc = stack.pop()
        if pos == len(text):
            return acc
        # the longest name is pushed last, so it is tried first
        stack.extend((pos + len(a), acc + (a,)) for a in names if text.startswith(a, pos))
    return None
