"""Exception types shared across the package."""


class AdmgIdentError(Exception):
    """Base class for all errors raised by admgident."""


# --- graph model ---

class GraphError(AdmgIdentError):
    """A mixed graph violates a structural invariant."""


class SelfLoop(GraphError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"self-loop at vertex {vertex!r}")


class UnknownVertex(GraphError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} is not declared in the graph")


class DuplicateVertex(GraphError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} is declared more than once")


class CyclicGraph(AdmgIdentError):
    """The directed part contains a cycle where an acyclic graph is required."""


class InvalidFactorGraph(GraphError):
    """A latent factor graph violates the pure source-node factor form."""


class GraphFormatError(AdmgIdentError):
    """A graph document could not be parsed."""


# --- identifiability engine ---

class NotAParentSubset(AdmgIdentError):
    def __init__(self, q, v):
        super().__init__(f"{sorted(q)!r} is not a subset of the parents of {v!r}")


class NotCycleDecomposable(AdmgIdentError):
    """The graph does not decompose into vertex-disjoint simple directed cycles."""


# --- numeric oracles ---

class SingularMatrix(AdmgIdentError):
    """I - Lambda is numerically singular."""


class SizeMismatch(AdmgIdentError):
    """Row and column index sets must have equal cardinality."""


class TooLarge(AdmgIdentError):
    """Input exceeds the documented brute-force enumeration limits."""


class InvalidDrawCount(AdmgIdentError):
    """A modal rank needs at least one generic parameter draw."""

    def __init__(self, draws):
        self.draws = draws
        super().__init__(f"need at least 1 parameter draw, got {draws}")


class BindingMismatch(AdmgIdentError):
    """Two objects are bound to different graphs or column sets."""


# --- simulation ---

class InvalidDensity(AdmgIdentError):
    """Requested edge density yields no edges."""


class DegenerateParameters(AdmgIdentError):
    """No nonsingular parameter draw found within the redraw budget."""


class UnsupportedOrder(AdmgIdentError):
    """Cumulant order outside the supported range 2..4."""


# --- estimation ---

class LengthMismatch(AdmgIdentError):
    """Sample columns have different lengths."""


class RankDeficientParents(AdmgIdentError):
    """Parent columns are collinear; regression coefficients undefined."""


class NonFiniteObjective(AdmgIdentError):
    """The optimizer produced a non-finite objective value."""

    def __init__(self, message, last_iterate=None):
        self.last_iterate = last_iterate
        super().__init__(message)


class ZeroTrueMatrix(AdmgIdentError):
    """Normalized loss is undefined for a zero reference matrix."""
