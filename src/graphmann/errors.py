"""Exception taxonomy shared by all modules."""


class GraphmannError(Exception):
    """Base class for all library errors."""


class InputError(GraphmannError):
    """An argument violates an operation's contract (range, shape, emptiness)."""


class DimensionMismatchError(InputError):
    """Vector or matrix dimensions do not agree."""


class DomainError(GraphmannError):
    """A point lies outside the operator's domain."""


class UndefinedProductError(GraphmannError):
    """A step product includes a factor (1 - t) with t = 1."""


class ConfigError(GraphmannError):
    """Experiment configuration or stored-file schema is invalid."""
