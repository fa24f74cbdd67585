"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch one base class.  The hierarchy is
deliberately fine-grained: the library sits at the intersection of a query
evaluator, a set of optimization algorithms, and a collection of hardness
reductions, and each layer has distinct failure modes that a caller may want
to handle differently (e.g. refusing to run an exponential-time exact solver
is a policy decision, not a bug).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A schema is malformed or two schemas are incompatible.

    Raised for duplicate attribute names, union of relations with different
    attribute sets, projection onto attributes that do not exist, renaming
    that is not injective, and similar static errors.
    """


class EvaluationError(ReproError):
    """A query could not be evaluated against a database.

    Raised when a query references a relation that the database does not
    contain, or when a selection predicate compares incomparable values.
    """


class ParseError(ReproError):
    """The query DSL parser rejected its input.

    Carries the position of the offending token when available.
    """

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        #: Character offset of the error in the input text, or -1 if unknown.
        self.position = position


class QueryClassError(ReproError):
    """A query falls outside the class an algorithm requires.

    The polynomial-time algorithms of the paper are only correct on specific
    fragments (SPU, SJ, SJU, chain joins, ...).  Calling one on a query
    outside its fragment raises this error rather than silently returning a
    wrong answer.
    """


class ExponentialGuardError(ReproError):
    """An exact solver refused to run because the instance is too large.

    The exact solvers for the NP-hard fragments are exponential in the worst
    case.  They take an explicit budget; exceeding it raises this error so
    callers never block unexpectedly.
    """


class InfeasibleError(ReproError):
    """The requested update or placement has no feasible solution.

    For example: asking to delete a view tuple that is not in the view, or to
    annotate a view location that no source location propagates to (a
    constant column introduced by the query).
    """


class ReductionError(ReproError):
    """A hardness-reduction encoder or decoder was used inconsistently.

    Raised e.g. when decoding a deletion set that is not a valid solution for
    the encoded instance.
    """
