"""Exception types shared across the package, and the shared ">= 1" check."""


class KgsliceError(Exception):
    """Base class for all errors raised by this package."""


class IoFailure(KgsliceError):
    pass


class ParseError(KgsliceError):
    """A malformed statement. Carries the 1-based line number and a reason.

    Instances are collected (not raised) during lenient ingestion; strict
    mode raises the first one encountered.
    """

    def __init__(self, line: int, reason: str, text: str = ""):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason
        self.text = text


class MalformedTerm(KgsliceError):
    """A term N-Triples forbids where it occurs. Carries the term."""

    def __init__(self, term: str):
        super().__init__(f"{term!r} is not valid N-Triples where it occurs")
        self.term = term


class IdSpaceExhausted(KgsliceError):
    """More distinct terms, or predicates, than int32 ids can number. Carries what and the limit."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"more than {limit} distinct {what}: ids are int32, so {limit} is the limit")
        self.what = what
        self.limit = limit


class UnknownVertex(KgsliceError):
    """A vertex the graph does not hold. Carries the IRI, surface form or id asked for."""

    def __init__(self, vertex):
        super().__init__(f"unknown vertex {vertex}: not in the graph")
        self.vertex = vertex


class UnknownType(KgsliceError):
    """A class no type triple of the graph has as its object. Carries the class asked for."""

    def __init__(self, type_):
        super().__init__(f"unknown type {type_}: no type triple in the graph has it as object")
        self.type = type_


class UnknownPredicate(KgsliceError):
    """A predicate the graph does not hold. Carries the IRI or surface form asked for."""

    def __init__(self, predicate):
        super().__init__(f"unknown predicate {predicate}: not in the graph")
        self.predicate = predicate


class EmptyTargetSet(KgsliceError):
    pass


class DuplicateTarget(KgsliceError):
    pass


class NotNodeClassification(KgsliceError):
    pass


class MissingTimeValue(KgsliceError):
    def __init__(self, vertex: int):
        super().__init__(f"target vertex {vertex} has no time value")
        self.vertex = vertex


class EmptySubgraph(KgsliceError):
    pass


class MissingFeature(KgsliceError):
    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex} has no feature vector")
        self.vertex = vertex


class UnsupportedParams(KgsliceError):
    pass


class EndpointUnreachable(KgsliceError):
    pass


class QueryRejected(KgsliceError):
    """An endpoint answered with an error status, or a 200 reply the client cannot use.

    For status 200 ``body`` is the client's own reason, which the message names.
    """

    def __init__(self, status: int, body: str):
        if status == 200:
            super().__init__(f"endpoint reply rejected: {body}")
        else:
            super().__init__(f"endpoint rejected query with HTTP {status}")
        self.status = status
        self.body = body


class JobFailed(KgsliceError):
    """A page job failed: its request gave up, or its row count was wrong."""

    def __init__(self, job, cause):
        super().__init__(f"job {job} failed: {cause}")
        self.job = job
        self.cause = cause
        self.completed_jobs = []  # the plan's finished jobs, by index, set by execute_plan


def check_at_least_one(value: int, name: str) -> None:
    """Raise KgsliceError("<name> must be >= 1") unless ``value`` >= 1."""
    if value < 1:
        raise KgsliceError(f"{name} must be >= 1")
