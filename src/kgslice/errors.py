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


class UnknownVertex(KgsliceError):
    pass


class UnknownType(KgsliceError):
    pass


class UnknownPredicate(KgsliceError):
    pass


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
    def __init__(self, status: int, body: str):
        super().__init__(f"endpoint rejected query with HTTP {status}")
        self.status = status
        self.body = body


class JobFailed(KgsliceError):
    """A page job failed: its request gave up, or its row count was wrong."""

    def __init__(self, job, cause):
        super().__init__(f"job {job} failed: {cause}")
        self.job = job
        self.cause = cause


def check_at_least_one(value: int, name: str) -> None:
    """Raise KgsliceError("<name> must be >= 1") unless ``value`` >= 1."""
    if value < 1:
        raise KgsliceError(f"{name} must be >= 1")
