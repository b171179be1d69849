"""Exception hierarchy shared by all meshstack modules."""

from __future__ import annotations


class MeshstackError(Exception):
    """Base class for all meshstack errors."""


class ValidationError(MeshstackError):
    """Instance failed validation; carries the full list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{v.code}: {v.message}" for v in self.violations)
        super().__init__(f"instance validation failed ({len(self.violations)} violations): {lines}")


class NoFeasibleLayerError(MeshstackError):
    """A component has no layer in which it can be implemented."""

    def __init__(self, component_id: str):
        self.component_id = component_id
        super().__init__(f"component {component_id!r} is infeasible in every layer")


class InvalidParamsError(MeshstackError):
    """Algorithm parameters outside their documented domain."""


class InputError(MeshstackError):
    """An input file (instance, config, report, artifact) is missing or malformed."""


class SolverFailureError(MeshstackError):
    """The internal LP solver could not produce a solution."""


class InstanceTooLargeError(MeshstackError):
    """Instance exceeds the configured limits of an exact solver."""


class TooManyArraysError(MeshstackError):
    """Requested more TSV arrays than grid cells available."""


class NoCandidatesError(MeshstackError):
    """No router pair on a boundary is within the redistribution reach."""


class InsufficientCandidatesError(MeshstackError):
    """Fewer candidate vertical links than the requested count."""


class UnreachableError(MeshstackError):
    """A flow's endpoints are not connected in the network graph."""

    def __init__(self, src: str, dst: str):
        self.src = src
        self.dst = dst
        super().__init__(f"no route from {src!r} to {dst!r}; vertical connectivity is missing")


class IncompleteSolutionError(MeshstackError):
    """A solution artifact required for evaluation is missing or partial."""
