"""Exception types shared across the toolkit."""


class TmError(Exception):
    """Base class for all toolkit errors."""


# -- model construction --

class ModelError(TmError):
    pass


class DuplicateId(ModelError):
    pass


class DuplicateSiblingName(ModelError):
    pass


class UnknownPath(ModelError):
    pass


class DuplicateEdge(ModelError):
    pass


class TriggerShadowsFlow(ModelError):
    pass


# -- events / behavior --

class EventError(TmError):
    pass


class UnknownActionPath(EventError):
    pass


class EmptyCover(EventError):
    pass


class UnknownEvent(EventError):
    pass


class DuplicateEventId(EventError):
    pass


# -- simulation --

class SimError(TmError):
    pass


class FillPathUnstored(SimError):
    pass


class TypeMismatch(SimError):
    pass


class MissingInput(SimError):
    pass


class GuardEvalError(SimError):
    pass


# -- uml bridge --

class UmlError(TmError):
    pass


class AmbiguousSubthimac(UmlError):
    pass


class CyclicGeneralization(UmlError):
    pass


class SchemaError(UmlError):
    pass
