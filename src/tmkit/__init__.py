"""Toolkit for executable thinging-machine (TM) models.

Parse `.tm` texts, validate them, eventize them into behavioral models,
simulate traces, render DOT graphs, and convert to and from UML-style
class models.
"""

from .model import (ActionKind, Action, FlowEdge, Store, StaticModel,
                    Thimac, TriggerEdge, ValidationReport, build_model,
                    canonicalize, validate_static)
from .dsl import ParseError, SourceUnit, parse, print_text
from .events import (BehavioralModel, BehaviorEdge, EventRegion,
                     build_behavior, check_behavior, eventize)
from .sim import (Trace, TraceEntry, WorldState, init_world, simulate,
                  trace_to_json, trace_to_text)
from .uml import (AttributeDef, ClassDef, ClassModel, MethodDef,
                  class_to_tm, read_class_json, tm_to_class,
                  write_class_json)
from .dot import RenderOptions, emit_dot

__version__ = "0.1.0"

__all__ = [
    "ActionKind", "Action", "FlowEdge", "Store", "StaticModel", "Thimac",
    "TriggerEdge", "ValidationReport", "build_model", "canonicalize",
    "validate_static", "ParseError", "SourceUnit", "parse", "print_text",
    "BehavioralModel", "BehaviorEdge", "EventRegion", "build_behavior",
    "check_behavior", "eventize", "Trace", "TraceEntry", "WorldState",
    "init_world", "simulate", "trace_to_json", "trace_to_text",
    "AttributeDef", "ClassDef", "ClassModel", "MethodDef", "class_to_tm",
    "read_class_json", "tm_to_class", "write_class_json", "RenderOptions",
    "emit_dot",
]
