"""Toolkit for executable thinging-machine (TM) models.

Parse `.tm` texts, validate them, eventize them into behavioral models,
simulate traces, render DOT graphs, and convert to and from UML-style
class models. A public name imports its module on first use (PEP 562),
so that a `tm` command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the module that defines it
_MODULE_OF = {name: module for module, names in {
    "model": ("Action", "FlowEdge", "Store", "StaticModel", "Thimac",
              "TriggerEdge", "ValidationReport", "build_model",
              "canonicalize", "validate_static"),
    "dsl": ("ParseError", "SourceUnit", "parse", "print_text"),
    "events": ("BehavioralModel", "BehaviorEdge", "EventRegion",
               "build_behavior", "check_behavior", "eventize"),
    "sim": ("Trace", "TraceEntry", "WorldState", "init_world", "simulate",
            "trace_to_json", "trace_to_text"),
    "uml": ("AttributeDef", "ClassDef", "ClassModel", "MethodDef",
            "class_to_tm", "read_class_json", "tm_to_class",
            "write_class_json"),
    "dot": ("RenderOptions", "emit_dot"),
}.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
