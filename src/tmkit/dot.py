"""Graph-description (DOT) output for static and behavioral models.

Topology only: thimac containment becomes nested clusters, flows become
solid edges, triggers dashed ones. Layout is left to external tooling.
"""

from __future__ import annotations

from . import expr as ex
from . import model as md
from ._record import record
from .events import BehavioralModel


@record
class RenderOptions:
    target: str = "static"  # "static" | "behavior"
    show_stores: bool = False
    rankdir: str = "LR"  # "LR" | "TB"


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(obj, opts: RenderOptions = RenderOptions()) -> str:
    if opts.target == "behavior":
        return _emit_behavior(obj, opts)
    return _emit_static(obj, opts)


def _emit_static(static: md.StaticModel, opts: RenderOptions) -> str:
    lines = ["digraph tm {", f"  rankdir={opts.rankdir};",
             "  compound=true;"]

    def emit_thimac(thimac: md.Thimac, prefix: str, indent: str):
        path = f"{prefix}.{thimac.name}" if prefix else thimac.name
        lines.append(f"{indent}subgraph {_quote('cluster_' + path)} {{")
        label = thimac.name + (" (specializes)" if thimac.specializes else "")
        lines.append(f"{indent}  label={_quote(label)};")
        for action in static.actions_by_owner.get(path, ()):
            lines.append(f"{indent}  {_quote(action.id)} "
                         f"[label={_quote(action.kind.word)}];")
        if opts.show_stores and thimac.store is not None:
            value = thimac.store.value
            label = ("store" if value is None
                     else f"store = {ex._lit_text(value)}")
            lines.append(f"{indent}  {_quote(path + '.store')} "
                         f"[shape=cylinder, label={_quote(label)}];")
        for sub in thimac.subthimacs:
            emit_thimac(sub, path, indent + "  ")
        lines.append(f"{indent}}}")

    for thimac in static.thimacs:
        emit_thimac(thimac, "", "  ")
    for edge in static.flows:
        lines.append(f"  {_quote(edge.src)} -> {_quote(edge.dst)};")
    for edge in static.triggers:
        lines.append(f"  {_quote(edge.src)} -> {_quote(edge.dst)} "
                     "[style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_behavior(behavior: BehavioralModel, opts: RenderOptions) -> str:
    lines = ["digraph behavior {", f"  rankdir={opts.rankdir};"]
    for event in behavior.events:
        label = event.id if event.label == event.id \
            else f"{event.id}: {event.label}"
        lines.append(f"  {_quote(event.id)} [label={_quote(label)}];")
    for edge in behavior.edges:
        attrs = ""
        if edge.guard is not None:
            attrs = f" [label={_quote(ex.to_text(edge.guard))}]"
        lines.append(f"  {_quote(edge.src)} -> {_quote(edge.dst)}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"
