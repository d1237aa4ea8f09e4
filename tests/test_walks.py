"""`model._walk` is the one walk of the thimac tree, with no frame per level.

Four checks: only the expression functions, whose depth the parser
bounds, call themselves; only `model._walk` steps through the thimac
tree; `print_text`, `emit_dot` and `tm_to_class`, which read that
walk, give what recursive walks give, which are kept here as references;
and no event or simulator function scans every static edge.
"""

import ast
from pathlib import Path

from hypothesis import given, settings

import tmkit
from tmkit import dsl, errors, expr as ex, model as md
from tmkit.dot import RenderOptions, _quote, emit_dot
from tmkit.uml import (AmbiguousSubthimac, AttributeDef, ClassDef, ClassModel,
                       MethodDef, UmlError, _is_action_only, tm_to_class)

from test_model import library_models


def _functions():
    """(`module.function`, its node) for each function in tmkit."""
    for path in sorted(Path(tmkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node


def _self_calls():
    """`module.function` for each function in tmkit that calls itself by
    name, or as `self.name` in a method."""
    found = set()
    for name, node in _functions():
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if (isinstance(func, ast.Name) and func.id == node.name
                    or isinstance(func, ast.Attribute)
                    and func.attr == node.name
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"):
                found.add(name)
    return found


def test_only_the_expression_functions_call_themselves():
    # `ParseError.__init__` calls `super().__init__`, which is no self-call
    assert _self_calls() == {"dsl.parse_expr", "expr.paths_in",
                             "expr.compiled", "expr.to_text"}


def _tree_iterations():
    """`module.function` for each function in tmkit that calls `iter()` on
    a `.thimacs` or `.subthimacs` attribute, as a walk of the tree does."""
    return {name for name, node in _functions() for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "iter"
            and call.args and isinstance(call.args[0], ast.Attribute)
            and call.args[0].attr in ("thimacs", "subthimacs")}


def test_only_model_walk_steps_through_the_thimac_tree():
    assert _tree_iterations() == {"model._walk"}


def _static_edge_reads():
    """`module.function` for each function in `events` or `sim` that reads
    a `.flows` or `.triggers` attribute, as a scan of every static edge
    does."""
    return {name for name, node in _functions()
            if name.partition(".")[0] in ("events", "sim")
            for attribute in ast.walk(node)
            if isinstance(attribute, ast.Attribute)
            and attribute.attr in ("flows", "triggers")}


def test_regions_are_read_through_the_static_edge_index():
    # an event's region comes from `StaticModel.edges_from`, in time
    # linear in its covers, never from a scan of every static edge
    assert _static_edge_reads() == set()


def _reference_text(static):
    """`print_text(static)`: each root's block, then the edge lines."""
    blocks = []
    for thimac in static.thimacs:
        lines = []
        _reference_block(lines, thimac, thimac.name, "",
                         static.actions_by_owner)
        blocks.append("\n".join(lines))
    for keyword, arrow, edges in (("flow", "->", static.flows),
                                  ("trigger", "-->", static.triggers)):
        if edges:
            blocks.append("\n".join(dsl._edge_lines(keyword, arrow, edges)))
    return "\n\n".join(blocks) + "\n"


def _reference_block(lines, thimac, path, indent, owned):
    lines.append(f"{indent}thimac {thimac.name}"
                 + (" specializes {" if thimac.specializes else " {"))
    inner = indent + "    "
    if thimac.store is not None:
        value = thimac.store.value
        lines.append(f"{inner}store;" if value is None
                     else f"{inner}store = {ex._lit_text(value)};")
    for action in sorted(owned.get(path, ()),
                         key=lambda a: md.KIND_ORDER.index(a.kind)):
        if action.update is None:
            lines.append(f"{inner}{action.kind};")
        else:
            target, rule = action.update
            lines.append(f"{inner}{action.kind} = {target} := "
                         f"{ex.to_text(rule, ex.SUM)};")
    for sub in thimac.subthimacs:
        _reference_block(lines, sub, f"{path}.{sub.name}", inner, owned)
    lines.append(f"{indent}}}")


def _reference_dot(static, show_stores):
    lines = ["digraph tm {", "  rankdir=LR;", "  compound=true;"]
    for thimac in static.thimacs:
        _reference_cluster(lines, thimac, "", "  ", static.actions_by_owner,
                           show_stores)
    for edge in static.flows:
        lines.append(f"  {_quote(edge.src)} -> {_quote(edge.dst)};")
    for edge in static.triggers:
        lines.append(f"  {_quote(edge.src)} -> {_quote(edge.dst)} "
                     "[style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _reference_cluster(lines, thimac, prefix, indent, owned, show_stores):
    path = f"{prefix}.{thimac.name}" if prefix else thimac.name
    lines.append(f"{indent}subgraph {_quote('cluster_' + path)} {{")
    label = thimac.name + (" (specializes)" if thimac.specializes else "")
    lines.append(f"{indent}  label={_quote(label)};")
    for action in owned.get(path, ()):
        lines.append(f"{indent}  {_quote(action.id)} "
                     f"[label={_quote(action.kind.capitalize())}];")
    if show_stores and thimac.store is not None:
        value = thimac.store.value
        label = ("store" if value is None
                 else f"store = {ex._lit_text(value)}")
        lines.append(f"{indent}  {_quote(path + '.store')} "
                     f"[shape=cylinder, label={_quote(label)}];")
    for sub in thimac.subthimacs:
        _reference_cluster(lines, sub, path, indent + "  ", owned,
                           show_stores)
    lines.append(f"{indent}}}")


def _reference_classes(static):
    classes, paths = [], {}
    for thimac in static.thimacs:
        _reference_classify(thimac, thimac.name, None, classes, paths,
                            static.actions_by_owner)
    return ClassModel(tuple(classes))


def _reference_classify(thimac, path, parent, classes, paths, owned):
    if thimac.name in paths:
        raise UmlError(f"class name '{thimac.name}' is used by both "
                       f"'{paths[thimac.name]}' and '{path}'")
    paths[thimac.name] = path
    attributes, methods, subclasses = [], [], []
    for sub in thimac.subthimacs:
        sub_path = f"{path}.{sub.name}"
        if sub.specializes:
            subclasses.append(sub)
            continue
        if sub.store is not None:
            if sub.subthimacs and all(
                    _is_action_only(c, f"{sub_path}.{c.name}", owned)
                    for c in sub.subthimacs):
                raise AmbiguousSubthimac(
                    f"'{sub_path}' has both a store and action-only "
                    "children; cannot classify")
            attributes.append(
                AttributeDef(sub.name, md.value_type_of(sub.store.value)))
            continue
        if _is_action_only(sub, sub_path, owned):
            methods.append(MethodDef(sub.name))
            continue
        attributes.append(AttributeDef(sub.name, "reference"))  # logged
    classes.append(ClassDef(thimac.name, tuple(attributes), tuple(methods),
                            parent))
    for sub in subclasses:
        _reference_classify(sub, f"{path}.{sub.name}", thimac.name, classes,
                            paths, owned)


def _outcome(function, static):
    """What `function(static)` returns, or the type and text it raises."""
    try:
        return function(static)
    except errors.TmError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(library_models())
def test_print_text_matches_the_recursive_walk(parts):
    try:
        static = md.build_model(*parts)
    except errors.ModelError:  # a store no text writes; see test_model
        return
    assert _outcome(dsl.print_text, static) == \
        _outcome(_reference_text, static)


@settings(max_examples=200, deadline=None)
@given(library_models())
def test_dot_and_class_recovery_match_the_recursive_walks(parts):
    try:
        static = md.build_model(*parts)
    except errors.ModelError:  # a store no text writes; see test_model
        return
    for show_stores in (False, True):
        assert emit_dot(static, RenderOptions(show_stores=show_stores)) == \
            _reference_dot(static, show_stores)
    assert _outcome(tm_to_class, static) == \
        _outcome(_reference_classes, static)



def test_thimacs_nested_five_deep_match_the_recursive_walks():
    # `library_models` seldom nests four levels, where an indent that
    # stops growing at the third level would first show
    thimacs = [md.Thimac("A", subthimacs=(md.Thimac("B", True, subthimacs=(
        md.Thimac("C", True, md.Store(1), (
            md.Thimac("D", True, md.Store("d"), (md.Thimac("E"),)),
            md.Thimac("F", store=md.Store()))),)),))]
    static = md.build_model(thimacs, [
        md.Action("A.B.C.D.E", "create"),
        md.Action("A.B.C.D", "process", ("A.B.C", ex.PathRef("A.B.C")))],
        [md.FlowEdge("A.B.C.D.process", "A.B.C.D.E.create")], [])
    assert dsl.print_text(static) == _reference_text(static)
    for show_stores in (False, True):
        assert emit_dot(static, RenderOptions(show_stores=show_stores)) == \
            _reference_dot(static, show_stores)
    assert tm_to_class(static) == _reference_classes(static)
    assert [c.name for c in tm_to_class(static).classes] == ["A", "B", "C",
                                                              "D"]
