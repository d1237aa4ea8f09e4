"""The JSON grammar of tmkit's writers, byte for byte as `json.dumps`
writes it with `indent=2`.

CPython serves `json.dumps(..., indent=...)` only with its pure-Python
encoder. `sim.trace_to_json` and `uml.write_class_json` instead build
each object's lines with f-strings over these two helpers: `scalar`
writes one value, through the C `encode_basestring_ascii` for text, and
`json_list` lays out an array of written items.
"""

import json
from json.encoder import encode_basestring_ascii

from . import expr as ex


def scalar(value, unset: str) -> str:
    """`json.dumps(value)` for a store value, and `unset` for UNSET."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or kind is float:
        return repr(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    return unset if value is ex.UNSET else json.dumps(value)


def json_list(items: list[str], indent: str) -> str:
    """Written items as an indent-2 JSON array that closes at `indent`."""
    pad = f"\n{indent}  "
    return f"[{pad}{f',{pad}'.join(items)}\n{indent}]" if items else "[]"
