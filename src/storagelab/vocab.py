"""The trace's vocabularies, without its event model: the node types of a
behavior edge and their sets, an edge's canonical string and its one parser,
the memo of each edge's node-type mask, and the ``script_storage`` apis and
ops.

The compatibility metrics and the frames reader need only these, and
``policy`` only the storage vocabulary, so none of them loads
``storagelab.trace`` (README "Start-up and exit").
"""

from __future__ import annotations

import json
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Callable, Hashable


class NodeType(Enum):
    """Node vocabulary of the behavior-edge model (fixed, 11 entities)."""

    HTML_ELEMENT = "html_element"
    TEXT_NODE = "text_node"
    DOM_ROOT = "dom_root"
    FRAME_OWNER = "frame_owner"
    SCRIPT = "script"
    JS_BUILTIN = "js_builtin"
    WEB_API = "web_api"
    HTTP_RESOURCE = "http_resource"
    COOKIE_JAR = "cookie_jar"
    LOCAL_STORAGE = "local_storage"
    SESSION_STORAGE = "session_storage"


ALL_NODE_TYPES = frozenset(NodeType)

STORAGE_NODE_TYPES = frozenset(
    {NodeType.COOKIE_JAR, NodeType.LOCAL_STORAGE, NodeType.SESSION_STORAGE}
)

# Scripts, selected JS builtins, HTTP resources, frame structure, and storage
# mechanisms: the subset that best separates broken from healthy frames.
OPTIMAL_NODE_TYPES = frozenset(
    {
        NodeType.SCRIPT,
        NodeType.JS_BUILTIN,
        NodeType.HTTP_RESOURCE,
        NodeType.DOM_ROOT,
        NodeType.FRAME_OWNER,
    }
) | STORAGE_NODE_TYPES


# Bit i of a node-type mask is the i-th type in value order, the order the
# optimizer breaks ties in.
_TYPE_BIT = {t: 1 << i for i, t in enumerate(sorted(NodeType, key=lambda t: t.value))}

# The apis and ops of a trace's ``script_storage`` event.
STORAGE_APIS = ("cookie", "local", "session", "indexed")
STORAGE_OPS = ("get", "set", "delete")


def _edge_string(*fields: str) -> str:
    """The canonical string of an edge (source type, source key, edge type,
    target type, target key): exactly the bytes of ``json.dumps(list(fields),
    separators=(",", ":"))``, its only in-memory form."""
    return "[%s]" % ",".join(map(encode_basestring_ascii, fields))


def edge_endpoint_types(encoded: str) -> tuple[NodeType, NodeType]:
    """Source and target node types of a canonical edge string; ValueError
    naming the string when it is not one: a JSON array of five strings, with
    known node types, that re-encodes to exactly itself."""
    try:
        fields = json.loads(encoded)
        if (type(fields) is list and len(fields) == 5
                and all(type(field) is str for field in fields)
                and _edge_string(*fields) == encoded):
            return NodeType(fields[0]), NodeType(fields[3])
    # Not JSON text (RecursionError: nested too deeply), not text, or an unknown node type.
    except (ValueError, TypeError, RecursionError):
        pass
    raise ValueError(f"not a canonical edge: {encoded!r}")


class _Memo(dict):
    """Each key's value under ``fn``, computed on its first lookup."""

    def __init__(self, fn: Callable[[Hashable], object]) -> None:
        self.fn = fn

    def __missing__(self, key: Hashable):
        self[key] = value = self.fn(key)
        return value


def _edge_mask(edge: str) -> int:
    source, target = edge_endpoint_types(edge)
    return _TYPE_BIT[source] | _TYPE_BIT[target]


# The node-type mask of each canonical edge string, the bits of its two
# endpoint types: parsed on first lookup, so once per distinct edge per
# process, by whichever reader or metric meets it first.
_EDGE_MASKS = _Memo(_edge_mask)
