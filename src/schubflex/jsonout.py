"""JSON text as ``json.dumps(value, sort_keys=True, indent=2)`` spells it, without the json package.

``tits --json`` and ``verify --json`` print their reports through
:func:`chunks`.  Importing the json package and running its pure-Python
indented encoder would raise those commands' peak memory; this module is
smaller, and only those two commands load it (see :mod:`~schubflex.commands`).

Values are dicts with str keys, lists and tuples, str, int, bool and None.
Any other type, or a key that is not a str, raises :class:`TypeError`, as
json does for a type it cannot encode.  Strings are escaped as json's
``ensure_ascii`` escapes them: ``\\"``, ``\\\\``, the five named control
escapes, ``\\uXXXX`` for any other character outside printable ASCII, and a
surrogate pair for a character past U+FFFF.
"""

from __future__ import annotations

_NAMED = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(char: str) -> str:
    """The escape of a quote, a backslash or a character outside printable ASCII."""
    named = _NAMED.get(char)
    if named is not None:
        return named
    code = ord(char)
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


def _quote(text: str) -> str:
    """``text`` as a JSON string literal."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'  # printable ASCII, the usual case: nothing to escape
    spelled = (c if " " <= c <= "~" and c not in '"\\' else _escape(c) for c in text)
    return '"' + "".join(spelled) + '"'


def _scalar(value) -> str | None:
    """The text of a str, int, bool or None; None for a list, tuple or dict; else TypeError."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def chunks(value):
    """Yield pieces of text whose join is ``json.dumps(value, sort_keys=True, indent=2)``."""
    text = _scalar(value)
    if text is None:
        yield from _container(value, "\n")
    else:
        yield text


def _container(value, indent: str):
    """Yield the text of a list, tuple or dict, a piece at each item that is one of them.

    ``indent`` is the newline and indentation of the value's own line.  So a
    list or dict whose items are all scalars is one piece.
    """
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = [(f"{_quote(key)}: ", item) for key, item in sorted(value.items())]
        text, closing = "{", "}"
    else:
        items = [("", item) for item in value]
        text, closing = "[", "]"
    if items:
        inner = indent + "  "
        sep = inner
        for lead, item in items:
            item_text = _scalar(item)
            if item_text is None:
                yield text + sep + lead
                yield from _container(item, inner)
                text = ""
            else:
                text += sep + lead + item_text
            sep = "," + inner
        text += indent
    yield text + closing
