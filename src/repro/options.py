"""The shared ``key=value`` option grammar of the opt-in subsystems.

Retry, admission, routing, fallback, cache, sharding, scheduler,
retrieval and backend specs are comma-separated ``key=value`` items plus
at most one bare positional item (a discipline, a policy, a shard count).
:func:`parse_options` reads them and :func:`format_options` writes them
back, so that ``parse(spec_string(c)) == c`` for every config. The chaos
and tenant grammars have other shapes; they share :func:`convert` and
:func:`format_value` only.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

#: option key -> (constructor keyword, converter from text).
Keys = Mapping[str, Tuple[str, Callable[[str], Any]]]

_EXPECTED = {int: "an integer", float: "a number"}


def on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise ValueError(text)
    return text == "on"


on_off.expected = "on/off"


def convert(what: str, key: str, converter: Callable[[str], Any], text: str):
    """``converter(text)``; a bad value raises a ``ValueError`` naming the
    grammar, the key and the expected type."""
    try:
        return converter(text)
    except ValueError:
        expected = getattr(converter, "expected", None) or _EXPECTED.get(
            converter, converter.__name__
        )
        raise ValueError(
            f"{what} option {key} needs {expected}, got {text!r}"
        ) from None


def parse_options(
    text: str,
    keys: Keys,
    *,
    what: str,
    positional: Optional[Tuple[str, Any]] = None,
) -> Dict[str, Any]:
    """Constructor keyword arguments from a comma-separated option string.

    Empty items are skipped; a later key overrides an earlier one.
    ``positional=(keyword, choices)`` accepts a bare item as ``keyword``,
    where ``choices`` is a tuple of allowed names or a converter.
    """
    kwargs: Dict[str, Any] = {}
    for item in filter(None, (part.strip() for part in text.split(","))):
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq:
            if positional is None:
                raise ValueError(f"bad {what} option {item!r}; expected key=value")
            name, choices = positional
            if not isinstance(choices, tuple):
                kwargs[name] = convert(what, name, choices, item)
            elif item in choices:
                kwargs[name] = item
            else:
                raise ValueError(
                    f"unknown {what} {name} {item!r}; known: {', '.join(choices)}"
                )
        elif key in keys:
            name, converter = keys[key]
            kwargs[name] = convert(what, key, converter, value)
        else:
            raise ValueError(
                f"unknown {what} option {key!r}; known: {', '.join(keys)}"
            )
    return kwargs


def format_value(value) -> str:
    """Option text that parses back to exactly ``value``: floats use
    ``:g`` when that is exact and ``repr`` otherwise; booleans are
    ``on``/``off``."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        text = f"{value:g}"
        return text if float(text) == value else repr(value)
    return str(value)


def format_options(
    config, keys: Keys, *, changed_only: bool = True, skip: Tuple[str, ...] = ()
) -> List[str]:
    """``key=value`` items for ``config``, in ``keys`` order.

    With ``changed_only`` only fields that differ from the class defaults
    are written. ``None`` fields and the keywords in ``skip`` (a
    positional item the caller writes itself) are always left out.
    """
    default = type(config)()
    items = []
    for key, (name, _) in keys.items():
        value = getattr(config, name)
        if value is None or name in skip:
            continue
        if changed_only and value == getattr(default, name):
            continue
        items.append(f"{key}={format_value(value)}")
    return items
