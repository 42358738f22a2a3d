"""The escaper registry: pure transforms applied to untrusted values.

A transform, and any replacement registered under an escaper name, must be
pure: the same value always gives the same text or the same error, and
nothing else happens. A plan render may call a chain over a whole loop
column before it writes anything, escape a value that does not depend on
the loop item once for all items, and call the chain again on every item
after a column attempt that raised.

Escaper names are the vocabulary shared by table escaper maps and compiled
plans, so renaming one is a wire-format change. Each transform owns its
SafeContent rule: ``escape_pcdata`` passes ``SafeContent("html", ...)``
through, ``escape_json_value`` rejects all SafeContent, and the others
escape its text like any other string. ``chain`` is the one implementation
of an escaper chain; ``apply_chain`` and compiled plans both call it. It
fuses adjacent shipped transforms by identity (see ``_FUSED``), so the names
in tables and plans never change, and a registered replacement transform
turns fusion off for the chains it is in.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable

from .records import FrozenRecord
from .values import EscapeError, SafeContent, stringify

# The HTML and CSS escapers first look for a character they would change and
# return the text itself when there is none; most values need no escaping.
_ATTR_SEARCH = re.compile(r"[&<>\"']").search

# RFC 3986 reserved and unreserved characters survive URL filtering; anything
# else (spaces, quotes, angle brackets, non-ASCII) is percent-encoded. A URL
# filter first tries one fullmatch that passes a value through as it is: an
# allowed scheme (ASCII letters only: under Unicode case folding ſ matches s)
# or no scheme at all, then only kept characters. Any other value gets the
# scheme check, then is percent-encoded by translating its UTF-8 bytes, read
# as latin-1, through a 256-entry table; the attribute and CSS string forms'
# tables also escape ``&`` and ``'``, the only characters significant there
# that the filter keeps.
_URL_KEPT = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
             ":/?#[]@!$&'()*+,;=%-._~")
_ALLOWED_SCHEMES = frozenset({"http", "https", "mailto", "tel", "ftp"})
_URL_SCHEME_END = re.compile(r"[:/?#]").search
_URL_HEAD = "(?:(?ai:%s):|(?![^:/?#]*:))" % "|".join(sorted(_ALLOWED_SCHEMES))
_URL_PASSES = re.compile("%s[%s]*" % (_URL_HEAD, re.escape(_URL_KEPT))).fullmatch
_URL_ATTR_PASSES = re.compile("%s[%s]*" % (
    _URL_HEAD, re.escape(_URL_KEPT.replace("&", "").replace("'", "")))).fullmatch
_PCT = tuple(chr(b) if chr(b) in _URL_KEPT else "%%%02X" % b for b in range(256))
_PCT_ATTR = tuple(map({"&": "&amp;", "'": "&#39;"}.get, _PCT, _PCT))
_PCT_CSS = tuple(map({"&": "\\26 ", "'": "\\27 "}.get, _PCT, _PCT))

# Substituting instead of deleting keeps a rejected URL from turning the
# interpolation into an empty transition.
URL_REPLACEMENT = "about:invalid#blocked"

_CSS_STRING_SEARCH = re.compile(r'[\\"\'<>&\n\r\f]').search


def escape_pcdata(value) -> str:
    """Escape for an HTML text node; safe HTML passes through verbatim."""
    if type(value) is str:
        text = value
    elif isinstance(value, SafeContent) and value.language == "html":
        return stringify(value)
    else:
        text = stringify(value)
    if "&" not in text and "<" not in text and ">" not in text:
        return text
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_html_attr(value) -> str:
    """Escape for an HTML attribute value.

    SafeContent is not passed through here: the attribute escaper has to
    preserve the integrity of the delimiting quotes, so even safe HTML text
    is re-escaped character by character.
    """
    text = value if type(value) is str else stringify(value)
    if _ATTR_SEARCH(text) is None:
        return text
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("'", "&#39;"))


def filter_url_prefix(value) -> str:
    """Allow http/https/mailto/tel/ftp and relative URLs; block the rest.

    A blocked URL is replaced with a fixed inert URL rather than erased.
    Allowed URLs are returned with characters outside the URL-safe set
    percent-encoded (UTF-8, uppercase hex); a value with no UTF-8 form (a
    lone surrogate) raises EscapeError.
    """
    text = value if type(value) is str else stringify(value)
    return text if _URL_PASSES(text) else _filter_url(text, _PCT)


def filter_url_attr(value) -> str:
    """``filter_url_prefix`` then ``escape_html_attr`` in one call.

    The filter's output is already text and holds no ``"``, ``<`` or ``>``
    (it percent-encodes them), so only ``&`` and ``'`` are left to escape,
    and the percent table escapes them in the same pass.
    """
    text = value if type(value) is str else stringify(value)
    return text if _URL_ATTR_PASSES(text) else _filter_url(text, _PCT_ATTR)


def filter_url_css(value) -> str:
    """``filter_url_prefix`` then ``escape_css_string`` in one call, in the
    way ``filter_url_attr`` fuses the attribute escaper."""
    text = value if type(value) is str else stringify(value)
    return text if _URL_ATTR_PASSES(text) else _filter_url(text, _PCT_CSS)


def _filter_url(text: str, table: tuple[str, ...]) -> str:
    m = _URL_SCHEME_END(text)
    if m and text[m.start()] == ":" and text[: m.start()].lower() not in _ALLOWED_SCHEMES:
        return URL_REPLACEMENT
    try:
        return text.encode("utf-8").decode("latin-1").translate(table)
    except UnicodeEncodeError as exc:  # a lone surrogate has no UTF-8 form
        raise EscapeError(f"cannot percent-encode URL value: {exc.reason} "
                          f"at index {exc.start}") from None


# json.dumps with these keywords builds a new encoder on every call. Sharing
# one is safe: encode keeps no state between calls (each call makes its own
# circular-reference markers and C encoder). An exact str, int, bool or None
# skips it, for what it would call or write.
_json_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True,
                                separators=(",", ":")).encode
_json_encode_str = json.encoder.encode_basestring


def escape_json_value(value) -> str:
    """Serialize as a JSON literal safe for a script element body.

    ``<``, ``>`` and ``&`` are escaped inside the serialized form so the
    output can never contain ``</script`` or an HTML comment opener.
    """
    cls = type(value)
    if cls is str:
        out = _json_encode_str(value)
        if "<" not in out and ">" not in out and "&" not in out:
            return out
    elif cls is int:
        try:
            return int.__repr__(value)
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            raise EscapeError(f"cannot serialize value as JSON: {exc}") from None
    elif cls is bool:
        return "true" if value else "false"
    elif value is None:
        return "null"
    elif isinstance(value, SafeContent):
        raise EscapeError("safe content has no meaning inside a script body")
    else:
        try:
            out = _json_encode(value)
        except (TypeError, ValueError) as exc:
            raise EscapeError(f"cannot serialize value as JSON: {exc}") from None
    return out.replace("<", "\\u003c").replace(">", "\\u003e").replace("&", "\\u0026")


def escape_css_string(value) -> str:
    """Escape for the inside of a CSS string literal (hex escapes keep
    quotes, backslashes, and markup-significant characters inert)."""
    text = value if type(value) is str else stringify(value)
    if _CSS_STRING_SEARCH(text) is None:
        return text
    # the backslash first, so the escapes added after it stay as they are
    return (text.replace("\\", "\\\\").replace('"', "\\22 ").replace("'", "\\27 ")
            .replace("<", "\\3c ").replace(">", "\\3e ").replace("&", "\\26 ")
            .replace("\n", "\\a ").replace("\r", "\\a ").replace("\f", "\\a "))


class Escaper(FrozenRecord):
    __slots__ = _fields = ("name", "transform")

    def __init__(self, name: str, transform: Callable[[object], str]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "transform", transform)

    def apply(self, value) -> str:
        return self.transform(value)


_REGISTRY: dict[str, Escaper] = {}


def register(escaper: Escaper) -> None:
    _REGISTRY[escaper.name] = escaper


def get(name: str) -> Escaper:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown escaper name {name!r}") from None


def known_names() -> frozenset[str]:
    return frozenset(_REGISTRY)


# Rewrites of adjacent transforms, keyed by identity so that a replacement
# registered under a shipped name is never fused: the URL filter and the
# attribute or CSS string escaper run as one pass, and the attribute escaper
# after a CSS string escape goes, since that output holds none of & < > " '.
_FUSED = {
    (filter_url_prefix, escape_html_attr): filter_url_attr,
    (filter_url_prefix, escape_css_string): filter_url_css,
    (escape_css_string, escape_html_attr): escape_css_string,
    (filter_url_css, escape_html_attr): filter_url_css,
}

# transforms that always return a str, so a chain of one needs no wrapper
_RETURN_TEXT = frozenset({escape_pcdata, escape_html_attr, filter_url_prefix, filter_url_attr,
                          filter_url_css, escape_json_value, escape_css_string})


def chain(names) -> Callable[[object], str]:
    """One function that applies the named escapers innermost-first, then
    stringifies. The first escaper sees the raw value (and may honor its
    SafeContent trademark); each later escaper re-escapes the text produced
    so far. Names resolve in the registry when this is called; the
    transforms found are then fused by ``_FUSED``, which gives the same text
    and the same exceptions as running them one by one."""
    fns = [get(name).transform for name in names]
    i = 1
    while i < len(fns):
        fused = _FUSED.get((fns[i - 1], fns[i]))
        if fused is None:
            i += 1
        else:
            fns[i - 1:i + 1] = [fused]
    if not fns:
        return stringify
    if len(fns) == 1 and fns[0] in _RETURN_TEXT:
        return fns[0]

    def escape(value):
        for f in fns:
            value = f(value)
        return value if isinstance(value, str) else stringify(value)
    return escape


def apply_chain(names, value) -> str:
    """Apply an escaper chain innermost-first (see ``chain``)."""
    return chain(names)(value)


register(Escaper("HtmlPcdataEscaper", escape_pcdata))
register(Escaper("HtmlAttributeEscaper", escape_html_attr))
register(Escaper("UrlPrefixFilteringEscaper", filter_url_prefix))
register(Escaper("JsonValueEscaper", escape_json_value))
register(Escaper("CssStringEscaper", escape_css_string))
