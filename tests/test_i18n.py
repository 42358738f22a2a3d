import pytest

from conftest import MESSAGE_TEMPLATE, render_text
from ctxesc.i18n import (
    ExtractionError,
    TranslationError,
    apply_translation,
    bundle_to_json,
    extract_messages,
    substitute_placeholders,
)
from ctxesc.marks import Mark

GERMAN = "{1} Zeichen lang ist die Zeichenkette '{0}'."


def rendered(html, bindings=None):
    return render_text(MESSAGE_TEMPLATE, bindings or {"s": "Hello", "n": 5}, html)


def test_extract_reference_message(html):
    text, marks, _ = rendered(html)
    assert text == "<p>String 'Hello' has 5 characters.</p>\n"
    bundle = extract_messages(text, marks)
    assert bundle == {"s-has-n": "String '{0}' has {1} characters."}


def test_extract_message_without_interpolations(html):
    text, marks, _ = render_text(
        'tag: html\n"<p><message i18n="@@plain">Just words.</message></p>\n', {}, html)
    assert extract_messages(text, marks) == {"plain": "Just words."}


def test_extract_no_messages_is_empty(html):
    text, marks, _ = render_text('tag: html\n"<p>${x}</p>\n', {"x": "v"}, html)
    assert extract_messages(text, marks) == {}


def test_overlapping_expr_spans_rejected():
    marks = (Mark("MsgStart", 0, "m"), Mark("ExprStart", 1), Mark("ExprStart", 2),
             Mark("ExprEnd", 3), Mark("MsgEnd", 4))
    with pytest.raises(ExtractionError, match="overlapping"):
        extract_messages("abcdef", marks)


def test_unclosed_message_rejected():
    marks = (Mark("MsgStart", 0, "m"),)
    with pytest.raises(ExtractionError, match="never closed"):
        extract_messages("abc", marks)


def test_nested_messages_rejected(html):
    marks = (Mark("MsgStart", 0, "outer"), Mark("MsgStart", 1, "inner"))
    with pytest.raises(ExtractionError, match="message 'inner' starts inside another message"):
        extract_messages("abc", marks)


def test_message_end_without_a_start_rejected():
    with pytest.raises(ExtractionError, match="^message end without a message start$"):
        extract_messages("abc", (Mark("MsgEnd", 1),))


@pytest.mark.parametrize("marks", [
    # a span still open at the message end
    (Mark("MsgStart", 0, "m"), Mark("ExprStart", 1), Mark("MsgEnd", 2)),
    # a span end with no start
    (Mark("MsgStart", 0, "m"), Mark("ExprEnd", 1), Mark("MsgEnd", 2)),
    # a span outside any message
    (Mark("ExprStart", 1), Mark("ExprEnd", 2)),
], ids=["open-at-end", "end-without-start", "outside-a-message"])
def test_unpaired_interpolation_spans_rejected(marks):
    with pytest.raises(ExtractionError, match="^overlapping or unpaired interpolation spans "
                                              "at offset [12]$"):
        extract_messages("abcdef", marks)


def test_one_message_id_with_two_texts_is_an_extraction_error(html):
    text, marks, _ = render_text('tag: html\n"<message i18n="@@m">a</message>'
                                 '<message i18n="@@m">b</message>\n', {}, html)
    with pytest.raises(ExtractionError,
                       match="^message id 'm' extracted twice with different text$"):
        extract_messages(text, marks)


def test_apply_translation_reorders_interpolations(html):
    text, marks, _ = rendered(html)
    out = apply_translation(text, marks, "s-has-n", GERMAN)
    assert out == "<p>5 Zeichen lang ist die Zeichenkette 'Hello'.</p>\n"


def test_translated_message_bytes(html):
    text, marks, _ = rendered(html)
    bundle = extract_messages(text, marks)
    spans = ["Hello", "5"]
    assert substitute_placeholders(GERMAN, spans) == \
        "5 Zeichen lang ist die Zeichenkette 'Hello'."
    # identity: re-applying the extracted pattern reproduces the original
    assert substitute_placeholders(bundle["s-has-n"], spans) == \
        "String 'Hello' has 5 characters."


def test_identity_reapplication_reproduces_buffer(html):
    text, marks, _ = rendered(html)
    bundle = extract_messages(text, marks)
    assert apply_translation(text, marks, "s-has-n", bundle["s-has-n"]) == text


def test_translation_preserves_escaping(html):
    text, marks, _ = rendered(html, {"s": "a<b&c", "n": 2})
    assert "a&lt;b&amp;c" in text
    out = apply_translation(text, marks, "s-has-n", GERMAN)
    # the already-escaped span bytes are spliced verbatim
    assert "a&lt;b&amp;c" in out
    assert "<b" not in out.replace("<p>", "").replace("</p>", "")


def test_missing_placeholder_rejected(html):
    text, marks, _ = rendered(html)
    with pytest.raises(TranslationError, match=r"missing \{1\}"):
        apply_translation(text, marks, "s-has-n", "nur '{0}'.")


def test_extra_placeholder_rejected(html):
    text, marks, _ = rendered(html)
    with pytest.raises(TranslationError, match=r"unknown \{2\}"):
        apply_translation(text, marks, "s-has-n", "'{0}' und {1} und {2}.")


def test_repeated_placeholder_rejected(html):
    text, marks, _ = rendered(html)
    with pytest.raises(TranslationError, match="repeated"):
        apply_translation(text, marks, "s-has-n", "'{0}' {1} '{0}'.")


def test_unknown_message_id_rejected(html):
    text, marks, _ = rendered(html)
    with pytest.raises(TranslationError, match="no message"):
        apply_translation(text, marks, "nope", "x")


def test_bundle_json_shape(html):
    text, marks, _ = rendered(html)
    payload = bundle_to_json(extract_messages(text, marks))
    assert '"s-has-n": "String \'{0}\' has {1} characters."' in payload
