"""The XML-name character classes match what the range form matched.

:mod:`repro.xmlcore.tokenizer` writes each class as one negated class,
because ``re`` walks all 65k code points of the range form
``[A-Za-z_:\\xc0-\\uffff]`` to compile it.  The range forms are kept here
as the oracle, and every pattern built from the classes is compared with
its range-form original on every code point, as a name's first character
and as a later one.
"""

import re
import sys

from repro.soap.xlate import _SIMPLE_TAG_RX
from repro.xmlcore import tokenizer as tk

START_ORACLE = "[A-Za-z_:\u00c0-\uffff]"
CHAR_ORACLE = "[-A-Za-z0-9._:\u00c0-\uffff]"

EVERY_CODE_POINT = [chr(cp) for cp in range(sys.maxunicode + 1)]


def test_start_class_on_every_code_point():
    text = "".join(EVERY_CODE_POINT)
    assert tk._NAME_START.findall(text) == re.findall(START_ORACLE, text)


def test_name_char_class_on_every_code_point():
    text = "".join(EVERY_CODE_POINT)
    assert tk._NAME_CHAR.findall(text) == re.findall(CHAR_ORACLE, text)


def test_whole_name_pattern_as_first_and_later_character():
    oracle = re.compile(START_ORACLE + CHAR_ORACLE + "*")
    for text in (" ".join(EVERY_CODE_POINT),             # first character
                 " ".join("a" + c for c in EVERY_CODE_POINT)):   # later
        assert tk._NAME_RX.findall(text) == oracle.findall(text)


def test_simple_tag_pattern_as_first_and_later_character():
    oracle = re.compile("<(" + START_ORACLE + CHAR_ORACLE + "*)>")
    for text in ("".join(f"<{c}>" for c in EVERY_CODE_POINT),
                 "".join(f"<a{c}>" for c in EVERY_CODE_POINT)):
        assert _SIMPLE_TAG_RX.findall(text) == oracle.findall(text)
