"""Broken fixture: a second reader of the application document."""

from xml.etree import ElementTree  # expect: GA528


def _stages(text):
    return ElementTree.fromstring(text).findall("stage")  # expect: GA528
