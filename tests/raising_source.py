"""A source that raises after two arrivals, shared by the runtimes' tests.

``raising_source(where)`` returns ``(payloads, item_size)`` for a
binding whose third arrival raises ``ValueError("source broke")``: in
the payload iterable itself (``where="payloads"``) or in the
``item_size`` callable (``where="item_size"``).
"""

WHERES = ("payloads", "item_size")
MESSAGE = "source broke"


def _payloads():
    yield 0
    yield 1
    raise ValueError(MESSAGE)


def _size(payload):
    if payload >= 2:
        raise ValueError(MESSAGE)
    return 8.0


def raising_source(where):
    if where == "payloads":
        return _payloads(), 8.0
    return iter(range(5)), _size
