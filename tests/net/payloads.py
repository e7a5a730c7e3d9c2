"""DATA payload bytes for tests, built with the codec's ``*_into`` forms."""

from repro.net.protocol import encode_payload_batch_into, encode_payload_into


def payload(obj, size):
    """One item's DATA payload, as a frame carries it."""
    out = bytearray()
    encode_payload_into(out, obj, size)
    return bytes(out)


def payload_batch(items):
    """``(object, size)`` pairs as one batched DATA payload."""
    out = bytearray()
    encode_payload_batch_into(out, items)
    return bytes(out)
