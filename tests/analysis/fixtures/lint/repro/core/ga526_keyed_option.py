"""Broken fixture: a driver reads a stage option by its key."""

_BATCH = "batch-max-items"  # expect: GA526


def _batch_limit(properties):
    return int(properties.get("batch-max-items", 1))  # expect: GA526
