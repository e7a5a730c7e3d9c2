"""Broken fixture: a driver consumes a source binding itself."""


def _feed(binding, queue):
    for payload, gap in zip(binding.payloads, binding.gaps()):  # expect: GA522
        queue.put((payload, gap))
    return [payload for payload in binding.payloads]  # expect: GA522
