"""Broken fixture: a stage queue writes its own d̄ sampling and chunk take."""

from collections import deque


class _SecondInbox:
    def __init__(self, window):
        self._items = deque()
        self._length = 0
        self._recent = deque([0], maxlen=window)

    def _count_items_added(self, n):  # expect: GA520
        self._length += n
        self._recent.extend(range(self._length - n + 1, self._length + 1))

    def _take_item_chunk(self, max_items):  # expect: GA520
        taken = [self._items.popleft() for _ in range(min(max_items, len(self._items)))]
        return taken, len(taken)
