"""A dict bounded to a fixed number of entries, evicting the least recently used."""

from __future__ import annotations

from collections import OrderedDict


class LRUCache(OrderedDict):
    """Memo table that keeps at most maxsize entries.

    get() and assignment mark a key as most recently used; an assignment
    that overflows the bound drops the least recently used entry.
    """

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize

    def get(self, key, default=None):
        if key not in self:
            return default
        self.move_to_end(key)
        return self[key]

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.move_to_end(key)
        if len(self) > self.maxsize:
            self.popitem(last=False)
