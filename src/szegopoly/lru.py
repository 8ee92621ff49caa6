"""A dict bounded to a fixed number of entries, evicting the least recently used."""

from __future__ import annotations

from collections import OrderedDict


class LRUCache(OrderedDict):
    """Memo table that keeps at most maxsize entries.

    get() and assignment mark a key as most recently used; an assignment
    that overflows the bound drops the least recently used entry.  A hit
    in get() is one lookup and one move, a miss one lookup.
    """

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize

    def get(self, key, default=None):
        try:
            value = self[key]
        except KeyError:
            return default
        self.move_to_end(key)
        return value

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.move_to_end(key)
        if len(self) > self.maxsize:
            self.popitem(last=False)
