"""Metrics half: the other side of the lock cycle, helpers, a generator."""

import threading

from .storage import Store


class Registry:
    def __init__(self, store):
        self._lock = threading.Lock()
        self._store: Store = store

    def bump(self):
        with self._lock:
            pass

    def flush(self):
        with self._lock:
            self._store.seal()  # expect: RA007


def iter_samples():
    yield 1


def release_pin(holder):
    holder._pinned.release()


def log_failure(note):
    return note
