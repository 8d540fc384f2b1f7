"""Storage half: locks ordered against metrics, pin holders, a shipper."""

import threading

from .metrics import Registry, iter_samples, log_failure, release_pin


class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self._registry = Registry(self)

    def seal(self):
        with self._lock:
            self._registry.bump()  # opposite order to Registry.flush


def consume(item):
    return item


class SafeHolder:
    def __init__(self, store, registry):
        pinned = store.pin()
        self._pinned = pinned
        try:
            registry.observe(pinned.version)
        except BaseException:
            release_pin(self)  # helper (other module) releases: fine
            raise


class LeakyHolder:
    def __init__(self, store, registry):
        pinned = store.pin()  # expect: RA008
        self._pinned = pinned
        try:
            registry.observe(pinned.version)
        except BaseException:
            log_failure("boom")  # resolves, but releases nothing
            raise


def ship_remote_generator(pool):
    return pool.submit(consume, iter_samples())  # expect: RA009
