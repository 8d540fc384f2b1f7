"""Bad fixture: resource acquires that leak on some path."""

from concurrent.futures import ProcessPoolExecutor


def noop(item):
    return item


def forget_pin(store):
    pinned = store.pin()  # expect: RA008
    return pinned.version


def leak_window(store, registry):
    pinned = store.pin()  # expect: RA008
    registry.observe(pinned.version)
    try:
        return pinned.csr
    finally:
        pinned.release()


def forget_pool(tasks):
    executor = ProcessPoolExecutor(max_workers=2)  # expect: RA008
    return [executor.submit(noop, task) for task in tasks]


class Holder:
    def __init__(self, snapshot, registry):
        executor = ProcessPoolExecutor(max_workers=2)  # expect: RA008
        self._executor = executor
        registry.observe(snapshot)

    def close(self):
        executor = self._executor
        self._executor = None
        if executor is not None:
            executor.shutdown()
