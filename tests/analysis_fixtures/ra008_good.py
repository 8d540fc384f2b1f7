"""Good fixture: every acquire is released, managed, or handed off."""

import atexit
from concurrent.futures import ProcessPoolExecutor


def noop(item):
    return item


def pin_with_finally(store):
    pinned = store.pin()
    try:
        return pinned.version
    finally:
        pinned.release()


def pin_with_with(store):
    with store.pin() as pinned:
        return pinned.version


def handed_off(store):
    pinned = store.pin()
    return pinned  # ownership moves to the caller


def deferred_shutdown(engine):
    pool = engine.create_pool(max_workers=2)
    atexit.register(pool.shutdown)  # release responsibility handed to atexit
    return pool.max_workers


def created_pool_with_finally(engine, queries):
    pool = engine.create_pool(max_workers=2)
    try:
        return list(engine.stream(queries, pool=pool))
    finally:
        pool.shutdown()


def pool_context(tasks):
    with ProcessPoolExecutor(max_workers=2) as pool:
        return [pool.submit(noop, task) for task in tasks]


def stored_in_container(registry, snapshot):
    executor = ProcessPoolExecutor(max_workers=1)
    registry.append(executor)  # escaped to an owner we cannot see
    return registry
