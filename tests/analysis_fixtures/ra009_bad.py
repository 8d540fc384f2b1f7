"""Bad fixture: unpicklable payloads crossing the pool boundary."""

import threading
from concurrent.futures import ProcessPoolExecutor


class Tracer:
    def __init__(self):
        self.spans = []


def consume(item):
    return item


def numbers():
    yield 1


def ship_generator_call(pool):
    return pool.submit(consume, numbers())  # expect: RA009


def ship_genexp(pool, items):
    return pool.submit(consume, (item + 1 for item in items))  # expect: RA009


def ship_lambda(pool):
    return pool.submit(consume, lambda: 1)  # expect: RA009


def ship_lock(pool):
    lock = threading.Lock()
    return pool.submit(consume, lock)  # expect: RA009


def ship_tracer(pool):
    tracer = Tracer()
    return pool.submit(consume, tracer)  # expect: RA009


def ship_tracer_inline(pool):
    return pool.submit(consume, Tracer())  # expect: RA009


def ship_open_file(pool, path):
    return pool.submit(consume, open(path))  # expect: RA009


def ship_initargs_lock():
    lock = threading.Lock()
    return ProcessPoolExecutor(
        initializer=consume, initargs=(lock,)  # expect: RA009
    )


class Shipper:
    def __init__(self):
        self._lock = threading.Lock()

    def ship(self, pool):
        return pool.submit(consume, self._lock)  # expect: RA009
