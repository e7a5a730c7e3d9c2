"""Broken fixture: clock and RNG calls spelled through aliased imports."""

import time as t
from random import random
from time import monotonic, perf_counter_ns


def stamp():
    return monotonic()  # expect: GA502


def elapsed():
    return t.time() - perf_counter_ns()  # expect: GA502


def jitter():
    return random()  # expect: GA503
