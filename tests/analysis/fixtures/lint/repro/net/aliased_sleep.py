"""Broken fixture: a blocking sleep imported by name into a coroutine."""

from time import sleep


async def backoff():
    sleep(0.1)  # expect: GA504
