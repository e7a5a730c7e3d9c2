"""Broken fixture: a second shard expansion beside admission's."""

from repro.core.sharding import expand_shards as expand


def place(config):
    return expand(config)  # expect: GA523


def replace(config):
    return expand(config)  # expect: GA523
