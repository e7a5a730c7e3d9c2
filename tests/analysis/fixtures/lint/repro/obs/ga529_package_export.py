"""Broken fixture: src code reads a name through its package's exports."""

from repro.resilience import CheckpointStore  # expect: GA529
from repro.resilience.checkpoint import MemoryCheckpointStore

STORES = (CheckpointStore, MemoryCheckpointStore)
