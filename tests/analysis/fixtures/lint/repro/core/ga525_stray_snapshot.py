"""Broken fixture: a driver snapshots stage state itself."""


def _move(stage, target):
    target.processor.restore(stage.processor.snapshot())  # expect: GA525
