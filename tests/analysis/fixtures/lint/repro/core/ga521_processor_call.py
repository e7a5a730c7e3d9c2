"""Broken fixture: a driver calls into the processor itself."""


def _drain(stage, item, context):
    stage.processor.on_item(item, context)  # expect: GA521
    stage.processor.flush(context)  # expect: GA521
