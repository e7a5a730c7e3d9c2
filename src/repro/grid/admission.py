"""Admission: the one path from a configuration to runnable stage code.

Section 3.2 admits an application once: the Launcher validates the
configuration and the Deployer retrieves every stage's code before it
touches a node.  The simulated Deployer, ``ThreadedRuntime.from_config``
and the networked coordinator all admit through :func:`admit`, against
the same :func:`builtin_repository` unless given their own, so they
accept the same configurations and refuse the others with the same
text.  A networked worker imports only :func:`builtin_repository`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Type

from repro.core.sharding import expand_shards
from repro.grid.config import AppConfig
from repro.grid.repository import CodeRepository

__all__ = ["admit", "builtin_repository"]

def builtin_repository() -> CodeRepository:
    """Every built-in application's stage codes, published under
    ``repo://``; other code ships as a ``py://module:attr`` import."""
    from repro.apps import comp_steer, count_samps, intrusion

    repository = CodeRepository()
    for app in (count_samps, comp_steer, intrusion):
        app._register_codes(repository)
    return repository


def admit(
    config: AppConfig,
    error: Type[Exception],
    *,
    repository: Optional[CodeRepository] = None,
    verify: bool = True,
    registry: Optional[Any] = None,
    migrating: Optional[Iterable[str]] = None,
) -> Tuple[AppConfig, Dict[str, Callable[..., Any]]]:
    """Admit ``config``: return it shard-expanded, with each stage's factory.

    In the Deployer's order: ``config.validate()``; with ``verify``, the
    static verifier over the declared stage names (``registry`` enables
    its placement dry-run, ``migrating`` names stages it treats as
    migration-enabled); :func:`~repro.core.sharding.expand_shards`; and
    a fetch of every stage's code from ``repository`` (default
    :func:`builtin_repository`), so a bad code URL fails before anything
    is placed, started or spawned.  Refusals raise ``error``.
    """
    if repository is None:
        repository = builtin_repository()
    config.validate()
    if verify:
        from repro.analysis.verifier import verify_config

        report = verify_config(
            config, repository=repository, registry=registry, migrating=migrating
        )
        if not report.ok:
            raise error(
                f"configuration {config.name!r} failed verification "
                f"({report.summary_line()}):\n{report.render_text()}"
            )
    # Before placement, so a matchmaker places every replica on its own.
    config = expand_shards(config)
    factories: Dict[str, Callable[..., Any]] = {}
    for stage in config.stages:
        try:
            factories[stage.name] = repository.fetch(stage.code_url)
        except Exception as exc:
            raise error(
                f"stage {stage.name!r}: cannot fetch code {stage.code_url!r}: {exc}"
            ) from exc
    return config, factories
