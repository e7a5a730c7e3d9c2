"""The Launcher: entry point for application users.

"The Launcher is in charge of getting configuration files and analyzing
them by using an embedded XML parser.  To start the application, the user
simply passes the XML file's URL link to the Launcher" (Section 3.2).

An application user never touches stages or resources: they hand the
Launcher a configuration reference (a filesystem path, a raw XML string,
or an already-built :class:`~repro.grid.config.AppConfig`) and get back a
running :class:`~repro.grid.deployer.Deployment`.
"""

from __future__ import annotations

import os
from typing import Union

from repro.grid.config import AppConfig, ConfigError
from repro.grid.deployer import Deployer, Deployment

__all__ = ["Launcher"]

ConfigRef = Union[str, "os.PathLike[str]", AppConfig]


class Launcher:
    """Parses configurations and drives the Deployer."""

    def __init__(self, deployer: Deployer) -> None:
        self.deployer = deployer

    @staticmethod
    def resolve(ref: ConfigRef) -> AppConfig:
        """Turn a configuration reference into a validated AppConfig.

        Accepts an :class:`AppConfig` (validated in place), a path to an
        XML file, or a raw XML string (anything starting with '<').
        """
        if isinstance(ref, AppConfig):
            ref.validate()
            return ref
        text = os.fspath(ref)
        if text.lstrip().startswith("<"):
            return AppConfig.from_xml(text)
        if not os.path.exists(text):
            raise ConfigError(f"configuration file not found: {text!r}")
        with open(text, "r", encoding="utf-8") as handle:
            return AppConfig.from_xml(handle.read())

    def launch(self, ref: ConfigRef, verify: bool = True) -> Deployment:
        """Resolve ``ref`` and deploy the application.

        ``verify=False`` skips the static pre-deploy verifier (see
        :func:`repro.grid.admission.admit`).
        """
        config = self.resolve(ref)
        return self.deployer.deploy(config, verify=verify)
