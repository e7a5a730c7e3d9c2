"""OGSA/Globus-like grid services substrate.

GATES was built on the Open Grid Services Architecture using Globus
Toolkit 3.0 for resource discovery, matching, and service deployment.
This package reproduces those *semantics* in-process (see DESIGN.md for the
substitution rationale):

* :mod:`repro.grid.resources` — resource descriptions and requirements.
* :mod:`repro.grid.registry` — an MDS-like index service where hosts and
  running service instances register and can be queried.
* :mod:`repro.grid.matchmaker` — the broker matching stage requirements
  to registered resources (the "automatic resource discovery and matching"
  of Section 3.1, goal 1).
* :mod:`repro.grid.services` — OGSA-style service containers with
  lifetimes; the GATES grid-service instance that hosts user stage code.
* :mod:`repro.grid.repository` — the application code repository from
  which the Deployer retrieves stage implementations.
* :mod:`repro.grid.config` — the XML application configuration format
  written by application developers.
* :mod:`repro.grid.launcher` / :mod:`repro.grid.deployer` — the Launcher
  (parses configuration) and Deployer (finds nodes, instantiates GATES
  service instances, uploads stage code) of Section 3.2.
"""
