"""Shared pytest setup."""

import os


def pytest_configure(config):
    # the CLI tests run ``python -m qes_sextic`` in a subprocess; give it
    # the same ``src`` import path that ``pythonpath`` gives this process,
    # so the suite runs from a checkout without installing the package
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
