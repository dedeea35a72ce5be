"""Setuptools entry point (the only packaging metadata; there is no
``pyproject.toml``).

Plain ``setup.py`` keeps ``pip install .`` and ``pip install -e .`` working
in fully offline environments: without a ``[build-system]`` table pip uses
the setuptools already installed instead of downloading a build backend.
"""

from pathlib import Path

from setuptools import find_packages, setup

_version: dict = {}
exec((Path(__file__).parent / "src" / "repro" / "version.py").read_text(), _version)

setup(
    name="repro",
    version=_version["__version__"],
    description="Reproduction of 'Implementing e-Transactions with "
                "Asynchronous Replication' (Frolund & Guerraoui, DSN 2000)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
