"""Install script for the ``repro`` package.

The package lives under ``src/``; its version is ``repro.__version__``,
read from the source rather than imported, so installing needs nothing
beyond setuptools.  Everything runs without numpy; the ``fast`` extra adds
numpy and scipy for the columnar kernels and the vectorized survival
kernel.  Without the ``wheel`` package PEP 517/660 builds are unavailable,
and ``pip install -e . --no-build-isolation`` uses the classic development
install this script provides.
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))


def _version() -> str:
    path = os.path.join(HERE, "src", "repro", "__init__.py")
    with open(path, encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.M)
    if match is None:
        raise RuntimeError("repro.__version__ not found")
    return match.group(1)


setup(
    name="repro",
    version=_version(),
    description=(
        "Deletion and annotation propagation through relational views "
        "(Buneman, Khanna and Tan, PODS 2002)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    extras_require={"fast": ["numpy", "scipy"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
