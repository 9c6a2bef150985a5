"""Package metadata for ``repro``.

Sources live under ``src/``. The version is read from
``src/repro/__init__.py`` (``__version__``) without importing the
package, so building needs no runtime dependency. Editable installs work
offline without the ``wheel`` package via
``pip install -e . --no-use-pep517``.
"""

import os
import re

from setuptools import find_packages, setup


def read_version() -> str:
    path = os.path.join(os.path.dirname(__file__), "src", "repro", "__init__.py")
    with open(path, encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE)
    if match is None:
        raise RuntimeError(f"no __version__ in {path}")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
