"""Legacy setup shim.

The execution environment is offline and has no ``wheel`` package, so the
PEP 660 editable-install path (which builds a wheel) is unavailable.  This
``setup.py`` lets ``pip install -e . --no-build-isolation --no-use-pep517``
(or plain ``python setup.py develop``) fall back to the classic editable
install.

The package is deliberately stdlib-only: it has no dependencies and no
extras.
"""

from setuptools import find_packages, setup

setup(
    name="repro-hcst",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
