"""Package metadata (this file is the only place it lives; there is no
pyproject.toml).  ``pip install -e .`` installs the runtime; the test suite
additionally needs the ``test`` extra: ``pip install -e .[test]``."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "Probabilistic inference over RFID streams in mobile environments "
        "(reproduction of Tran et al., ICDE 2009)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
    extras_require={"test": ["pytest", "hypothesis"]},
)
