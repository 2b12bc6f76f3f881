"""Setuptools entry point.

Kept alongside pyproject.toml so that ``pip install -e .`` works in offline
environments without the ``wheel`` package (legacy editable install path).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of ADACOMM: Adaptive Communication Strategies to Achieve the "
        "Best Error-Runtime Trade-off in Local-Update SGD (Wang & Joshi, MLSys 2019)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
