"""Packaging for the LoPC reproduction.

Kept as ``setup.py`` (not ``pyproject.toml``) so legacy editable
installs work in environments without the ``wheel`` package; the tests
themselves only need ``PYTHONPATH=src`` (see README.md).
"""

from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).parent
_README = _HERE / "README.md"

setup(
    name="lopc-repro",
    version="1.0.0",
    description=(
        "Reproduction of 'LoPC: Modeling Contention in Parallel "
        "Algorithms' (Frank, Agarwal, Vernon; PPoPP 1997)"
    ),
    long_description=_README.read_text() if _README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.11",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    extras_require={
        "test": ["pytest>=7", "hypothesis>=6"],
    },
    entry_points={
        "console_scripts": [
            "lopc-repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Programming Language :: Python :: 3.13",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Distributed Computing",
    ],
)
