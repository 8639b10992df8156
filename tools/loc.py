#!/usr/bin/env python3
"""Lines of code, one definition: physical lines (``wc -l``) of

* ``package_loc``: every ``standardized_omop_data_etl_ray/**/*.py`` plus
  ``__ray_entry__.py`` (the ROADMAP's tracked package size);
* ``engine_loc``: the CDC engine inside it: ``spec``,
  ``functions/hashing``, ``stages/standardize``, ``stages/merge``,
  ``state/``, ``sources/binlog`` and ``pipelines/cdc``.

Usage: python tools/loc.py [REPO_ROOT]   (default: this file's repo)
Prints one JSON line.
"""
import json
import sys
from pathlib import Path

PACKAGE = "standardized_omop_data_etl_ray"
ENGINE = ("spec.py", "functions/hashing.py", "stages/standardize.py",
          "stages/merge.py", "state/*.py", "sources/binlog.py",
          "pipelines/cdc.py")


def lines(paths) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in paths)


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1
                else Path(__file__).resolve().parent.parent)
    pkg = root / PACKAGE
    engine = sorted({p for g in ENGINE for p in pkg.glob(g)})
    print(json.dumps({
        "package_loc": lines(sorted(pkg.rglob("*.py")))
        + lines([root / "__ray_entry__.py"]),
        "engine_loc": lines(engine),
    }))


if __name__ == "__main__":
    main()
