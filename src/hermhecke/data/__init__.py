"""The shipped data files: fixtures, reference table, coefficient store and
seed lattice.  Setting HERMHECKE_DATA to a directory makes every loader
read that directory instead, file for file."""

import json
import os
from importlib import resources


def _read_json(name: str):
    """The JSON document in the file `name` of $HERMHECKE_DATA when it is
    set, else of this package.  There is no per-file fallback: a file that
    directory lacks raises FileNotFoundError naming it."""
    data_dir = os.environ.get("HERMHECKE_DATA")
    if data_dir:
        with open(os.path.join(data_dir, name)) as fh:
            return json.load(fh)
    return json.loads(resources.files(__name__).joinpath(name).read_text())
