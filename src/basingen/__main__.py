"""``python -m basingen``: the ``basingen`` console script."""

from .cli import main_entry

main_entry()
