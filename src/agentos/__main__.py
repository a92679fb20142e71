"""``python -m agentos``: the command-line interface of ``agentos.cli``."""

from .cli import main

main()
