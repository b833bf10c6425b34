"""``python -m mchwave``: the command-line front end, :func:`mchwave.cli.main`."""
from .cli import main

main()
