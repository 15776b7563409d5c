"""``python -m strings_and_coins``: the ``snc`` command line."""

from .cli import main

main()
