"""Wall-clock end-to-end benchmark of the ``gateway -> rows`` path.

See ``README.md`` in this directory; the entry point is ``run.py``.
"""
