"""A placeholder: ``signed_bracelet_count`` lives in ``necklaces``.

``perfbench/layertrace.py`` imports each module of its ``LAYERS`` by name,
this one included; the file is deleted along with ``layertrace.py`` (ROADMAP
item 4).  No module of the package imports it.
"""
