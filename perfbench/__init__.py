"""End-to-end benchmark of the DEFA reproduction (see ``run.py``)."""
