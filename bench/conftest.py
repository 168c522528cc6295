"""The bench tests import ``repro`` from this checkout's ``src/``."""

from bench import common

common.use_source_tree()
