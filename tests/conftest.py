"""Puts this directory on sys.path, so that the test modules can import the
shared literal references in ``literal.py`` under every pytest import mode."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
