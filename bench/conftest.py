"""Lets the benchmark's tests import crossguard from this checkout's src/."""

import run

run.import_program()
