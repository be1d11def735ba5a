"""Reference implementations that tests and benchmarks compare against.

Nothing under ``src`` imports these: each is the slow, obviously-correct
counterpart of a fast production path, kept only to check that path.
"""
