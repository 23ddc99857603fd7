"""Same pattern as sim/drain.py, but outside R3's scope: silent."""


def drain(peers: set):
    for key in peers:
        yield key
