"""R3-scoped file: suppression works inside the rule's scope prefix."""


def drain(peers: set):
    for key in peers:  # lint: allow[R3]
        yield key
    for key in peers:
        yield key
