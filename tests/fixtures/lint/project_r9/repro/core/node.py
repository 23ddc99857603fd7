"""Send and dispatch sites exercising every R9 check."""

from repro.net.messages import Ghost, Orphan, Ping, Pong, Raw


def emit(network, peer):
    network.send(Ping(src=1, dst=peer))
    network.send(Pong(src=1, dst=peer))
    network.send(Orphan(src=1, dst=peer))
    network.send(Raw(src=1, dst=peer))


def handle(message):
    if isinstance(message, Ping):
        return "ping"
    if isinstance(message, Ghost):
        return "ghost"
    if isinstance(message, Raw):
        return "raw"
    if message.kind == "Pong":
        return "pong"
    if message.kind == "Typo":
        return "typo"
    return None
