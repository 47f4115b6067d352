"""A scripted byte source for parser tests: a socket as the parser sees it."""

from collections import deque


class Pieces:
    """Delivers scripted pieces, one per read, through ``recv`` and
    ``recv_into`` alike.  A read returns at most what was asked and never
    crosses into the next piece; past the last piece it returns EOF."""

    def __init__(self, pieces):
        self.pieces = deque(p for p in pieces if p)

    @classmethod
    def split(cls, data, size):
        """``data`` cut into ``size``-byte pieces."""
        return cls(data[i:i + size] for i in range(0, len(data), size))

    def recv(self, n):
        if not self.pieces:
            return b""
        piece = self.pieces.popleft()
        if len(piece) > n:
            self.pieces.appendleft(piece[n:])
        return piece[:n]

    def recv_into(self, view):
        data = self.recv(len(view))
        view[:len(data)] = data
        return len(data)
