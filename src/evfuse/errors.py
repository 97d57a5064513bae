"""The root of every evfuse data error, and the one reader of a user's text input.

The CLI reports an :class:`EvfuseError` or an ``OSError`` as bad input data;
any other exception is an evfuse bug and escapes with its traceback.
"""

from __future__ import annotations

import json
from pathlib import Path


class EvfuseError(Exception):
    """Root of every error that means an input, not evfuse, is at fault."""


class InvalidInput(EvfuseError, ValueError):
    """An input evfuse cannot use; the message names the input and why."""


def read_text(path, what: str) -> str:
    """The UTF-8 text of the input file ``path``; ``what`` names the input in errors."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{what} {str(path)!r} is not UTF-8 text: byte {exc.start} is {data[exc.start]:#04x}") from None


def read_json(path, what: str):
    """The JSON document in the input file ``path``, read by :func:`read_text`."""
    try:
        return json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{what} {str(path)!r} is not JSON: {exc.msg} at line {exc.lineno} column {exc.colno}") from None
