"""Letters and words over signed addresses.

A letter is an address (a string over {0, 1}; "" is the root address phi)
together with a sign.  A word is a plain tuple of letters, so concatenation
is tuple addition and the empty word is ().  No free reduction is ever
performed implicitly.

Every function that takes a word reads each letter as an (address, sign)
pair, by unpacking or by index, so plain pairs do as well as `Letter`s.
`Letter` is that pair with its two fields named, `addr` and `sign`, and
every letter a function builds is one: the words the library returns are
tuples of `Letter`s, but `lcm` and `star` begin theirs with their first
argument's letters as given.

Text format: `eps` for the empty word, otherwise letters joined by dots;
a letter is an optional `-` followed by `e` (the root) or a 01-string,
e.g. `1.e.0` and `-1` for the inverse of the letter at address 1.  ASCII
whitespace around the word is ignored; no other character is, Unicode
spaces included.
"""

from functools import partial
from itertools import repeat
from string import whitespace
from typing import NamedTuple

from .errors import ParseError
from .terms import _intern, _shared


class Letter(NamedTuple):
    addr: str
    sign: int


Word = tuple  # tuple of Letter

# A Letter from an (addr, sign) pair, made by tuple.__new__ directly: it
# skips the NamedTuple's Python-level __new__, the bulk of a Letter's cost.
_letter = partial(tuple.__new__, Letter)


def pos_word(addresses) -> Word:
    """The positive word made of the given addresses, in order."""
    return tuple(map(_letter, zip(addresses, repeat(1))))


def positive_addresses(w: Word):
    """The address sequence of a positive word; rejects negative letters."""
    if not all([sign > 0 for _, sign in w]):
        raise ValueError(f"expected a positive word, got {render_word(w)}")
    return tuple([addr for addr, _ in w])


def inverse(w: Word) -> Word:
    """The formal inverse: letters reversed, every sign flipped."""
    return tuple([_letter((addr, -sign)) for addr, sign in reversed(w)])


def shift(gamma: str, w: Word) -> Word:
    """Prefix `gamma` to every letter's address, keeping signs and length."""
    return tuple([_letter((gamma + addr, sign)) for addr, sign in w])


def render_word(w: Word) -> str:
    if not w:
        return "eps"
    return ".".join([("-" if sign < 0 else "") + (addr or "e") for addr, sign in w])


def parse_word(text: str) -> Word:
    """Parse the word grammar: `eps`, or letters joined by dots, a letter
    being an optional `-` and then `e` or a nonempty 01-string, with ASCII
    `string.whitespace` allowed around the whole word and nowhere else.

    A chunk between dots that is not a letter raises ParseError("bad letter
    ..."), at the chunk's position in the input, leading whitespace counted.
    Equal texts come back as one tuple and equal letters as one `Letter`,
    interned in the table that the `terms` module docstring describes."""
    return _intern((text,), text, _scan_word)


def _scan_word(text):
    pos = len(text) - len(text.lstrip(whitespace))  # error positions count from the input
    text = text.strip(whitespace)
    if text == "eps":
        return ()
    letters = []
    for chunk in text.split("."):
        sign, body = (-1, chunk[1:]) if chunk.startswith("-") else (1, chunk)
        if body == "e":
            addr = ""
        elif body and not body.strip("01"):
            addr = body
        else:
            raise ParseError(f"bad letter {chunk!r}", pos)
        letters.append(_shared((sign, addr), _letter, (addr, sign)))
        pos += len(chunk) + 1
    return tuple(letters)
