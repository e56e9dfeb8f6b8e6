"""Free-group words.

Words in the free group on x_1..x_ell are tuples of signed integers: +i is
x_i, -i is x_i^-1.  Everything is kept freely reduced; there are no normal
forms beyond that, since the words that arise here are short conjugates of
generators.

The Artin action of braids on these words is not part of the program:
``vankampen.presentation`` carries each point's meridians through the
inverse half-twists by their closed form, a product of words.  The tests
keep the action as the independent reference that closed form is checked
against.
"""

from __future__ import annotations


def free_reduce(letters, ell=None):
    """Freely reduce a raw letter sequence with a single stack pass.

    Letters are signed generator indices.  Raises ValueError for index 0 or,
    when ``ell`` is given, for indices beyond it.
    """
    out = []
    for c in letters:
        if c == 0 or (ell is not None and abs(c) > ell):
            raise ValueError(f"generator index {c} out of range")
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def word_inverse(w):
    return tuple([-c for c in w[::-1]])


def word_mul(*words):
    out = []
    for w in words:
        for c in w:
            if out and out[-1] == -c:
                out.pop()
            else:
                out.append(c)
    return tuple(out)


def substitute(images, w):
    """The freely reduced image of word w when each x_g maps to images[g]."""
    return word_mul(*[images[c] if c > 0 else word_inverse(images[-c])
                      for c in w])


def format_word(w):
    if not w:
        return "1"
    return " ".join(f"x{c}" if c > 0 else f"x{-c}^-1" for c in w)


def parse_word(text):
    letters = []
    for tok in text.split():
        if tok == "1":
            continue
        body = tok
        sign = 1
        if body.endswith("^-1"):
            sign = -1
            body = body[:-3]
        digits = body[1:]
        if not (body.startswith("x") and digits.isascii()
                and digits.isdigit()):
            raise ValueError(f"cannot parse word token {tok!r}")
        letters.append(sign * int(digits))
    return free_reduce(letters)
