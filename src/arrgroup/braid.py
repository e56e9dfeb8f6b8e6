"""Free-group words, braid words, half-twists, and the Artin action.

Words in the free group on x_1..x_ell are tuples of signed integers: +i is
x_i, -i is x_i^-1.  Braid words are tuples of signed integers over the
elementary twists: +i is sigma_i, -i its inverse.  Everything is kept freely
reduced; there are no normal forms beyond that, since the words that arise
here are short conjugates of generators.

The pipeline uses only the word functions.  The Artin section (the action,
braid inverses and half-twists) serves ``vankampen.point_relation_words``,
the per-point reference that ``presentation`` is tested against.
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


# ---------------------------------------------------------------------------
# Artin action
#
# The convention is fixed once and for all:
#   sigma_i   sends  x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i
#   sigma_i^-1 sends x_i -> x_{i+1},              x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
# and both fix every other generator.  Under this convention the ordered
# product x_1 x_2 ... x_ell is fixed by every braid word.
# ---------------------------------------------------------------------------

def _letter_image(g, i, sign):
    """Image of the signed word letter g under sigma_i^sign."""
    a = abs(g)
    if sign > 0:
        if a == i:
            img = (i, i + 1, -i)
        elif a == i + 1:
            img = (i,)
        else:
            return (g,)
    else:
        if a == i:
            img = (i + 1,)
        elif a == i + 1:
            img = (-(i + 1), i, i + 1)
        else:
            return (g,)
    return img if g > 0 else tuple(-c for c in reversed(img))


def artin_apply(braid, w, ell=None):
    """Apply a braid word to a free-group word, twist by twist.

    The braid word acts as the composite of its letters, first letter first.
    The result is freely reduced.
    """
    w = free_reduce(w, ell)
    for t in braid:
        i = abs(t)
        if i == 0 or (ell is not None and i + 1 > ell):
            raise ValueError(f"strand index {t} out of range")
        sign = 1 if t > 0 else -1
        w = word_mul(*[_letter_image(g, i, sign) for g in w])
    return w


def braid_inverse(braid):
    return tuple(-t for t in reversed(braid))


def halftwist(a, b, ell):
    """The positive half-twist on the interval [a, b] as a braid word:
    (sigma_a ... sigma_{b-1})(sigma_a ... sigma_{b-2}) ... (sigma_a).

    Its length is C(b-a+1, 2).
    """
    if not (1 <= a < b <= ell):
        raise ValueError(f"need 1 <= a < b <= ell, got a={a} b={b} ell={ell}")
    word = []
    for top in range(b - 1, a - 1, -1):
        word.extend(range(a, top + 1))
    return tuple(word)
