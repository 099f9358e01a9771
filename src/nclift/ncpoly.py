"""Exact scalars, generator alphabets, words, and sparse noncommutative polynomials.

Everything here is a value: words are tuples of generator ordinals, polynomials
are immutable-by-convention mappings from words to nonzero field elements, and
all operations return fresh objects.  The three coefficient models are GF(2),
GF(p) for a small prime p, and arbitrary-precision rationals; no floating point
appears anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping


class AlphabetMismatchError(ValueError):
    """Raised when two operands live over different alphabets or fields."""


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

class Field:
    """Base class for the exact coefficient fields.

    Scalars are plain Python values (ints for GF(2)/GF(p); for the
    rationals an int when integral, else a Fraction); the field object
    supplies the arithmetic, and two in-place accumulation kernels:
    ``add_scaled`` for sums and normal forms, ``add_outer`` for tensors.
    GF(2) overrides both; GF(p) and QQ take the general loops (QQ's ``add``
    and ``mul`` already keep integral values as ints).
    """

    char: int
    name: str

    # computed once per field: Field.add_scaled reads ``zero`` on every call
    @cached_property
    def zero(self):
        return self.from_int(0)

    @cached_property
    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def add_scaled(self, acc: dict, terms: Mapping, coeff) -> dict:
        """``acc += coeff * terms`` in place, never storing a zero; returns
        ``acc``.

        The one accumulation kernel behind sums and normal forms: keys are
        words or word pairs, values field elements.  Keys are visited in the
        order of ``terms``, and a new key goes to the end of ``acc``.
        """
        z = self.zero
        add, mul = self.add, self.mul
        for k, c in terms.items():
            s = add(acc.get(k, z), mul(coeff, c))
            if s == z:
                acc.pop(k, None)
            else:
                acc[k] = s
        return acc

    def add_outer(self, acc: dict, left: Mapping, right: Mapping, coeff) -> dict:
        """``acc[(l, r)] += coeff * left[l] * right[r]`` in place, never
        storing a zero; returns ``acc``.

        The one tensor accumulation kernel: it takes both factors as they
        are, so a pure tensor needs no dict of its own.  Keys are visited
        left term by left term, each over the order of ``right``.
        """
        z = self.zero
        if coeff == z:
            return acc
        add, mul = self.add, self.mul
        for l, cl in left.items():
            c = mul(coeff, cl)
            for r, cr in right.items():
                k = (l, r)
                s = add(acc.get(k, z), mul(c, cr))
                if s == z:
                    acc.pop(k, None)
                else:
                    acc[k] = s
        return acc

    def parse(self, text: str):
        """Parse an integer or ``n/d`` literal into a field element."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(self.from_int(int(num)), self.from_int(int(den)))
        return self.from_int(int(text))

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.char == other.char

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.char))

    def __repr__(self):
        return self.name


class BinaryField(Field):
    char = 2
    name = "F2"

    def from_int(self, n):
        return n & 1

    def add(self, a, b):
        return (a + b) & 1

    def neg(self, a):
        return a

    def mul(self, a, b):
        return a & b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F2")
        return 1

    def add_scaled(self, acc: dict, terms: Mapping, coeff) -> dict:
        # every stored coefficient is 1, so adding one toggles its key
        if coeff:
            for k, c in terms.items():
                if c:
                    if k in acc:
                        del acc[k]
                    else:
                        acc[k] = 1
        return acc

    def add_outer(self, acc: dict, left: Mapping, right: Mapping, coeff) -> dict:
        # the key toggle of add_scaled, over every pair of stored terms
        if coeff:
            for l, cl in left.items():
                if cl:
                    for r, cr in right.items():
                        if cr:
                            k = (l, r)
                            if k in acc:
                                del acc[k]
                            else:
                                acc[k] = 1
        return acc


class PrimeField(Field):
    """GF(p) for a prime p < 2**16.  Instances compare equal by modulus."""

    def __init__(self, p: int):
        if not (2 <= p < 2 ** 16):
            raise ValueError(f"modulus out of range: {p}")
        for d in range(2, int(p ** 0.5) + 1):
            if p % d == 0:
                raise ValueError(f"modulus is not prime: {p}")
        self.p = p
        self.char = p
        self.name = f"F{p}"

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return pow(a, self.p - 2, self.p)


def _integral(q):
    """A rational as an int when it is integral, else as the Fraction."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


class RationalField(Field):
    """Arbitrary-precision rationals: an integral value is an int, any other
    a Fraction, which keeps itself reduced with a positive denominator.
    Every result is put in that form, so each value has one.  An int and a
    Fraction of the same value compare and hash equal and print alike, so
    values and outputs are those of Fractions alone, while the integral
    values, most coefficients, skip Fraction arithmetic."""

    char = 0
    name = "QQ"

    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        return _integral(a + b)

    def neg(self, a):
        return _integral(-a)

    def mul(self, a, b):
        return _integral(a * b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return _integral(1 / Fraction(a))


F2 = BinaryField()
QQ = RationalField()


@lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    """Session-cached GF(p); repeated calls with the same p share one field."""
    return PrimeField(p)


# ---------------------------------------------------------------------------
# alphabets and words
# ---------------------------------------------------------------------------

MODULE_LETTER = "module"
GROUP_LETTER = "group"

#: Words are tuples of generator ordinals; the empty tuple is the unit monomial.
Word = tuple


class Alphabet:
    """An ordered list of generators, module letters first, then group letters.

    The ordering constraint (every group letter above every module letter)
    makes group letters migrate rightward under any order-compatible
    rewriting, which is what the basis shape of the presented algebras needs.
    """

    def __init__(self, generators: Iterable[tuple[str, str]]):
        gens = tuple(generators)
        idents = [g[0] for g in gens]
        if len(set(idents)) != len(idents):
            raise ValueError("duplicate generator identifiers")
        seen_group = False
        for ident, sort in gens:
            if sort not in (MODULE_LETTER, GROUP_LETTER):
                raise ValueError(f"unknown sort {sort!r} for generator {ident!r}")
            if sort == GROUP_LETTER:
                seen_group = True
            elif seen_group:
                raise ValueError("module letter after a group letter")
        self._gens = gens
        self._ordinals = {ident: i for i, (ident, _) in enumerate(gens)}
        self.module_count = sum(1 for _, s in gens if s == MODULE_LETTER)

    @classmethod
    def from_parts(cls, module_ids: Iterable[str], group_ids: Iterable[str] = ()) -> "Alphabet":
        gens = [(i, MODULE_LETTER) for i in module_ids]
        gens += [(i, GROUP_LETTER) for i in group_ids]
        return cls(gens)

    def __len__(self) -> int:
        return len(self._gens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self._gens == other._gens

    def __hash__(self) -> int:
        return hash(self._gens)

    def ident(self, ordinal: int) -> str:
        return self._gens[ordinal][0]

    def sort(self, ordinal: int) -> str:
        return self._gens[ordinal][1]

    def ordinal(self, ident: str) -> int:
        try:
            return self._ordinals[ident]
        except KeyError:
            raise ValueError(f"unknown generator {ident!r}") from None

    def is_module(self, ordinal: int) -> bool:
        return ordinal < self.module_count

    def check_word(self, word: Word) -> None:
        for o in word:
            if not (0 <= o < len(self._gens)):
                raise ValueError(f"malformed word: ordinal {o} outside alphabet")

    def word_str(self, word: Word) -> str:
        return "*".join(self.ident(o) for o in word) if word else "1"

    def __repr__(self):
        return f"Alphabet({[g[0] for g in self._gens]})"


LESS, EQUAL, GREATER = -1, 0, 1


def deglex_key(word: Word):
    """Sort key realizing the degree-lexicographic order."""
    return (len(word), word)


def deglex_compare(a: Word, b: Word, alphabet: Alphabet) -> int:
    """Total order on words: first by length, ties broken left to right by
    generator ordinal.  Returns -1, 0 or 1."""
    alphabet.check_word(a)
    alphabet.check_word(b)
    ka, kb = deglex_key(a), deglex_key(b)
    if ka < kb:
        return LESS
    if ka > kb:
        return GREATER
    return EQUAL


def module_degree(word: Word, alphabet: Alphabet) -> int:
    mc = alphabet.module_count
    return sum(1 for o in word if o < mc)


def xdeglex_key(word: Word, alphabet: Alphabet):
    """Module-degree-first refinement of deglex.

    Compatible with concatenation and well-founded, so Bergman's machinery
    applies; needed when commutation tails carry group words as long as the
    lead (infinite cyclic group letters, for instance).  Coincides with deglex
    on words of a single sort.
    """
    return (module_degree(word, alphabet), len(word), word)


# ---------------------------------------------------------------------------
# noncommutative polynomials
# ---------------------------------------------------------------------------

class NcPoly:
    """Sparse element of the free algebra on an alphabet.

    ``terms`` maps words to nonzero coefficients; zero coefficients are never
    stored, so equality is structural.
    """

    __slots__ = ("alphabet", "field", "terms")

    def __init__(self, alphabet: Alphabet, field: Field, terms: Mapping[Word, object] | None = None):
        self.alphabet = alphabet
        self.field = field
        self.terms: dict = dict(terms) if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, field: Field) -> "NcPoly":
        return cls(alphabet, field)

    @classmethod
    def one(cls, alphabet: Alphabet, field: Field) -> "NcPoly":
        return cls(alphabet, field, {(): field.one})

    @classmethod
    def term(cls, alphabet: Alphabet, field: Field, word: Word, coeff=None) -> "NcPoly":
        alphabet.check_word(word)
        c = field.one if coeff is None else coeff
        if c == field.zero:
            return cls(alphabet, field)
        return cls(alphabet, field, {tuple(word): c})

    @classmethod
    def from_terms(cls, alphabet: Alphabet, field: Field, items: Iterable[tuple[Word, object]]) -> "NcPoly":
        acc: dict = {}
        z = field.zero
        for word, coeff in items:
            word = tuple(word)
            c = field.add(acc.get(word, z), coeff)
            if c == z:
                acc.pop(word, None)
            else:
                acc[word] = c
        return cls(alphabet, field, acc)

    # -- basic protocol ------------------------------------------------------

    def _check_compatible(self, other: "NcPoly") -> None:
        # identity first: this runs on every add and multiply
        if self.alphabet != other.alphabet or (
                self.field is not other.field and self.field != other.field):
            raise AlphabetMismatchError("operands over different alphabets or fields")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NcPoly)
            and self.alphabet == other.alphabet
            and (self.field is other.field or self.field == other.field)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, self.field, frozenset(self.terms.items())))

    def __iter__(self) -> Iterator[tuple[Word, object]]:
        return iter(self.sorted_terms())

    def sorted_terms(self) -> list:
        """Terms in descending deglex order (the canonical iteration order)."""
        return sorted(self.terms.items(), key=lambda kv: deglex_key(kv[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._check_compatible(other)
        f = self.field
        return NcPoly(self.alphabet, f, f.add_scaled(dict(self.terms), other.terms, f.one))

    def __neg__(self) -> "NcPoly":
        f = self.field
        return NcPoly(self.alphabet, f, {w: f.neg(c) for w, c in self.terms.items()})

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def scale(self, coeff) -> "NcPoly":
        f = self.field
        if coeff == f.zero:
            return NcPoly(self.alphabet, f)
        return NcPoly(self.alphabet, f, {w: f.mul(coeff, c) for w, c in self.terms.items()})

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        self._check_compatible(other)
        f = self.field
        z = f.zero
        acc: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = f.add(acc.get(w, z), f.mul(c1, c2))
                if s == z:
                    acc.pop(w, None)
                else:
                    acc[w] = s
        return NcPoly(self.alphabet, f, acc)

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"NcPoly({format_poly(self)!r})"


# ---------------------------------------------------------------------------
# tensor squares
# ---------------------------------------------------------------------------

class TensorPoly:
    """Element of a tensor square, as a sparse mapping (word, word) -> scalar.

    The two factors may live over distinct alphabets of equal shape; the usual
    single-alphabet tensor square is the case ``left is right``.
    """

    __slots__ = ("left", "right", "field", "terms")

    def __init__(self, left: Alphabet, right: Alphabet, field: Field,
                 terms: Mapping[tuple, object] | None = None):
        self.left = left
        self.right = right
        self.field = field
        self.terms: dict = dict(terms) if terms else {}

    @classmethod
    def zero(cls, left: Alphabet, right: Alphabet, field: Field) -> "TensorPoly":
        return cls(left, right, field)

    @classmethod
    def of(cls, p: NcPoly, q: NcPoly) -> "TensorPoly":
        """The pure tensor p (x) q."""
        if p.field is not q.field and p.field != q.field:
            raise AlphabetMismatchError("tensor factors over different fields")
        f = p.field
        return cls(p.alphabet, q.alphabet, f, f.add_outer({}, p.terms, q.terms, f.one))

    def _check_compatible(self, other: "TensorPoly") -> None:
        # identity first: this runs on every step of a coaction image
        if ((self.left is not other.left and self.left != other.left)
                or (self.right is not other.right and self.right != other.right)
                or (self.field is not other.field and self.field != other.field)):
            raise AlphabetMismatchError("tensor operands over different alphabets or fields")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorPoly)
            and self.left == other.left
            and self.right == other.right
            and (self.field is other.field or self.field == other.field)
            and self.terms == other.terms
        )

    def __add__(self, other: "TensorPoly") -> "TensorPoly":
        self._check_compatible(other)
        f = self.field
        return TensorPoly(self.left, self.right, f,
                          f.add_scaled(dict(self.terms), other.terms, f.one))

    def __neg__(self) -> "TensorPoly":
        f = self.field
        return TensorPoly(self.left, self.right, f, {k: f.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other: "TensorPoly") -> "TensorPoly":
        return self + (-other)

    def scale(self, coeff) -> "TensorPoly":
        f = self.field
        if coeff == f.zero:
            return TensorPoly(self.left, self.right, f)
        return TensorPoly(self.left, self.right, f,
                          {k: f.mul(coeff, c) for k, c in self.terms.items()})

    def __mul__(self, other: "TensorPoly") -> "TensorPoly":
        """Componentwise product: (a (x) b)(c (x) d) = ac (x) bd."""
        self._check_compatible(other)
        f = self.field
        z = f.zero
        acc: dict = {}
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                k = (l1 + l2, r1 + r2)
                s = f.add(acc.get(k, z), f.mul(c1, c2))
                if s == z:
                    acc.pop(k, None)
                else:
                    acc[k] = s
        return TensorPoly(self.left, self.right, f, acc)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (wl, wr), c in sorted(self.terms.items(),
                                  key=lambda kv: (deglex_key(kv[0][0]), deglex_key(kv[0][1])),
                                  reverse=True):
            piece = f"{self.left.word_str(wl)} (x) {self.right.word_str(wr)}"
            if c != self.field.one:
                piece = f"{self.field.format(c)} {piece}"
            bits.append(piece)
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"TensorPoly({str(self)!r})"


# ---------------------------------------------------------------------------
# textual syntax
# ---------------------------------------------------------------------------

_COEFF_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_poly(text: str, alphabet: Alphabet, field: Field) -> NcPoly:
    """Parse the textual polynomial syntax.

    Terms are separated by ``+`` or ``-``; within a term an optional leading
    integer or ``n/d`` coefficient is followed by generator identifiers
    juxtaposed with whitespace or ``*``, e.g. ``x0*x1 + x2*x0`` or
    ``1/2 x1 x1``.  The bare literals ``0`` and ``1`` denote the zero
    polynomial and the unit monomial.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    # split into signed chunks, keeping '-' inside coefficients like '1/2'
    chunks: list[tuple[int, str]] = []
    sign, buf = 1, []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "+-" and (buf and "".join(buf).strip()):
            chunks.append((sign, "".join(buf)))
            sign, buf = (1 if ch == "+" else -1), []
        elif ch in "+-" and not "".join(buf).strip():
            sign *= 1 if ch == "+" else -1
        else:
            buf.append(ch)
        i += 1
    # the stripped text ends in a sign exactly when no term follows its last one
    if not "".join(buf).strip():
        raise ValueError(f"no term after the last sign in {text!r}")
    chunks.append((sign, "".join(buf)))

    items = []
    for sgn, chunk in chunks:
        tokens = [t for t in re.split(r"[\s*]+", chunk.strip()) if t]
        if not tokens:
            raise ValueError(f"empty term in {text!r}")
        coeff = field.one
        if _COEFF_RE.match(tokens[0]):
            coeff = field.parse(tokens[0])
            tokens = tokens[1:]
        word = []
        for tok in tokens:
            if tok == "1":
                continue
            if tok == "0":
                coeff = field.zero
                continue
            word.append(alphabet.ordinal(tok))
        if sgn < 0:
            coeff = field.neg(coeff)
        items.append((tuple(word), coeff))
    return NcPoly.from_terms(alphabet, field, items)


def format_poly(p: NcPoly) -> str:
    """Render a polynomial in the textual syntax (descending deglex)."""
    if not p.terms:
        return "0"
    f = p.field
    out = ""
    for word, coeff in p.sorted_terms():
        neg = f.char == 0 and coeff < 0
        mag = -coeff if neg else coeff
        body = p.alphabet.word_str(word)
        if mag != f.one or not word:
            body = f"{f.format(mag)}" if not word else f"{f.format(mag)} {body}"
        if not out:
            out = f"-{body}" if neg else body
        else:
            out += f" - {body}" if neg else f" + {body}"
    return out
