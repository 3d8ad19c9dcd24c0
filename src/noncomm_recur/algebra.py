"""Ring and module backends for the noncommutative recurrence solvers.

Three backends, each a ring kind paired with the module kind it acts on:

* ``Matrix`` -> ``ColumnVector`` -- dense square matrices over exact
  rationals (``fractions.Fraction``) or 64-bit floats;
* ``Fraction`` -> ``Fraction`` -- exact rational scalars (``Fraction``
  or ``int``) serve as both ring element and vector;
* ``FreeElement`` -> ``FreeVector`` -- integer-coefficient formal sums
  of words over the two-letter alphabet, the symbolic backend on which
  closed-form identities can be checked monomial by monomial.  Both
  share one word-sum base for storage, ``+``, ``-``, ``==`` and text;
  only ``FreeElement`` multiplies.

The contract they share: one lookup maps exact scalars to the kind
``Fraction`` and every other value to its class; ``*`` is the (generally
noncommutative) ring product and the left action on vectors; ``+`` adds
two values of one kind; each class supplies ``zero()`` and each ring
class ``one()`` for the receiver's n and field (scalars use
``Fraction(0)`` and ``Fraction(1)``); matrices and column vectors combine
only at the same dimension n and the same entry field, exact or float.
All values are immutable after construction and all operations are
pure functions, so elements may be shared freely between threads.

The generic entry points :func:`compose`, :func:`apply`,
:func:`ring_one`, :func:`ring_zero` and :func:`vector_zero` look up the
kind, check it and delegate to the contract; mixing backends (or matrix
dimensions, or exact and float entries) raises
:class:`BackendMismatchError`.
"""
from __future__ import annotations

import math
from fractions import Fraction

# Word letters.  Letter 0 stands for a left factor L0, letter 1 for a
# factor L1; position 0 in a word is the leftmost factor of the product.
L0_LETTER = 0
L1_LETTER = 1
LETTER_CHARS = "AB"

# Tolerances for the float-matrix backend.
FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12


class BackendMismatchError(TypeError):
    """Raised when two values do not live in the same backend.

    Covers mixed backend kinds, mixed matrix dimensions and mixed
    exact/float entry fields.
    """

    def __init__(self, message, left=None, right=None):
        super().__init__(message)
        self.left = left
        self.right = right


# ---------------------------------------------------------------------------
# Words over the two-letter alphabet
# ---------------------------------------------------------------------------

def word_to_str(word):
    """Render a word as its canonical 'A'/'B' text form ('' for the empty word)."""
    return "".join(LETTER_CHARS[letter] for letter in word)


def word_from_str(text):
    """Parse the canonical 'A'/'B' text form back into a word tuple."""
    try:
        return tuple(LETTER_CHARS.index(ch) for ch in text)
    except ValueError:
        raise ValueError(f"invalid word text {text!r}: letters must be 'A' or 'B'") from None


def _merged(left, right, sign=1):
    """Merge two word->coefficient maps, dropping cancelled terms."""
    out = dict(left)
    for word, coeff in right.items():
        total = out.get(word, 0) + sign * coeff
        if total:
            out[word] = total
        elif word in out:
            del out[word]
    return out


def _concat_product(left, right):
    """Bilinear extension of word concatenation to coefficient maps."""
    out = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            word = w1 + w2
            total = out.get(word, 0) + c1 * c2
            if total:
                out[word] = total
            elif word in out:
                del out[word]
    return out


def _canonical_terms(terms):
    bad = [w for w in terms if not all(letter in (0, 1) for letter in w)]
    if bad:
        raise ValueError(f"invalid word {bad[0]!r}: letters must be 0 or 1")
    return {tuple(word): coeff for word, coeff in terms.items() if coeff}


class _WordSum:
    """Immutable map from words (tuples over ``{0, 1}``) to nonzero
    integer coefficients; the empty map is zero.

    The storage shared by :class:`FreeElement` and :class:`FreeVector`.
    ``+``, ``-`` and ``==`` take only a value of the same class, so ring
    elements and vectors never mix.  In the text form ``_VECTOR``
    follows every word, and ``_UNIT`` stands in when a term would
    otherwise print no letters.
    """

    __slots__ = ("terms",)
    _UNIT = "I"
    _VECTOR = ""

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", _canonical_terms(terms or {}))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(_merged(self.terms, other.terms))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(_merged(self.terms, other.terms, sign=-1))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def to_coeff_map(self):
        """JSON-friendly form: {'A'/'B' word text: integer coefficient}."""
        return {word_to_str(w): c for w, c in sorted(self.terms.items())}

    @classmethod
    def from_coeff_map(cls, mapping):
        return cls({word_from_str(text): coeff for text, coeff in mapping.items()})

    def __str__(self):
        """Terms by word length, then lexicographically: ``AB - 2·BA``, ``B·y1``."""
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            coeff = self.terms[word]
            label = "·".join(filter(None, (word_to_str(word), self._VECTOR))) or self._UNIT
            if parts:
                parts.append(" - " if coeff < 0 else " + ")
            elif coeff < 0:
                parts.append("-")
            parts.append(label if abs(coeff) == 1 else f"{abs(coeff)}·{label}")
        return "".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class FreeElement(_WordSum):
    """Element of the free word algebra on two generators.

    ``{(): 1}`` is the identity.  Multiplication concatenates words
    bilinearly, so two elements are equal exactly when their term maps
    coincide.
    """

    __slots__ = ()
    # Bound in the class body, not only inherited, so that each word-sum
    # class has its own ``__add__`` for the benchmark's tracer to wrap.
    __add__ = _WordSum.__add__

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def letter(cls, letter):
        if letter not in (0, 1):
            raise ValueError(f"letter must be 0 or 1, got {letter!r}")
        return cls({(letter,): 1})

    @classmethod
    def generators(cls):
        """The pair (A, B) of one-letter generators."""
        return cls.letter(L0_LETTER), cls.letter(L1_LETTER)

    def __neg__(self):
        return FreeElement({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return FreeElement({w: c * other for w, c in self.terms.items()} if other else {})
        if not isinstance(other, (FreeElement, FreeVector)):
            return NotImplemented
        # Concatenation is both the ring product and the action on vectors.
        return type(other)(_concat_product(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self.__mul__(other)
        return NotImplemented

    def monomial_count(self):
        return len(self.terms)

    def coefficient(self, word):
        return self.terms.get(tuple(word), 0)


class FreeVector(_WordSum):
    """Formal sum of words applied to the abstract initial vector.

    ``FreeVector.generator()`` is the initial vector itself; acting with
    a :class:`FreeElement` prepends its words.  Rendered with a
    ``·y1`` suffix, e.g. ``B·y1`` or ``A·y1 + BB·y1``.
    """

    __slots__ = ()
    _VECTOR = "y1"
    __add__ = _WordSum.__add__  # see FreeElement

    @classmethod
    def generator(cls):
        return cls({(): 1})


# ---------------------------------------------------------------------------
# Dense square matrices over Fraction or float
# ---------------------------------------------------------------------------

def _check_space(a, b):
    """The n/field rule shared by Matrix and ColumnVector operands."""
    if a.n != b.n or a.exact != b.exact:
        raise BackendMismatchError(
            f"dimension or field mismatch: n={a.n} vs {b.n}, exact={a.exact} vs {b.exact}", a, b)


def _coerce_entries(entries, context):
    """Normalize a flat iterable of entries to all-Fraction or all-float.

    Integers are exact and join either field; mixing Fraction and float
    entries is rejected rather than silently losing exactness.
    """
    values = list(entries)
    has_float = any(isinstance(v, float) for v in values)
    has_fraction = any(isinstance(v, Fraction) for v in values)
    if has_float and has_fraction:
        raise ValueError(f"{context}: cannot mix exact and float entries")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float, Fraction)):
            raise ValueError(f"{context}: invalid entry {v!r}")
    if has_float:
        return [float(v) for v in values], False
    return [Fraction(v) for v in values], True


class Matrix:
    """Square matrix backend element.

    Entries are either all exact rationals (kept in canonical reduced
    form by ``Fraction``) or all floats; the two fields never mix.
    ``a * b`` is the matrix product when ``b`` is a :class:`Matrix` and
    the action on a :class:`ColumnVector` otherwise.  ``==`` is exact
    entrywise equality; use :meth:`isclose` for float comparisons.
    """

    __slots__ = ("rows", "n", "exact")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square with at least one row")
        flat, exact = _coerce_entries((v for r in rows for v in r), "matrix")
        object.__setattr__(self, "rows", tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n, exact=True):
        one = Fraction(1) if exact else 1.0
        zero = Fraction(0) if exact else 0.0
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n, exact=True):
        zero = Fraction(0) if exact else 0.0
        return cls([[zero] * n for _ in range(n)])

    def one(self):
        return Matrix.identity(self.n, self.exact)

    def zero(self):
        return Matrix.zeros(self.n, self.exact)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        _check_space(self, other)
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        _check_space(self, other)
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if not isinstance(other, (Matrix, ColumnVector)):
            return NotImplemented
        _check_space(self, other)
        if isinstance(other, Matrix):
            cols = tuple(zip(*other.rows))
            return Matrix([[sum(a * b for a, b in zip(row, col)) for col in cols]
                           for row in self.rows])
        return ColumnVector([sum(a * b for a, b in zip(row, other.entries))
                             for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.n == other.n and self.exact == other.exact
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.exact, self.rows))

    def isclose(self, other, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL):
        """Entrywise tolerant comparison (the float backend's equality)."""
        if not isinstance(other, Matrix) or self.n != other.n:
            return False
        return all(
            math.isclose(float(a), float(b), rel_tol=rel_tol, abs_tol=abs_tol)
            for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def __str__(self):
        return "[" + ", ".join("[" + ", ".join(format_entry(v) for v in row) + "]"
                               for row in self.rows) + "]"

    def __repr__(self):
        return f"Matrix({self})"


class ColumnVector:
    """Column vector acted on by matrices of the same dimension and field."""

    __slots__ = ("entries", "n", "exact")

    def __init__(self, entries):
        flat, exact = _coerce_entries(entries, "vector")
        if not flat:
            raise ValueError("vector must have at least one entry")
        object.__setattr__(self, "entries", tuple(flat))
        object.__setattr__(self, "n", len(flat))
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, value):
        raise AttributeError("ColumnVector is immutable")

    @classmethod
    def zeros(cls, n, exact=True):
        zero = Fraction(0) if exact else 0.0
        return cls([zero] * n)

    def zero(self):
        return ColumnVector.zeros(self.n, self.exact)

    def __add__(self, other):
        if not isinstance(other, ColumnVector):
            return NotImplemented
        _check_space(self, other)
        return ColumnVector([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, ColumnVector):
            return NotImplemented
        _check_space(self, other)
        return ColumnVector([a - b for a, b in zip(self.entries, other.entries)])

    def __eq__(self, other):
        if not isinstance(other, ColumnVector):
            return NotImplemented
        return (self.n == other.n and self.exact == other.exact
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.n, self.exact, self.entries))

    def isclose(self, other, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL):
        if not isinstance(other, ColumnVector) or self.n != other.n:
            return False
        return all(math.isclose(float(a), float(b), rel_tol=rel_tol, abs_tol=abs_tol)
                   for a, b in zip(self.entries, other.entries))

    def __str__(self):
        return "[" + ", ".join(format_entry(v) for v in self.entries) + "]"

    def __repr__(self):
        return f"ColumnVector({self})"


def format_entry(value):
    """Render one matrix/vector entry ('p/q' for rationals, repr for floats)."""
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)


# ---------------------------------------------------------------------------
# Generic backend dispatch
# ---------------------------------------------------------------------------

def word_to_element(word, L0, L1, counter=None):
    """Evaluate a word as the left-to-right product of its factors.

    The empty word maps to the identity; a word of length k costs
    max(k-1, 0) ring multiplications.  ``counter`` is any object with a
    ``tick()`` method (see ``permsum.MultCounter``) and receives one
    tick per multiplication performed.
    """
    check_same_backend(L0, L1)
    factors = (L0, L1)
    if not word:
        return ring_one(L0)
    product = factors[word[0]]
    for letter in word[1:]:
        product = compose(product, factors[letter])
        if counter is not None:
            counter.tick()
    return product


# Ring kind -> the kind of the module it acts on.
_MODULE_OF = {Fraction: Fraction, FreeElement: FreeVector, Matrix: ColumnVector}


def _kind(value):
    """The backend kind of a value: ``Fraction`` for exact scalars
    (``int`` or ``Fraction``; not ``bool``), otherwise its class."""
    kind = type(value)
    return Fraction if kind is int else kind


def check_same_backend(a, b):
    """Return the ring kind a and b share, or raise :class:`BackendMismatchError`."""
    kind = _kind(a)
    if kind not in _MODULE_OF or _kind(b) is not kind:
        raise BackendMismatchError(
            f"elements from different backends: {type(a).__name__} vs {type(b).__name__}", a, b)
    if kind is Matrix:
        _check_space(a, b)
    return kind


def check_apply_compat(ring_element, vector):
    """Return ``ring_element``'s kind if it acts on ``vector``'s module, else raise."""
    kind = _kind(ring_element)
    if _MODULE_OF.get(kind) is not _kind(vector):
        raise BackendMismatchError(
            f"cannot apply {type(ring_element).__name__} to {type(vector).__name__}",
            ring_element, vector)
    if kind is Matrix:
        _check_space(ring_element, vector)
    return kind


def compose(a, b):
    """Ring product a·b (matrix product / word concatenation / scalar product)."""
    if check_same_backend(a, b) is Fraction:
        return Fraction(a) * b
    return a * b


def apply(ring_element, vector):
    """Left action of a ring element on a module vector."""
    if check_apply_compat(ring_element, vector) is Fraction:
        return Fraction(ring_element) * vector
    return ring_element * vector


def _require_kind(value, kinds, what):
    kind = _kind(value)
    if kind not in kinds:
        raise BackendMismatchError(f"not a {what}: {value!r}", value)
    return kind


def ring_one(element):
    """The multiplicative identity of ``element``'s backend."""
    kind = _require_kind(element, _MODULE_OF, "ring element")
    return Fraction(1) if kind is Fraction else element.one()


def ring_zero(element):
    """The additive identity of ``element``'s backend."""
    kind = _require_kind(element, _MODULE_OF, "ring element")
    return Fraction(0) if kind is Fraction else element.zero()


def vector_zero(vector):
    """The zero vector of ``vector``'s module."""
    kind = _require_kind(vector, _MODULE_OF.values(), "module vector")
    return Fraction(0) if kind is Fraction else vector.zero()
