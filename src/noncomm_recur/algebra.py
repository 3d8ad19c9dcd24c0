"""Ring and module backends for the noncommutative recurrence solvers.

Three backends, each a ring kind paired with the module kind it acts on:

* ``Matrix`` -> ``ColumnVector`` -- dense square matrices over exact
  rationals (integer numerators over one common denominator; the
  entries read as ``fractions.Fraction``) or 64-bit floats.  Both share
  one dense base, ``_Dense``, for flat storage, entry coercion, ``+``,
  ``==``, ``isclose`` and ``repr``; only ``Matrix`` multiplies;
* ``Fraction`` -> ``Fraction`` -- exact rational scalars (``Fraction``
  or ``int``) serve as both ring element and vector;
* ``FreeElement`` -> ``FreeVector`` -- integer-coefficient formal sums
  of words over the two-letter alphabet, the symbolic backend on which
  closed-form identities can be checked monomial by monomial.  Both
  share one word-sum base, ``_WordSum``, for storage, ``+``, ``==`` and
  text; only ``FreeElement`` multiplies.

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
:func:`ring_sum`, :func:`ring_one`, :func:`ring_zero` and
:func:`vector_zero` look up the kind, check it and delegate to the
contract; mixing backends (or matrix dimensions, or exact and float
entries) raises :class:`BackendMismatchError`.  The permutation-sum table
and iteration meet the backends only in :func:`_integer_form`.
"""
from __future__ import annotations

import functools
import math
import operator
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
    exact/float entry fields.  It carries only its message.
    """


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


def _accumulate(out, pairs):
    """Add each (word, coeff) pair into ``out``; cancelled terms stay
    until the word-sum constructor drops them."""
    for word, coeff in pairs:
        out[word] = out.get(word, 0) + coeff
    return out


def _canonical_terms(terms):
    """The one canonical form of a word sum: letters 0/1, ``int``
    coefficients, no zero coefficients."""
    bad = [(w, c) for w, c in terms.items()
           if type(c) is not int or not all(letter in (0, 1) for letter in w)]
    if bad:
        word, coeff = bad[0]
        if all(letter in (0, 1) for letter in word):
            raise TypeError(
                f"coefficient of word {word_to_str(word)!r} must be an int, got {coeff!r}")
        raise ValueError(f"invalid word {word!r}: letters must be 0 or 1")
    return {tuple(word): coeff for word, coeff in terms.items() if coeff}


class _WordSum:
    """Immutable map from words (tuples over ``{0, 1}``) to nonzero
    integer coefficients; the empty map is zero.

    The storage shared by :class:`FreeElement` and :class:`FreeVector`.
    ``+`` and ``==`` take only a value of the same class, so ring
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
        return type(self)(_accumulate(dict(self.terms), other.terms.items()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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

    ``{(): 1}`` is the identity.  ``*`` takes another ``FreeElement`` or
    a :class:`FreeVector` and concatenates words bilinearly, so two
    elements are equal exactly when their term maps coincide.
    """

    __slots__ = ()
    # Bound in the class body, not only inherited, so that each value
    # class has its own ``__add__`` for the benchmark's tracer to wrap.
    __add__ = _WordSum.__add__

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def generators(cls):
        """The pair (A, B) of one-letter generators."""
        return cls({(L0_LETTER,): 1}), cls({(L1_LETTER,): 1})

    def __mul__(self, other):
        if not isinstance(other, (FreeElement, FreeVector)):
            return NotImplemented
        # Concatenation is both the ring product and the action on vectors.
        return type(other)(_accumulate({}, ((w1 + w2, c1 * c2)
                                            for w1, c1 in self.terms.items()
                                            for w2, c2 in other.terms.items())))


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
# Dense square matrices and column vectors over Fraction or float
# ---------------------------------------------------------------------------

def _check_space(a, b):
    """The n/field rule shared by Matrix and ColumnVector operands."""
    if a.n != b.n or a.exact != b.exact:
        raise BackendMismatchError(
            f"dimension or field mismatch: n={a.n} vs {b.n}, exact={a.exact} vs {b.exact}")


class _Dense:
    """Immutable flat entries at dimension ``n``, either all exact
    rationals or all floats (``exact`` is False).

    The storage shared by :class:`Matrix` (row-major) and
    :class:`ColumnVector`: integer numerators ``_nums`` over one positive
    denominator ``_den`` with ``gcd(_den, *_nums) == 1``, so equal values
    have equal stored pairs and arithmetic runs on plain integers with
    one gcd per result; floats are kept in ``_nums`` with ``_den == 1``.
    ``entries`` builds the ``Fraction``s on demand.  Integers are exact
    and join either field; mixing Fraction and float entries is rejected
    rather than silently losing exactness.  ``+``, ``==`` and
    :meth:`isclose` take only a value of the same class, so matrices and
    vectors never mix.  ``_WHAT`` names the value in entry errors.
    """

    __slots__ = ("_nums", "_den", "n", "exact")

    def __init__(self, entries, n):
        values = list(entries)
        has_float = any(isinstance(v, float) for v in values)
        if has_float and any(isinstance(v, Fraction) for v in values):
            raise ValueError(f"{self._WHAT}: cannot mix exact and float entries")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float, Fraction)):
                raise ValueError(f"{self._WHAT}: invalid entry {v!r}")
        if has_float:
            nums, den = tuple(map(float, values)), 1
        else:  # the lcm of reduced denominators leaves the pair canonical
            den = math.lcm(*(v.denominator for v in values))
            nums = tuple(v.numerator * (den // v.denominator) for v in values)
        self._store(nums, den, n, not has_float)

    def _store(self, nums, den, n, exact):
        setattr_ = object.__setattr__
        setattr_(self, "_nums", nums)
        setattr_(self, "_den", den)
        setattr_(self, "n", n)
        setattr_(self, "exact", exact)
        return self

    @classmethod
    def _new(cls, nums, den, n, exact):
        """The value ``nums / den``, reduced to canonical form; no entry checks."""
        if den != 1 and (g := math.gcd(den, *nums)) != 1:
            nums, den = tuple(x // g for x in nums), den // g
        return object.__new__(cls)._store(nums, den, n, exact)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def entries(self):
        """The entries as a flat tuple of ``Fraction``s, or of floats."""
        if not self.exact:
            return self._nums
        return tuple(Fraction(x, self._den) for x in self._nums)

    def zero(self):
        """The canonical zero of this class, n and field, stored directly."""
        return object.__new__(type(self))._store(
            (0 if self.exact else 0.0,) * len(self._nums), 1, self.n, self.exact)

    def __add__(self, other):
        """The entrywise sum over the common denominator of two values."""
        if type(other) is not type(self):
            return NotImplemented
        _check_space(self, other)
        den = math.lcm(self._den, other._den)
        a, b = ([x * (den // v._den) for x in v._nums] if v._den != den else v._nums
                for v in (self, other))
        return self._new(tuple(map(operator.add, a, b)), den, self.n, self.exact)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.exact, self._den, self._nums) == (other.exact, other._den, other._nums)

    def __hash__(self):
        return hash((self.n, self.exact, self._den, self._nums))

    def isclose(self, other, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL):
        """Entrywise tolerant comparison (the float backend's equality)."""
        if type(other) is not type(self) or self.n != other.n:
            return False
        return all(math.isclose(float(a), float(b), rel_tol=rel_tol, abs_tol=abs_tol)
                   for a, b in zip(self.entries, other.entries))

    def __str__(self):
        return "[" + ", ".join(map(str, self.entries)) + "]"

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class Matrix(_Dense):
    """Square matrix backend element.

    ``rows`` is a view of ``entries``, one tuple per row.  ``a * b`` is
    the matrix product when ``b`` is a :class:`Matrix` and the action on
    a :class:`ColumnVector` otherwise.  ``==`` is exact entrywise
    equality; use :meth:`isclose` for float comparisons.
    """

    __slots__ = ()
    _WHAT = "matrix"
    __add__ = _Dense.__add__  # see FreeElement

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square with at least one row")
        super().__init__([v for r in rows for v in r], n)

    @property
    def rows(self):
        """The entries, one tuple per row."""
        e, n = self.entries, self.n
        return tuple(e[i:i + n] for i in range(0, n * n, n))

    @classmethod
    def identity(cls, n, exact=True):
        one = Fraction(1) if exact else 1.0
        zero = Fraction(0) if exact else 0.0
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def one(self):
        return Matrix.identity(self.n, self.exact)

    def __mul__(self, other):
        if not isinstance(other, (Matrix, ColumnVector)):
            return NotImplemented
        _check_space(self, other)
        return type(other)._new(_mul_nums(self.n, self._nums, other._nums),
                                self._den * other._den, self.n, self.exact)

    def __str__(self):
        return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]"
                               for row in self.rows) + "]"


class ColumnVector(_Dense):
    """Column vector acted on by matrices of the same dimension and field."""

    __slots__ = ()
    _WHAT = "vector"
    __add__ = _Dense.__add__  # see FreeElement

    def __init__(self, entries):
        entries = list(entries)
        if not entries:
            raise ValueError("vector must have at least one entry")
        super().__init__(entries, len(entries))


def _mul_nums(n, a, b):
    """The numerators of a product: row-major n×n ``a`` times the n×n
    matrix or the n-vector ``b``, all flat tuples of one field."""
    cols = [b[j::n] for j in range(n)] if len(b) > n else [b]
    return tuple([sum(map(operator.mul, a[i:i + n], col))
                  for i in range(0, n * n, n) for col in cols])


def _linear_nums(n, f0, f1):
    """The step (x, y) -> f0·x + f1·y, summing as ``_mul_nums`` and ``+`` would."""
    rows, mul = [(f0[i:i + n], f1[i:i + n]) for i in range(0, n * n, n)], operator.mul

    def step(x, y):
        if len(x) == n:
            return tuple([sum(map(mul, r0, x)) + sum(map(mul, r1, y)) for r0, r1 in rows])
        cols = [(x[j::n], y[j::n]) for j in range(n)]
        return tuple([sum(map(mul, r0, c0)) + sum(map(mul, r1, c1))
                      for r0, r1 in rows for c0, c1 in cols])
    return step


# ---------------------------------------------------------------------------
# Generic backend dispatch
# ---------------------------------------------------------------------------

def word_to_element(word, L0, L1, counter=None):
    """Evaluate a word as the left-to-right product of its factors.

    The empty word maps to the identity; a word of length k costs
    max(k-1, 0) ring multiplications, added to ``counter.count`` (a
    ``permsum.MultCounter``) in one step.  The backend is checked once,
    and the factors multiply with ``*``; scalars become ``Fraction``s.
    """
    if check_same_backend(L0, L1) is Fraction:
        L0, L1 = Fraction(L0), Fraction(L1)
    if not word:
        return ring_one(L0)
    factors = (L0, L1)
    product = factors[word[0]]
    for letter in word[1:]:
        product = product * factors[letter]
    if counter is not None:
        counter.count += len(word) - 1
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
            f"elements from different backends: {type(a).__name__} vs {type(b).__name__}")
    if kind is Matrix:
        _check_space(a, b)
    return kind


def check_apply_compat(ring_element, vector):
    """Return ``ring_element``'s kind if it acts on ``vector``'s module, else raise."""
    kind = _kind(ring_element)
    if _MODULE_OF.get(kind) is not _kind(vector):
        raise BackendMismatchError(
            f"cannot apply {type(ring_element).__name__} to {type(vector).__name__}")
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


def _integer_form(L0, L1, start, product):
    """The one linear step a0·x + a1·y of the closed-form table and of
    iteration, in integer form: ``(n, a0, a1, D, cell, d, mul, linear, value)``.

    ``linear(f0, f1)`` is the fused step (x, y) -> f0·x + f1·y.  The free
    backend keeps its values: a0 = L0, a1 = L1, D = d = 1, the start
    ``cell`` is ``start``, ``mul`` is ``product`` and ``value`` the cell.
    A dense or scalar value is a numerator tuple: with L0 = M0/m0, L1 =
    M1/m1, D = lcm(m0, m1) and ``start`` = cell/d, a0 = D·L0 and a1 = D·L1,
    and ``mul`` and ``linear`` use no lcm or gcd.  ``value(cell, k)`` is
    cell/(d·D^k) reduced once, of ``start``'s kind: ``Matrix``,
    ``ColumnVector`` or ``Fraction``.  Floats have D = d = 1 and add in
    the order of ``product`` and ``+``.  ``n`` is the dimension of cells
    that pack into integers, exact dense and scalar ones, else 0."""
    if _kind(L0) is FreeElement:
        return (0, L0, L1, 1, start, 1, product,
                lambda f0, f1: lambda x, y: product(f0, x) + product(f1, y),
                lambda cell, k: cell)
    if isinstance(start, _Dense):
        n, packs, pairs = L0.n, start.exact, ((x._nums, x._den) for x in (L0, L1, start))

        def value(cell, k):
            return type(start)._new(cell, d * D ** k, start.n, start.exact)
    else:
        n = packs = 1
        pairs = (((x.numerator,), x.denominator) for x in map(Fraction, (L0, L1, start)))

        def value(cell, k):
            return Fraction(cell[0], d * D ** k)
    (f0, m0), (f1, m1), (cell, d) = pairs
    D = math.lcm(m0, m1)
    a0, a1 = (tuple(x * (D // m) for x in f) for f, m in ((f0, m0), (f1, m1)))
    mul, linear = (functools.partial(f, n) for f in (_mul_nums, _linear_nums))
    return n if packs else 0, a0, a1, D, cell, d, mul, linear, value


def ring_sum(values, zero):
    """``sum(values, zero)`` in one pass, for values of ``zero``'s kind.

    Dense values are added on integers over one lcm of the denominators
    and reduced once; float entries add in the fold's order, from
    ``zero``'s entries, so the result is the fold's bit for bit.  Word
    sums accumulate into one map for one constructor call."""
    kind = _require_kind(zero, (*_MODULE_OF, *_MODULE_OF.values()), "ring or module value")
    values = list(values)
    for value in values:
        if _kind(value) is not kind:
            raise BackendMismatchError(
                f"cannot add {type(value).__name__} to {type(zero).__name__}")
        if isinstance(zero, _Dense):
            _check_space(zero, value)
    if isinstance(zero, _WordSum):
        return kind(_accumulate(dict(zero.terms),
                                (pair for value in values for pair in value.terms.items())))
    if kind is Fraction:
        return sum(values, zero)
    den = functools.reduce(math.lcm, (value._den for value in values), zero._den)
    nums = zero._nums if zero._den == den else [x * (den // zero._den) for x in zero._nums]
    for value in values:
        scale = den // value._den
        nums = tuple(map(operator.add, nums, value._nums if scale == 1
                         else [x * scale for x in value._nums]))
    return kind._new(nums, den, zero.n, zero.exact)


def _require_kind(value, kinds, what):
    kind = _kind(value)
    if kind not in kinds:
        raise BackendMismatchError(f"not a {what}: {value!r}")
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
