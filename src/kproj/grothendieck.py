"""Group completion of commutative monoids.

Two carriers are supported: finite commutative monoids given by a Cayley
table, and free commutative monoids N^k whose elements are exponent
vectors.  The completion is built from pairs (x, y), thought of as formal
differences, identified when x + v + t = u + y + t for some translating
element t.  A finite monoid M has a least ideal K = M + a, where a is
the sum of all elements.  K is a group whose identity e is its only
idempotent, and x |-> x + e is the universal map from M to a group, so
K already is the completion: the pair (x, y) is the element
(x + e) - (y + e) of K, found on demand, and K's addition table is
classified as an abelian group in invariant-factor form by counting the
elements each prime power kills, with no linear algebra.  For N^k the
relation is cancellative and the completion is Z^k on the nose.

The word problem for general presented monoids is undecidable, which is
why exactly these two carriers (and nothing more ambitious) exist here.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from math import gcd
from operator import itemgetter

from . import _groups, _record
from ._record import Record


def _generators(table: Sequence[Sequence[int]]) -> list[int]:
    """A greedy set S whose sums, bracketed from the left, give every element.

    An element joins S when no sum of the ones before it reaches it.
    In a group each one at least doubles what is reached, so S has at
    most log2(n) + 1 elements.
    """
    reached, gens = set(), []
    for x in range(len(table)):
        if x in reached:
            continue
        gens.append(x)
        # an old sum plus x, or a new one plus any generator, is a sum
        todo = [x, *map(table[x].__getitem__, reached)]
        while todo:
            w = todo.pop()
            if w not in reached:
                reached.add(w)
                todo += map(table[w].__getitem__, gens)
    return gens


def _associativity_failure(table: Sequence[Sequence[int]], middles):
    """The first (x, y, z) with y in middles and (x + y) + z != x + (y + z), or None.

    For each x and y the row of x + y, which holds (x + y) + z for every
    z, is compared with x + (y + z) for every z, read from the row of x
    at C speed by an itemgetter over the row of y.
    """
    if len(table) == 1:  # its entry is in range, so 0 + 0 = 0; itemgetter(0) gives no tuple
        return None
    plus = [(y, itemgetter(*table[y])) for y in middles]
    for x, row in enumerate(table):
        for y, plus_y in plus:
            left, right = table[row[y]], plus_y(row)
            if left != right:
                return x, y, next(z for z in range(len(row)) if left[z] != right[z])
    return None


class FiniteCommutativeMonoid(Record):
    """Commutative monoid on {0, .., n-1} given by its Cayley table.

    Commutativity, associativity, and the identity law are verified at
    construction.  Associativity is decided by Light's test (Clifford and
    Preston, The Algebraic Theory of Semigroups I, 1961): the elements s
    with (x + s) + y = x + (s + y) for all x and y are closed under the
    sum, so it is enough to check s in a set whose sums reach every
    element, O(n^2) lookups per element of the set.  Only a table that
    fails is scanned whole, so that the error names its first failing
    triple.
    """

    _fields = ("table", "identity")

    def __init__(self, table: Sequence[Sequence[int]], identity: int):
        n = len(table)
        table = tuple(tuple(row) for row in table)
        if n == 0:
            raise ValueError("a monoid needs at least the identity element")
        if any(len(row) != n for row in table):
            raise ValueError("Cayley table must be square")
        _record.check_int(identity, "identity index out of range", 0, n)
        for row in table:
            _record.exact_ints(row, "table entry out of range")
        if min(map(min, table)) < 0 or max(map(max, table)) >= n:
            raise ValueError("table entry out of range")
        # zip(*table) yields the columns one at a time; the first row that
        # differs from its column differs from it right of the diagonal
        x = next((x for x, (row, column) in enumerate(zip(table, zip(*table)))
                  if row != column), None)
        if x is not None:
            y = next(y for y in range(x + 1, n) if table[x][y] != table[y][x])
            raise ValueError(f"table is not commutative at ({x}, {y})")
        if _associativity_failure(table, _generators(table)) is not None:
            x, y, z = _associativity_failure(table, range(n))
            raise ValueError(f"table is not associative at ({x}, {y}, {z})")
        # the table is commutative, so its identity row is its identity column too
        if table[identity] != tuple(range(n)):
            raise ValueError("identity element does not act as identity")
        super().__init__(table, identity)

    @property
    def size(self) -> int:
        return len(self.table)

    def add(self, x: int, y: int) -> int:
        _record.check_int(x, "invalid element index", 0, self.size)
        _record.check_int(y, "invalid element index", 0, self.size)
        return self.table[x][y]

    @classmethod
    def cyclic_group(cls, n: int) -> "FiniteCommutativeMonoid":
        _record.check_int(n, "group order must be a positive integer", 1)
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(table, 0)

    @classmethod
    def product(cls, a: "FiniteCommutativeMonoid",
                b: "FiniteCommutativeMonoid") -> "FiniteCommutativeMonoid":
        na, nb = a.size, b.size
        def enc(i, j):
            return i * nb + j
        table = []
        for i in range(na):
            for j in range(nb):
                table.append(tuple(enc(a.add(i, k), b.add(j, l))
                                   for k in range(na) for l in range(nb)))
        return cls(tuple(table), enc(a.identity, b.identity))

    @classmethod
    def from_invariants(cls, invariants: Sequence[int]) -> "FiniteCommutativeMonoid":
        """Direct product of cyclic groups of the given orders."""
        m = cls.cyclic_group(1)
        for inv in invariants:
            m = cls.product(m, cls.cyclic_group(inv))
        return m

    # Cayley-table file format: first line "n identity_index",
    # then n lines of n element indices.

    @classmethod
    def from_text(cls, text: str) -> "FiniteCommutativeMonoid":
        if not isinstance(text, str):
            raise ValueError("Cayley table text must be a str")
        tokens = text.split()
        if len(tokens) < 2:
            raise ValueError("Cayley table text must start with 'n identity_index'")
        n, identity = int(tokens[0]), int(tokens[1])
        if len(tokens) - 2 != n * n:
            raise ValueError(f"expected {n * n} table entries, got {len(tokens) - 2}")
        rows = (tokens[2 + i * n:2 + (i + 1) * n] for i in range(n))
        return cls(tuple(tuple(map(int, row)) for row in rows), identity)


class FreeCommutativeMonoid(Record):
    """Free commutative monoid N^k; elements are exponent vectors."""

    _fields = ("generator_count",)

    def __init__(self, generator_count: int):
        _record.check_int(generator_count, "generator count must be nonnegative", 0)
        super().__init__(generator_count)

    def element(self, exponents: Sequence[int]) -> tuple[int, ...]:
        exponents = _record.exact_ints(exponents, "exponents must be exact integers")
        if len(exponents) != self.generator_count:
            raise ValueError("element has the wrong number of exponents")
        if any(e < 0 for e in exponents):
            raise ValueError("exponents must be nonnegative")
        return exponents

    def add(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        x, y = self.element(x), self.element(y)
        return tuple(a + b for a, b in zip(x, y))

    def generator(self, i: int) -> tuple[int, ...]:
        _record.check_int(i, "generator index out of range", 0, self.generator_count)
        return tuple(1 if j == i else 0 for j in range(self.generator_count))


Monoid = FiniteCommutativeMonoid | FreeCommutativeMonoid


def pair_equivalent(monoid: Monoid, x, y, u, v) -> bool:
    """Whether the formal differences (x, y) and (u, v) coincide.

    The defining relation asks for a translating t with x + v + t equal to
    u + y + t.  Finite monoids are searched exhaustively over t; in a free
    commutative monoid addition cancels, so t is irrelevant and the test
    degenerates to x + v == u + y.
    """
    if isinstance(monoid, FreeCommutativeMonoid):
        return monoid.add(x, v) == monoid.add(u, y)
    left = monoid.add(x, v)
    right = monoid.add(u, y)
    return any(monoid.add(left, t) == monoid.add(right, t)
               for t in range(monoid.size))


def _classify_group_table(table: Sequence[Sequence[int]]) -> _groups.FgAbelianGroup:
    """Invariant factors of a finite abelian group given by its Cayley table.

    The elements that p^j kills, for a prime p, form a subgroup G[p^j],
    and |G[p^j]| / |G[p^(j-1)]| = p^c, where c counts the invariant
    factors divisible by p^j: so the i-th largest factor takes one p for
    each j whose c is at least i.  The counts come from the element
    orders, found by walking the multiples x, 2x, .., mx = 0 of each
    element not met before: kx has order m / gcd(k, m).
    """
    n = len(table)
    zero = next(z for z in range(n) if table[z][z] == z)
    orders = {zero: 1}
    for x in range(n):
        if x in orders:
            continue
        row, multiples = table[x], [x]
        while multiples[-1] != zero:
            multiples.append(row[multiples[-1]])
        m = len(multiples)
        for k, y in enumerate(multiples, 1):
            orders[y] = m // gcd(k, m)
    tally = Counter(orders.values())
    factors = []  # the invariant factors, largest first
    rest, p = n, 2
    while rest > 1:
        if rest % p:
            p += 1
            continue
        while rest % p == 0:
            rest //= p
        killed, power = 1, p  # |G[p^(j-1)]| and p^j
        while tally[power]:
            grown, c = killed + tally[power], 0
            while killed < grown:
                killed, c = killed * p, c + 1
            factors += [1] * (c - len(factors))
            factors[:c] = [f * p for f in factors[:c]]
            power *= p
    return _groups.FgAbelianGroup(0, tuple(reversed(factors)))


class GrothendieckGroup:
    """Completion of a commutative monoid.

    carrier is the underlying abelian group in invariant-factor form.
    class_of implements the canonical map phi(x) = [(x + x, x)], and
    class_of_pair sends a formal difference (x, y) to its class, so that
    class_of(x) - class_of(y) is always the class of (x, y).

    For a finite monoid the class values are indices into the elements
    of the least ideal K, in the order x + e for x = 0, 1, .., where e is
    K's identity; for N^k they are integer vectors in Z^k.
    """

    def __init__(self, monoid: Monoid):
        self.monoid = monoid
        if isinstance(monoid, FreeCommutativeMonoid):
            self.kind = "free"
            self.carrier = _groups.FgAbelianGroup.free(monoid.generator_count)
            return
        self.kind = "finite"
        # a, the sum of all elements, lies in every ideal, so K = M + a is
        # the least ideal, a finite group
        t, a = monoid.table, 0
        for x in range(1, monoid.size):
            a = t[a][x]
        self._zero = e = next(k for k in t[a] if t[k][k] == k)
        self._elements = elements = tuple(dict.fromkeys(t[e]))
        self._index = index = {k: i for i, k in enumerate(elements)}
        # g + h = e for some h of M, and then h + e is the negative of g in K
        self._minus = {g: t[e][t[g].index(e)] for g in elements}
        if len(elements) == len(t):
            # K = M is a group with identity e, so its elements are e + x = x in
            # order, index is the identity, and its table is the monoid's own
            self._add_table = t
        else:
            self._add_table = [tuple(map(index.__getitem__, map(t[g].__getitem__, elements)))
                               for g in elements]
        self.carrier = _classify_group_table(self._add_table)

    # -- class arithmetic -------------------------------------------------

    @property
    def class_count(self) -> int | None:
        return None if self.kind == "free" else len(self._elements)

    def class_of_pair(self, x, y):
        if self.kind == "free":
            x = self.monoid.element(x)
            y = self.monoid.element(y)
            return tuple(a - b for a, b in zip(x, y))
        add = self.monoid.add
        # x + (-(y + e)) already lies in the ideal K
        return self._index[add(x, self._minus[add(y, self._zero)])]

    def class_of(self, x):
        """The canonical map phi(x) = [(x + x, x)]."""
        if self.kind == "free":
            x = self.monoid.element(x)
            return tuple(x)
        return self.class_of_pair(self.monoid.add(x, x), x)

    def add(self, c1, c2):
        if self.kind == "free":  # a class is an element of the carrier Z^k
            return self.carrier.add_elements(c1, c2)
        _record.check_int(c1, "invalid class index", 0, len(self._elements))
        _record.check_int(c2, "invalid class index", 0, len(self._elements))
        return self._add_table[c1][c2]


def completion(monoid: Monoid) -> GrothendieckGroup:
    """Group completion of a commutative monoid."""
    return GrothendieckGroup(monoid)


class CompletionHomomorphism:
    """The induced map theta with theta([(x, y)]) = psi(x) - psi(y)."""

    def __init__(self, group: GrothendieckGroup, target: _groups.FgAbelianGroup, data):
        self.group = group
        self.target = target
        self._data = data

    def __call__(self, carrier_class):
        if self.group.kind == "free":
            carrier_class = self.group.carrier.normalize_element(carrier_class)
            acc = self.target.zero_element()
            for coeff, image in zip(carrier_class, self._data):
                acc = self.target.add_elements(acc, self.target.scale_element(image, coeff))
            return acc
        _record.check_int(carrier_class, "invalid class index", 0, len(self._data))
        return self._data[carrier_class]


def universal_factor(monoid: Monoid, group: GrothendieckGroup,
                     target: _groups.FgAbelianGroup,
                     psi: Sequence) -> CompletionHomomorphism:
    """Factor a monoid homomorphism psi through the completion.

    psi is a sequence of target elements: for a finite monoid, one per
    monoid element; for N^k, one per generator.  The homomorphism
    property is verified on all pairs in the finite case and rejected
    with the violating pair; generator data on N^k extends linearly, so
    there is nothing to check beyond well-formedness.

    The returned map theta satisfies theta(phi(x)) = psi(x) and is
    additive.  On N^k it is the linear extension.  On a finite monoid it
    is psi read on the least ideal K: the class of (x, y) is the element
    k = (x + e) - (y + e) of K, and a homomorphism has psi(e) = 0, so
    psi(k) = psi(x) - psi(y).  Uniqueness comes for free: the phi-image
    generates the completion, and theta is pinned there.
    """
    if group.monoid is not monoid and group.monoid != monoid:
        raise ValueError("completion does not belong to this monoid")
    values = [target.normalize_element(v) for v in psi]
    free = isinstance(monoid, FreeCommutativeMonoid)
    if len(values) != (monoid.generator_count if free else monoid.size):
        raise ValueError("psi must assign a value to every "
                         + ("generator" if free else "monoid element"))
    if free:
        return CompletionHomomorphism(group, target, values)
    n = monoid.size
    for x in range(n):
        for y in range(n):
            if values[monoid.add(x, y)] != target.add_elements(values[x], values[y]):
                raise ValueError(
                    f"psi is not a homomorphism: fails at pair ({x}, {y})"
                )
    theta = tuple(values[k] for k in group._elements)
    return CompletionHomomorphism(group, target, theta)
