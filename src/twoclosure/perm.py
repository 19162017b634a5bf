"""Permutations of {0, ..., n-1} stored as image tuples.

Composition is left to right: ``(p * q)(a) == q(p(a))``, matching the
exponent convention a^(pq) = (a^p)^q.  All internal points are 0-indexed;
cycle notation and JSON image lists use 1-indexed points.
"""

from __future__ import annotations

import math

from .errors import DegreeMismatchError, MalformedPermutationError, ParseError

# The identity's image tuple per degree, compared against in C.
_IDENTITY_IMAGES = {}


class Permutation:
    """An immutable permutation given by its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for v in images:
            if type(v) is not int or not 0 <= v < n or seen[v]:
                raise MalformedPermutationError(
                    f"images are not a bijection on 0..{n - 1}: {images!r}")
            seen[v] = True
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images):
        """A permutation from an image tuple known to be a bijection,
        skipping the check; for products, inverses, powers and direct
        sums only."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n, cycles):
        """Build a permutation of degree n from 0-indexed disjoint cycles."""
        images = list(range(n))
        seen = set()
        for cycle in cycles:
            cycle = list(cycle)
            for a in cycle:
                if not 0 <= a < n:
                    raise MalformedPermutationError(
                        f"point {a} out of range for degree {n}")
                if a in seen:
                    raise MalformedPermutationError(
                        f"point {a} appears in two cycles")
                seen.add(a)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.images) != len(other.images):
            raise DegreeMismatchError(
                f"degree {len(self.images)} != {len(other.images)}")
        oi = other.images
        return Permutation._trusted(tuple([oi[v] for v in self.images]))

    def inverse(self):
        images = [0] * len(self.images)
        for a, v in enumerate(self.images):
            images[v] = a
        return Permutation._trusted(tuple(images))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation._trusted(tuple(range(len(self.images))))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation.parse({len(self.images)}, {self.cycle_string()!r})"

    @property
    def is_identity(self):
        images = self.images
        n = len(images)
        identity = _IDENTITY_IMAGES.get(n)
        if identity is None:
            identity = _IDENTITY_IMAGES[n] = tuple(range(n))
        return images == identity

    def cycles(self):
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = [False] * len(self.images)
        out = []
        for a in range(len(self.images)):
            if seen[a] or self.images[a] == a:
                seen[a] = True
                continue
            cycle = []
            b = a
            while not seen[b]:
                seen[b] = True
                cycle.append(b)
                b = self.images[b]
            out.append(tuple(cycle))
        return out

    def cycle_type(self):
        """Sorted tuple of cycle lengths, fixed points included."""
        lengths = [len(c) for c in self.cycles()]
        lengths.extend([1] * (len(self.images) - sum(lengths)))
        return tuple(sorted(lengths))

    def order(self):
        return math.lcm(*(len(c) for c in self.cycles()))

    def support(self):
        return [a for a, v in enumerate(self.images) if v != a]

    def on_set(self, points):
        return frozenset(self.images[a] for a in points)

    def extend(self, n):
        """The same permutation viewed on 0..n-1, new points fixed."""
        if n < len(self.images):
            raise DegreeMismatchError(
                f"cannot shrink degree {len(self.images)} to {n}")
        return Permutation(self.images + tuple(range(len(self.images), n)))

    def cycle_string(self):
        """1-indexed cycle notation, '()' for the identity."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join(
            "(" + " ".join(str(a + 1) for a in c) + ")" for c in cycles)

    def to_image_list(self):
        """1-indexed image list for serialization."""
        return [v + 1 for v in self.images]

    @classmethod
    def from_image_list(cls, images):
        """Inverse of to_image_list: accepts a 1-indexed image list."""
        return cls(v - 1 for v in images)

    @classmethod
    def parse(cls, n, text, line=None):
        """Parse 1-indexed cycle notation like '(1 2 3)(4 5)'.

        Points may be separated by spaces or commas.  '()' and the empty
        string denote the identity.
        """
        cycles = []
        pos = 0
        length = len(text)
        while pos < length:
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch != "(":
                raise ParseError(f"expected '(' but found {ch!r}",
                                 line=line, column=pos + 1)
            pos += 1
            cycle = []
            current = ""
            while pos < length and text[pos] != ")":
                ch = text[pos]
                if ch.isdigit():
                    current += ch
                elif ch in " ,":
                    if current:
                        cycle.append(int(current))
                        current = ""
                else:
                    raise ParseError(f"unexpected character {ch!r} in cycle",
                                     line=line, column=pos + 1)
                pos += 1
            if pos >= length:
                raise ParseError("unclosed cycle", line=line, column=pos)
            if current:
                cycle.append(int(current))
            pos += 1
            for a in cycle:
                if not 1 <= a <= n:
                    raise ParseError(
                        f"point {a} out of range 1..{n}", line=line)
            if len(cycle) >= 2:
                cycles.append([a - 1 for a in cycle])
            if len(set(cycle)) != len(cycle):
                raise ParseError("repeated point inside a cycle", line=line)
        flat = [a for c in cycles for a in c]
        if len(set(flat)) != len(flat):
            raise ParseError("cycles are not disjoint", line=line)
        try:
            return cls.from_cycles(n, cycles)
        except MalformedPermutationError as exc:
            raise ParseError(str(exc), line=line) from exc
