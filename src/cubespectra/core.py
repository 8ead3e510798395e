"""Hypercube vertices, families, and induced subgraphs.

A vertex of the d-dimensional hypercube is a subset of the coordinate
indices {1..d}.  We encode it as a machine integer: element j is bit j-1.
This makes membership, symmetric difference, union, and max-element cheap,
and it identifies the *binary order* on subsets (S < T iff the largest
element of the symmetric difference lies in T) with plain integer order.

Coordinate indices are 1-based throughout.  Dimensions are capped at 64 so
every set operation stays a single-word bit operation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

MAX_DIM = 64


def vertex_of(elements) -> int:
    """Encode an iterable of 1-based coordinate indices as a bitmask."""
    mask = 0
    for j in elements:
        if j < 1 or j > MAX_DIM:
            raise ValueError(f"coordinate index {j} outside 1..{MAX_DIM}")
        mask |= 1 << (j - 1)
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """Decode a bitmask into its sorted 1-based coordinate indices."""
    if mask < 0:
        raise ValueError(f"vertex mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


_ELEMENT_NAMES = tuple(str(j) for j in range(MAX_DIM + 1))


def vertex_str(mask: int) -> str:
    """Print a vertex as a sorted element list; the empty set prints as {}."""
    if mask < 0:
        raise ValueError(f"vertex mask {mask} is negative")
    names = []
    while mask:
        low = mask & -mask
        j = low.bit_length()
        names.append(_ELEMENT_NAMES[j] if j <= MAX_DIM else str(j))
        mask ^= low
    return "{" + ",".join(names) + "}"


@functools.cache
def _byte_names() -> np.ndarray:
    """names[p, b]: ",j" for each element j of the byte value b placed at
    byte p of a mask, in ascending order."""
    names = np.empty((8, 256), dtype=object)
    for p in range(8):
        for b in range(256):
            names[p, b] = "".join(f",{8 * p + e + 1}" for e in range(8)
                                  if b >> e & 1)
    return names


# Below this many masks, numpy's per-call overhead in `_vertex_strs`
# costs more than a `vertex_str` call per mask.
_BATCH_NAMES = 32


def _vertex_strs(masks) -> list[str]:
    """`vertex_str` of each of `masks`, a sequence of Python ints in
    0..2^64 - 1, with one table lookup per byte of a mask in place of
    one step per element."""
    if len(masks) < _BATCH_NAMES:
        return list(map(vertex_str, masks))
    masks = np.asarray(masks, dtype=np.uint64)
    rows = masks.astype("<u8").view(np.uint8).reshape(-1, 8)
    width = max(1, (int(masks.max()).bit_length() + 7) // 8)
    names = _byte_names()
    joined = names[0, rows[:, 0]]
    for p in range(1, width):
        joined = joined + names[p, rows[:, p]]
    return ["{" + s[1:] + "}" for s in joined.tolist()]


def binary_compare(s: int, t: int) -> int:
    """Return -1/0/1 ordering S against T in the binary order.

    S < T iff max(S symdiff T) is an element of T, which the bitmask
    encoding turns into integer comparison.
    """
    if s == t:
        return 0
    return -1 if s < t else 1


def _sorted_masks(part) -> np.ndarray:
    """The vertices of the set `part` as an ascending uint64 array."""
    masks = np.fromiter(part, dtype=np.uint64, count=len(part))
    masks.sort()
    return masks


def _found(table: np.ndarray, masks: np.ndarray):
    """The `searchsorted` positions of `masks`, an array of any shape, in
    the ascending array `table`, and whether each mask is there."""
    pos = np.searchsorted(table, masks)
    if not len(table):
        return pos, np.zeros(pos.shape, dtype=bool)
    return pos, table[np.minimum(pos, len(table) - 1)] == masks


@dataclass(frozen=True)
class VertexFamily:
    """A set of vertices inside Q_d: the vertex set of an induced subgraph.

    Treat instances as immutable values; `members` is a frozenset of
    bitmasks, every member a subset of {1..d}.  `vertices`, `cube_graph`
    and `is_compressed` keep their results on the instance, outside its
    fields, so equality, hashing and `replace` ignore them.  A family
    made by `_of_sorted` holds only `d` and `vertices` until `members` is
    first read (`__getattr__`); its length is its array's, and every
    other use sees the same value as a family built from the set.
    """

    d: int
    members: frozenset[int]

    def __post_init__(self):
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))
        self._check(min(self.members, default=0), max(self.members, default=0))

    @classmethod
    def _of_sorted(cls, d: int, masks: np.ndarray) -> VertexFamily:
        """The family of Q_d whose `vertices` is `masks`, an ascending
        uint64 array without repeats, which becomes read-only.  Its ends
        bound every member, so the checks take O(1) in place of
        `__post_init__`'s passes over the members, and its `members` set
        is built from the array, in ascending order, when first read."""
        fam = object.__new__(cls)
        object.__setattr__(fam, "d", d)
        fam._check(0, int(masks[-1]) if len(masks) else 0)
        masks.flags.writeable = False
        fam.__dict__["vertices"] = masks
        return fam

    def __getattr__(self, name: str):
        # reached only for names missing from the instance and the class:
        # here the `members` of an `_of_sorted` family not yet read
        verts = self.__dict__.get("vertices")
        if name != "members" or verts is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        members = self.__dict__["members"] = frozenset(verts.tolist())
        return members

    def _check(self, low: int, top: int) -> None:
        """Raise unless d is in 1..MAX_DIM and the least and greatest
        members, `low` and `top`, are vertices of Q_d."""
        if not 1 <= self.d <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {self.d}")
        if low < 0:
            raise ValueError(f"vertex mask {low} is negative")
        if top >> self.d:
            raise ValueError(
                f"vertex {vertex_str(top)} has elements outside 1..{self.d}"
            )

    def __len__(self) -> int:
        verts = self.__dict__.get("vertices")
        return len(self.members if verts is None else verts)

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    def __iter__(self):
        return iter(self.sorted_members())

    @functools.cached_property
    def vertices(self) -> np.ndarray:
        """The members as a read-only ascending uint64 array, built once
        (`_of_sorted` keeps the one it is given)."""
        verts = _sorted_masks(self.members)
        verts.flags.writeable = False
        return verts

    def sorted_members(self) -> tuple[int, ...]:
        """Members in binary order (ascending bitmask value)."""
        return tuple(self.vertices.tolist())

    def max_set_size(self) -> int:
        return max((v.bit_count() for v in self.members), default=0)

    def __str__(self) -> str:
        inner = ", ".join(vertex_str(v) for v in self.sorted_members())
        return f"Q{self.d}[{inner}]"


def initial_segment(n: int, d: int) -> VertexFamily:
    """The n smallest vertices of Q_d in binary order."""
    if not 0 <= n <= 2**d:
        raise ValueError(f"n={n} out of range 0..2^{d}")
    return VertexFamily(d, frozenset(range(n)))


def hamming_ball(d: int, i: int) -> VertexFamily:
    """All vertices with at most i elements; size sum_{j<=i} C(d,j)."""
    if not 0 <= i <= d:
        raise ValueError(f"radius i={i} out of range 0..{d}")
    bits = [1 << e for e in range(d)]
    members = (sum(c) for j in range(i + 1) for c in combinations(bits, j))
    return VertexFamily(d, frozenset(members))


def star_family(d: int, leaves: int) -> VertexFamily:
    """K_{1,m} embedded as the empty set plus m singletons (m <= d)."""
    if not 0 <= leaves <= d:
        raise ValueError(f"star with {leaves} leaves does not fit in Q_{d}")
    return VertexFamily(d, frozenset([0] + [1 << j for j in range(leaves)]))


@dataclass(frozen=True, eq=False)
class CubeGraph:
    """The induced subgraph of Q_d on a family, in CSR form.

    `vertices` holds the members in ascending (binary) order as uint64,
    so d = 64 fits.  The neighbours of vertices[k] are
    vertices[indices[indptr[k]:indptr[k + 1]]], in ascending order.
    """

    vertices: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    def neighbour_sums(self, values: np.ndarray) -> np.ndarray:
        """Per vertex, the sum of `values` over its neighbours."""
        sums = np.concatenate(([0], np.cumsum(values[self.indices])))
        return sums[self.indptr[1:]] - sums[self.indptr[:-1]]


def dense_fits(d: int, n: int) -> bool:
    """True when 2^d <= 2nd: a table over every vertex of Q_d, one entry
    per vertex, is small beside the n·d bit-flips of an n-vertex family.
    `flip_csr` then looks flips up in an int32 table, no larger than an
    n x d flip matrix, and `compress` holds the family as one 2^d-bit
    int."""
    return (1 << d) <= 2 * n * d


def flip_csr(rows: np.ndarray, cols: np.ndarray, d: int, n: int):
    """CSR (indptr, indices) of "the row and column masks differ in one
    bit", for ascending uint64 masks of an n-vertex family of Q_d; each
    row lists its columns in ascending order (`cols` is empty only if
    `rows` is).  When `dense_fits(d, n)`, an int32 table of 2^d entries
    holding each column's position or -1 looks every flip up directly:
    the flips are XORed as intp, the table's index type, and `indices`
    stays int32.  Otherwise each row of flips is sorted and looked up in
    `cols` with `_found`: one `searchsorted`, and a flip found there is
    an edge; `indices` are then its intp positions."""
    if dense_fits(d, n):
        table = np.full(1 << d, -1, dtype=np.int32)
        table[cols] = np.arange(len(cols), dtype=np.int32)
        bits = 1 << np.arange(d, dtype=np.intp)
        pos = table[rows.astype(np.intp)[:, None] ^ bits]
        # positions follow mask order, so sorted rows are sorted lists
        pos.sort(axis=1)
        hit = pos >= 0
        indices = pos[hit]
    else:
        bits = np.left_shift(np.uint64(1), np.arange(d, dtype=np.uint64))
        flips = rows[:, None] ^ bits
        # sorting each row of flips makes each column list come out sorted
        flips.sort(axis=1)
        pos, hit = _found(cols, flips)
        indices = pos[hit]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(hit.sum(axis=1), out=indptr[1:])
    return indptr, indices


def cube_graph(fam: VertexFamily) -> CubeGraph:
    """The induced subgraph of `fam` on its `vertices`, built from every
    vertex's d bit-flips on the first call and kept on the family object,
    so every later call on that object returns the same graph.  Its
    arrays are read-only, since all those callers share them."""
    g = fam.__dict__.get("_graph")
    if g is None:
        indptr, indices = flip_csr(fam.vertices, fam.vertices, fam.d, len(fam))
        g = CubeGraph(fam.vertices, indptr,
                      indices.astype(np.int64, copy=False))
        g.indptr.flags.writeable = g.indices.flags.writeable = False
        object.__setattr__(fam, "_graph", g)
    return g


def induced_edges(fam: VertexFamily) -> tuple[tuple[int, int], ...]:
    """All pairs of members at Hamming distance 1, each once, smaller first."""
    g = cube_graph(fam)
    rows = np.repeat(np.arange(len(g.vertices)), np.diff(g.indptr))
    upper = g.indices > rows
    return tuple(zip(g.vertices[rows[upper]].tolist(),
                     g.vertices[g.indices[upper]].tolist()))


@dataclass(frozen=True)
class DegreeProfile:
    degrees: dict[int, int]
    max_degree: int
    max_neighbor_degree_sum: int


def degree_profile(fam: VertexFamily) -> DegreeProfile:
    """Per-vertex degrees, the maximum degree, and the largest sum of
    degrees over one vertex's neighbourhood."""
    g = cube_graph(fam)
    deg = np.diff(g.indptr)
    nbr_sums = g.neighbour_sums(deg)
    return DegreeProfile(
        dict(zip(g.vertices.tolist(), deg.tolist())),
        int(deg.max(initial=0)),
        int(nbr_sums.max(initial=0)),
    )


# ---------------------------------------------------------------------------
# Family file format: first line "d=<int>" with the int in 1..64, then one
# vertex per line as a binary string of length d, character j (1-indexed,
# left to right) = '1' iff j is an element.  '#' starts a comment;
# duplicate vertices are errors.  `parse_family` checks and decodes all
# vertex lines at once as one (m, d + 1) byte array, of a canonical file's
# own bytes or of its normalised lines; only when a check fails on these
# does it read the lines one by one, to name the first bad line.  Its
# sort of the masks, made to find duplicates, is the family's `vertices`.
_CANONICAL_HEADERS = {f"d={d}": d for d in range(1, MAX_DIM + 1)}


def mask_to_binary_string(mask: int, d: int) -> str:
    return format(mask, f"0{d}b")[::-1]


def binary_string_to_mask(line: str, d: int) -> int:
    if len(line) != d or line.strip("01"):
        raise ValueError(f"vertex line {line!r} is not {d} characters of 0/1")
    return int(line[::-1], 2)


def _header_dim(lines: list[str], kind: str) -> int:
    """The d of a `kind` file's first line, which must read 'd=<int>' with
    the int in 1..MAX_DIM; `lines` are the file's non-blank lines."""
    if not lines or not lines[0].startswith("d="):
        raise ValueError(f"{kind} file must start with a 'd=<int>' line")
    try:
        d = int(lines[0][2:])
    except ValueError:
        d = 0
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"header line {lines[0]!r} is not 'd=<int>' "
                         f"with the int in 1..{MAX_DIM}")
    return d


def _raise_first_bad_line(body: list[str], d: int) -> None:
    """Raise the error for the first vertex line that is malformed or
    repeats the mask of an earlier line."""
    seen: set[int] = set()
    for line in body:
        mask = binary_string_to_mask(line, d)
        if mask in seen:
            raise ValueError(f"duplicate vertex line {line!r}")
        seen.add(mask)


def _decode_lines(buffer: bytes, offset: int, d: int) -> np.ndarray | None:
    """The ascending masks of the lines of buffer[offset:], or None unless
    every line is d characters of 0/1 ending in '\\n' and no two are equal.
    Each line's digits, zero-padded to the 64 bits of a mask, go into one
    (m, 64) array, packed by one flat `np.packbits` and viewed as uint64:
    packing along rows this short is several times slower."""
    raw = np.frombuffer(buffer, dtype=np.uint8, offset=offset)
    m, rest = divmod(len(raw), d + 1)
    rows = raw[:m * (d + 1)].reshape(m, d + 1)
    bits = np.zeros((m, 64), dtype=np.uint8)
    digits = np.subtract(rows[:, :d], np.uint8(ord("0")), out=bits[:, :d])
    if rest or not (digits <= 1).all() or (rows[:, d] != ord("\n")).any():
        return None
    masks = np.packbits(bits, bitorder="little").view("<u8")
    masks.sort()
    return None if (np.diff(masks) == 0).any() else masks


def parse_family(text: str) -> VertexFamily:
    """The family of a family file's text (format above).  The masks
    come out of `_decode_lines` sorted and checked, below 2^d by
    construction, so `VertexFamily._of_sorted` builds the family from
    them without another pass over its members and keeps their array
    as its `vertices`."""
    # A canonical file, 'd=<int>' and lines of d characters of 0/1 each
    # ending in '\n', is decoded as its bytes; 'replace' encodes each
    # non-ASCII character as one '?' byte, so bytes and characters agree.
    head = text[:max(text.find("\n"), 0)]
    d = _CANONICAL_HEADERS.get(head)
    masks = None if d is None else _decode_lines(
        text.encode("ascii", "replace"), len(head) + 1, d)
    if masks is None:
        lines = text.splitlines()
        if "#" in text:
            lines = [line.split("#", 1)[0] for line in lines]
        lines = list(filter(None, map(str.strip, lines)))
        d = _header_dim(lines, "family")
        masks = _decode_lines(
            ("\n".join(lines) + "\n").encode("ascii", "replace"),
            len(lines[0]) + 1, d)
        if masks is None:
            _raise_first_bad_line(lines[1:], d)
            raise AssertionError("a vertex line failed a check no line fails")
    return VertexFamily._of_sorted(d, masks)


def format_family(fam: VertexFamily) -> str:
    lines = [f"d={fam.d}"]
    lines += [mask_to_binary_string(v, fam.d) for v in fam.sorted_members()]
    return "\n".join(lines) + "\n"


def read_family(path) -> VertexFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_family(fh.read())


def write_family(fam: VertexFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_family(fam))
