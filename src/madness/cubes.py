"""The 30 MacMahon colored cubes: geometry, corner numbers, and the tableau.

A MacMahon cube carries the colors 1..6 bijectively on its six faces; up to
rotation there are exactly 30 such cubes.  Each cube is identified three ways:

* a two-letter tableau name such as ``Ba``: the cubes sit in a 6x6 grid with
  row letters A-F, column letters a-f and an empty diagonal, arranged so that
  the cube in cell Xy is the mirror image of the cube in cell Yx;
* a canonical face coloring, the least 6-tuple among its 24 rotations;
* its set of eight corner numbers, which is a complete key.

A corner number is the three colors that meet at a corner, read clockwise
looking at the corner from outside the cube, normalized to the least of the
three cyclic rotations.  So 231 and 312 denote the corner 123, while the
reversal 132 is a different corner.  Exactly forty corner numbers exist, and
a remarkable amount of the puzzle's structure is visible in them alone: each
row and each column of the tableau covers all forty corner numbers exactly
once, and mirror cubes have disjoint, reversal-related corner sets.

The face order throughout is (Up, Down, North, East, South, West).
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, lru_cache

__all__ = [
    "COLORS",
    "FACE_LETTERS",
    "ROTATIONS",
    "CELL_FACES",
    "ALL_CORNER_NUMBERS",
    "CUBE_NAMES",
    "ROW_LETTERS",
    "COLUMN_LETTERS",
    "InvalidCornerError",
    "InvalidColoringError",
    "TableauBuildError",
    "UnknownCubeError",
    "CollectionSizeError",
    "Cube",
    "Tableau",
    "canonical_corner",
    "reverse_corner",
    "corner_numbers",
    "corners_in_read_order",
    "rotate",
    "canonical_coloring",
    "mirror_name",
    "build_tableau",
    "recolor_coloring",
    "all_color_permutations",
    "usable_corner_count",
]

COLORS = (1, 2, 3, 4, 5, 6)

# Face indices.  U/D on the z axis, N/S on the y axis, E/W on the x axis.
U, D, N, E, S, W = range(6)
FACE_LETTERS = "UDNESW"

ROW_LETTERS = "ABCDEF"
COLUMN_LETTERS = "abcdef"

# Tableau reading order: rows top to bottom, the blank diagonal skipped.
CUBE_NAMES = tuple(
    row + col
    for row in ROW_LETTERS
    for col in COLUMN_LETTERS
    if row.lower() != col
)


class InvalidCornerError(ValueError):
    """A corner triple with a repeated or out-of-range color."""


class InvalidColoringError(ValueError):
    """A face 6-tuple that is not a bijection onto the six colors."""


class UnknownCubeError(KeyError):
    """A name, id or corner set that denotes none of the 30 cubes."""

    def __str__(self):
        return self.args[0] if self.args else ""


class CollectionSizeError(ValueError):
    """A collection whose size is not the one required (8 for a puzzle instance)."""


class TableauBuildError(RuntimeError):
    """First-principles cube generation failed to match the reference data."""


# ---------------------------------------------------------------------------
# Rotations.
#
# A rotation is stored as a face permutation ``perm`` acting by
# ``rotate(coloring, perm)[g] == coloring[perm[g]]``: the sticker that lands
# on face position g came from face position perm[g].  The 24 permutations
# are the closure of two quarter turns, each written as the cycle of faces
# whose stickers it moves one step on: N -> E -> S -> W about the U-D axis,
# and U -> N -> D -> S about the E-W axis.  So no hand-written permutation
# table needs to be trusted.
# ---------------------------------------------------------------------------

_QUARTER_TURNS = ((N, E, S, W), (U, N, D, S))


def _rotation_permutations():
    generators = []
    for cycle in _QUARTER_TURNS:
        perm = list(range(6))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[b] = a    # the sticker on a lands on b
        generators.append(tuple(perm))
    identity = tuple(range(6))
    seen, frontier = {identity}, {identity}
    while frontier:
        frontier = {tuple(p[i] for i in g) for p in frontier for g in generators} - seen
        seen |= frontier
    if len(seen) != 24:
        raise AssertionError(f"rotation closure produced {len(seen)} elements")
    return tuple(sorted(seen))


ROTATIONS = _rotation_permutations()


def rotate(coloring, perm):
    """Apply a face permutation from ROTATIONS to a face 6-tuple."""
    return tuple(map(coloring.__getitem__, perm))


def _check_coloring(coloring):
    if len(coloring) != 6 or sorted(coloring) != list(COLORS):
        raise InvalidColoringError(f"not a six-color face bijection: {coloring!r}")


def canonical_coloring(coloring):
    """The least face 6-tuple among the 24 rotations of ``coloring``."""
    _check_coloring(coloring)
    return min(rotate(coloring, p) for p in ROTATIONS)


# ---------------------------------------------------------------------------
# Corners.
#
# Corner i of the cube (0..7) has sign vector s = (sx, sy, sz) with
# sx = +1 iff bit 2 of i is set, sy from bit 1, sz from bit 0.  The three
# faces meeting there are the E/W, N/S, U/D faces picked by the signs:
# CELL_FACES[i], in axis order.  The same indexing names the cells of the
# 2x2x2 target assembly: cell i sits at (x, y, z) = (bit2, bit1, bit0) and
# shows exactly those three faces on the outside of the block.
#
# Reading order.  Looking at corner s from outside, the outward face normals
# are sx*x, sy*y, sz*z; listing the faces in axis order (x-face, y-face,
# z-face) runs clockwise exactly when det[sx*x, sy*y, sz*z] = sx*sy*sz is
# negative, i.e. when i has an even number of set bits.  For odd popcount the
# last two faces are swapped.  (Check the all-plus corner 7: from outside,
# E -> U -> N is clockwise.)  Reversing the triple would read every corner
# with the opposite chirality, and the reference data would then name every
# coloring after its mirror; so the tableau bootstrap accepts this reading
# convention only.
# ---------------------------------------------------------------------------


CELL_FACES = tuple(
    (E if i & 4 else W, N if i & 2 else S, U if i & 1 else D) for i in range(8)
)
_CORNER_FACES = tuple(
    (x, y, z) if bin(i).count("1") % 2 == 0 else (x, z, y)
    for i, (x, y, z) in enumerate(CELL_FACES)
)


def canonical_corner(triple):
    """Normalize three colors around a corner to the least cyclic rotation.

    Returns the corner number as a three-digit integer, e.g. (3, 1, 2) -> 123.
    """
    a, b, c = triple
    if len({a, b, c}) != 3 or not all(x in COLORS for x in (a, b, c)):
        raise InvalidCornerError(f"corner colors must be three distinct colors: {triple!r}")
    return min(100 * a + 10 * b + c, 100 * b + 10 * c + a, 100 * c + 10 * a + b)


def reverse_corner(corner):
    """The corner read with the opposite chirality (132 for 123)."""
    return canonical_corner((corner % 10, corner // 10 % 10, corner // 100))


def _all_corner_numbers():
    out = []
    for a, b, c in itertools.combinations(COLORS, 3):
        out.append(100 * a + 10 * b + c)
        out.append(100 * a + 10 * c + b)
    return tuple(sorted(out))


ALL_CORNER_NUMBERS = _all_corner_numbers()


def corners_in_read_order(coloring):
    """The eight corner numbers of a coloring, indexed by corner 0..7."""
    _check_coloring(coloring)
    return tuple(
        canonical_corner((coloring[f0], coloring[f1], coloring[f2]))
        for f0, f1, f2 in _CORNER_FACES
    )


def corner_numbers(coloring):
    """The corner-number set of a coloring (eight distinct values)."""
    return frozenset(corners_in_read_order(coloring))


def mirror_name(name):
    """Swap the row and column letters: Ba <-> Ab."""
    return name[1].upper() + name[0].lower()


# ---------------------------------------------------------------------------
# Reference corner data for the 30 cubes, one row per tableau cell.  This
# fixes which corner set bears which name; everything else about the cubes is
# regenerated from first principles at startup and must match it exactly.
# ---------------------------------------------------------------------------

_REFERENCE_ROWS = """
Ab 143 345 235 132 126 256 465 164
Ac 153 134 142 125 265 246 364 356
Ad 243 123 152 254 456 165 136 346
Ae 354 145 124 234 263 162 156 365
Af 245 154 135 253 236 163 146 264
Ba 123 253 354 134 146 456 265 162
Bc 143 154 245 234 263 256 165 136
Bd 153 132 124 145 465 264 236 356
Be 152 135 345 254 246 364 163 126
Bf 243 235 125 142 164 156 365 346
Ca 152 124 143 135 365 346 264 256
Cb 243 254 145 134 163 156 265 236
Cd 235 345 154 125 162 146 364 263
Ce 245 253 123 142 164 136 356 465
Cf 153 354 234 132 126 246 456 165
Da 245 125 132 234 364 163 156 465
Db 154 142 123 135 365 263 246 456
Dc 152 145 354 253 236 346 164 126
De 153 235 243 134 146 264 256 165
Df 143 124 254 345 356 265 162 136
Ea 243 142 154 345 356 165 126 236
Eb 245 354 153 125 162 136 346 264
Ec 124 132 235 254 456 365 163 146
Ed 143 234 253 135 156 265 246 164
Ef 152 123 134 145 465 364 263 256
Fa 235 153 145 254 246 164 136 263
Fb 124 152 253 234 364 356 165 146
Fc 123 243 345 135 156 465 264 162
Fd 354 245 142 134 163 126 256 365
Fe 154 143 132 125 265 236 346 456
"""


def _parse_reference():
    table = {}
    for line in _REFERENCE_ROWS.strip().splitlines():
        parts = line.split()
        table[parts[0]] = tuple(int(p) for p in parts[1:])
    assert tuple(table) == CUBE_NAMES
    return table


REFERENCE_CORNERS = _parse_reference()


class Cube:
    """One of the 30 cubes.

    ``corners`` is indexed geometrically: entry i is the corner number read
    at corner i of the canonical coloring, which is also the corner this cube
    must show at cell i of a 2x2x2 assembly of canonically oriented cubes.
    Its fields are set once, here; plain slots keep the solver's reads fast.
    """

    __slots__ = ("name", "id", "coloring", "corners", "corner_set")

    def __init__(self, name, id, coloring, corners):
        for field, value in zip(self.__slots__, (name, id, coloring, corners, frozenset(corners))):
            object.__setattr__(self, field, value)

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r} of a Cube")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r} of a Cube")

    def __eq__(self, other):
        return self is other or type(other) is Cube and all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __hash__(self):
        return hash((self.name, self.id))    # equal cubes share both

    def __repr__(self):
        return f"Cube({self.name!r}, {self.id}, {self.coloring}, {self.corners})"

    def __reduce__(self):    # copy and pickle rebuild through __init__, not __setattr__
        return Cube, (self.name, self.id, self.coloring, self.corners)

    @property
    def row(self):
        return self.name[0]

    @property
    def column(self):
        return self.name[1]

    def __str__(self):
        return self.name


def recolor_coloring(perm, coloring):
    """Apply a color permutation (tuple p with p[c-1] the image of c)."""
    return tuple(perm[c - 1] for c in coloring)


@lru_cache(maxsize=1)
def all_color_permutations():
    """All 720 color permutations, each a 6-tuple p with p[c-1] = image of c."""
    return tuple(itertools.permutations(COLORS))


def usable_corner_count(cube, other):
    """How many corners of ``other`` the cube ``cube`` can supply (0, 2 or 8)."""
    return len(cube.corner_set & other.corner_set)


def _integer(key):
    """``key`` as an int if it is an integer, numpy's included; None for a bool, which is no id or mask."""
    return None if isinstance(key, bool) or not hasattr(key, "__index__") else operator.index(key)


class Tableau:
    """The 30 cubes with name, id and corner-set lookups, and the one definition
    of the tableau's lines: ``row``, ``column`` and ``mirror``.

    Ids 0..29 follow tableau reading order (Ab, Ac, Ad, Ae, Af, Ba, Bc, ...).
    """

    def __init__(self, cubes):
        self.cubes = tuple(cubes)
        self.by_name = {c.name: c for c in self.cubes}

    @cached_property
    def by_coloring(self):
        """Each of the 720 face colorings -> its cube, cube by cube in ROTATIONS order; recoloring
        reads it, and so does ``solver._placement_table``, the face table."""
        return {rotate(c.coloring, p): c for c in self.cubes for p in ROTATIONS}

    def cube(self, key):
        """Look up a cube by name, id or Cube; a Cube must equal this tableau's cube of its id."""
        try:
            cube = self.by_name.get(key)    # a name: one lookup, no type checks
        except TypeError:    # unhashable, so no name, id or Cube
            raise UnknownCubeError(f"not a cube name, id or Cube: {key!r}") from None
        if cube is not None:
            return cube
        if isinstance(key, Cube):
            cube = self.cubes[key.id] if _integer(key.id) in range(30) else None
            if cube != key:
                raise UnknownCubeError(f"not a cube of this tableau: {key!r}")
            return cube
        if isinstance(key, str):
            raise UnknownCubeError(f"unknown cube name: {key!r}")
        index = _integer(key)
        if index is None:
            raise UnknownCubeError(f"not a cube name, id or Cube: {key!r}")
        if 0 <= index < 30:
            return self.cubes[index]
        raise UnknownCubeError(f"cube id out of range: {index}")

    def ids(self, collection, size=None):
        """The sorted ids of distinct cubes, ``size`` of them if given: from an iterable of names,
        ids or Cubes, or from a 30-bit mask (any integer but a bool, numpy's integers too).
        A string is one name, not a collection, and raises ValueError."""
        if isinstance(collection, int) or not hasattr(collection, "__iter__"):
            mask = _integer(collection)
            if mask is None:
                raise ValueError(f"not a cube mask: {collection!r}")
            if not 0 <= mask < 1 << 30:
                raise ValueError(f"cube mask out of range: {mask}")
            ids = tuple(i for i in range(30) if mask >> i & 1)
        elif isinstance(collection, str):
            raise ValueError(f"a string is not a cube collection: {collection!r}")
        else:
            ids = tuple(sorted(self.cube(k).id for k in collection))
            if len(set(ids)) != len(ids):
                raise ValueError("collection contains a repeated cube")
        if size is not None and len(ids) != size:
            raise CollectionSizeError(f"expected {size} cubes, got {len(ids)}")
        return ids

    def names(self, collection):
        return tuple(self.cubes[i].name for i in self.ids(collection))

    def mask(self, collection):
        return sum(1 << i for i in self.ids(collection))

    names_of_mask = names    # a mask is a collection too

    def mirror(self, key):
        return self.by_name[mirror_name(self.cube(key).name)]

    def row(self, letter):
        letter = letter.upper()
        return tuple(c for c in self.cubes if c.row == letter)

    def column(self, letter):
        letter = letter.lower()
        return tuple(c for c in self.cubes if c.column == letter)

    def recolor(self, perm, key):
        """The cube obtained by recoloring ``key`` with a color permutation."""
        coloring = recolor_coloring(perm, self.cube(key).coloring)
        try:
            return self.by_coloring[coloring]
        except KeyError:
            raise InvalidColoringError(f"not a color permutation: {perm!r}") from None

    def __iter__(self):
        return iter(self.cubes)

    def __len__(self):
        return len(self.cubes)


def _generate_cube_classes():
    """Canonical coloring -> class size: the rotation orbits of the 720 face bijections.

    Each bijection not yet seen is expanded into its orbit under ROTATIONS,
    keyed by the orbit's least coloring.  An orbit that meets one already
    recorded means ROTATIONS is not a group, and raises TableauBuildError.
    """
    classes = {}
    seen = set()
    for colors in itertools.permutations(COLORS):
        if colors in seen:
            continue
        orbit = {rotate(colors, p) for p in ROTATIONS}
        if not seen.isdisjoint(orbit):
            raise TableauBuildError(f"the rotation orbit of {colors} overlaps another orbit")
        seen |= orbit
        classes[min(orbit)] = len(orbit)
    return classes


def _match_reference(classes):
    """Name each canonical coloring via its corner set."""
    by_set = {frozenset(v): k for k, v in REFERENCE_CORNERS.items()}
    named = {}
    for canon in classes:
        corners = corners_in_read_order(canon)
        name = by_set.get(frozenset(corners))
        if len(set(corners)) != 8 or name is None or name in named:
            raise TableauBuildError(
                f"coloring {canon} matches no unclaimed reference corner set"
            )
        named[name] = (canon, corners)
    return named


def _validate(tableau):
    for kind, letters, line in (("row", ROW_LETTERS, tableau.row), ("column", COLUMN_LETTERS, tableau.column)):
        for letter in letters:
            if len(frozenset().union(*(c.corner_set for c in line(letter)))) != 40:
                raise TableauBuildError(f"{kind} {letter} does not cover all 40 corners")
    for c in tableau:
        m = tableau.mirror(c)
        if frozenset(map(reverse_corner, c.corner_set)) != m.corner_set:
            raise TableauBuildError(f"mirror cubes {c.name}/{m.name} are not reversals")


@lru_cache(maxsize=1)
def build_tableau():
    """Generate the 30 cubes from scratch and bind them to their names.

    The 720 face bijections are split into rotation orbits, one walk over
    them with 24 rotations per new orbit.  The orbits are disjoint, so 30 of
    size 24 partition all 720.  Each class is matched to a reference row by
    its corner set, read clockwise.  A class left unmatched raises
    TableauBuildError.
    """
    classes = _generate_cube_classes()
    sizes = sorted(set(classes.values()))
    if len(classes) != 30 or sizes != [24]:
        raise TableauBuildError(
            f"expected 30 rotation classes of size 24, got {len(classes)} of sizes {sizes}"
        )
    named = _match_reference(classes)
    tableau = Tableau(
        Cube(name=name, id=i, coloring=named[name][0], corners=named[name][1])
        for i, name in enumerate(CUBE_NAMES)
    )
    _validate(tableau)
    return tableau
