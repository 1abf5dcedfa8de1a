"""Square-tiled surfaces from Belavin-Drinfeld structures.

n unit squares indexed by {0,..,n-1}; the right edge of square i is glued to
the left edge of c1(i) and the bottom edge of i to the top edge of c2(i).
Corner points of the squares descend to the branch points of the completed
surface over the torus corner; their orbits are computed by walking corners
around each vertex and cross-checked against the cycles of [c1, c2].
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import ABDStructure, commutator, cycles, inverse, validate_abd

# corner labels within one square
BR, TR, TL, BL = 0, 1, 2, 3


@dataclass(frozen=True)
class PunctureOrbit:
    squares: tuple       # one commutator cycle, listed from its smallest element
    corners: tuple       # the (square, corner) pairs glued into this vertex
    filled: bool

    @property
    def index(self) -> int:
        """Ramification index: the length of the commutator cycle."""
        return len(self.squares)


@dataclass(frozen=True)
class SquareTiledSurface:
    abd: ABDStructure
    orbits: tuple

    @property
    def n(self) -> int:
        return self.abd.n


def _corner_walk(abd: ABDStructure):
    """Group the 4n square corners into vertex orbits.

    Around a vertex the four gluings identify, in rotational order,
    BR --c2--> TR --c1--> TL --c2^-1--> BL --c1^-1--> BR of the next square.
    """
    c1, c2 = abd.c1, abd.c2
    c1_inv, c2_inv = inverse(c1), inverse(c2)

    def step(square, corner):
        if corner == BR:
            return c2(square), TR
        if corner == TR:
            return c1(square), TL
        if corner == TL:
            return c2_inv(square), BL
        return c1_inv(square), BR

    seen = set()
    orbits = []
    for s in range(abd.n):
        if (s, BR) in seen:
            continue
        orbit = []
        cur = (s, BR)
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = step(*cur)
        orbits.append(tuple(orbit))
    return orbits


def build_surface(abd: ABDStructure) -> SquareTiledSurface:
    problems = validate_abd(abd)
    if problems:
        raise ValueError("invalid structure: " + "; ".join(problems))
    walk_orbits = _corner_walk(abd)
    comm = cycles(commutator(abd.c1, abd.c2))
    # the BR corners of a vertex orbit trace exactly one commutator cycle
    by_squares = {}
    for orbit in walk_orbits:
        brs = tuple(sq for sq, c in orbit if c == BR)
        by_squares[frozenset(brs)] = orbit
    filled = set(abd.a)
    out = []
    for cyc in comm:
        key = frozenset(cyc)
        if key not in by_squares:
            raise AssertionError(
                "corner walk disagrees with the commutator cycles at %r" % (cyc,)
            )
        orbit = by_squares[key]
        is_filled = len(cyc) == 1 and cyc[0] in filled
        out.append(PunctureOrbit(squares=tuple(cyc), corners=orbit, filled=is_filled))
    if len(out) != len(walk_orbits):
        raise AssertionError("corner walk produced extra vertex orbits")
    return SquareTiledSurface(abd=abd, orbits=tuple(out))


@dataclass(frozen=True)
class PunctureReport:
    b: int
    b_k: dict
    fixed_point_punctures: tuple   # squares labelling the e=1 punctures
    ramification: dict             # smallest square of each orbit -> index


def puncture_analysis(s: SquareTiledSurface) -> PunctureReport:
    b_k = {}
    ram = {}
    fixed = []
    for orb in s.orbits:
        e = orb.index
        b_k[e] = b_k.get(e, 0) + 1
        ram[min(orb.squares)] = e
        if e == 1:
            fixed.append(orb.squares[0])
    return PunctureReport(
        b=len(s.orbits),
        b_k=b_k,
        fixed_point_punctures=tuple(sorted(fixed)),
        ramification=ram,
    )


@dataclass(frozen=True)
class TopologyReport:
    chi: int
    genus: int
    b: int
    connected: bool


def topological_invariants(s: SquareTiledSurface) -> TopologyReport:
    n = s.n
    b = len(s.orbits)
    chi = -n
    # 2 - 2g - b = -n
    genus2 = 2 + n - b
    if genus2 % 2:
        raise AssertionError("odd 2g from chi/puncture count; gluing bug")
    # connected iff <c1, c2> acts transitively (forced here since c1 is an n-cycle)
    reach = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for y in (s.abd.c1(x), s.abd.c2(x)):
            if y not in reach:
                reach.add(y)
                frontier.append(y)
    return TopologyReport(chi=chi, genus=genus2 // 2, b=b, connected=len(reach) == n)


def euler_characteristic(s: SquareTiledSurface):
    """chi = V - E + F = b - 2n + n of the closed surface, or None unless the
    corner walk is a cell structure: a vertex orbit of index e holds exactly
    4e corners, and the orbits hold all 4n."""
    n = s.n
    corners = [len(orb.corners) for orb in s.orbits]
    if sum(corners) != 4 * n or any(c != 4 * orb.index for c, orb in zip(corners, s.orbits)):
        return None
    return len(s.orbits) - 2 * n + n


def polygon_sides(s: SquareTiledSurface, orbit: PunctureOrbit) -> int:
    """Number of sides of the polygon cut out around this puncture by the two
    multicurves through the square centers.

    Walks the polygon boundary quarter-square by quarter-square.  Each quarter
    has one vertical and one horizontal half-side on the cut; crossing a glued
    square edge joins two collinear half-sides of the same family into one
    side, and the joint between the V and the H half-side of a single quarter
    is a polygon corner (at that square's center).  The walk checks the
    family alternation at every crossing.
    """
    # crossing after a BR quarter merges vertical half-sides, after TR
    # horizontal, after TL vertical, after BL horizontal; the two half-sides
    # of a merge belong to consecutive quarters in the rotation order
    next_corner = {BR: TR, TR: TL, TL: BL, BL: BR}
    sides = 0
    quarters = orbit.corners
    for t, (sq, corner) in enumerate(quarters):
        sides += 1  # the side completed at this quarter's center corner
        nxt = quarters[(t + 1) % len(quarters)]
        if nxt[1] != next_corner[corner]:
            raise AssertionError("boundary walk left the rotation order")
    return sides


@dataclass(frozen=True)
class FillReport:
    punctures_before: int
    punctures_after: int
    genus: int
    filled: tuple


def fill_punctures(s: SquareTiledSurface, a) -> FillReport:
    """Partial compactification filling the punctures selected by ``a``.

    Every element of ``a`` must label an unramified (index 1) puncture.
    """
    a = tuple(sorted(set(a)))
    report = puncture_analysis(s)
    fixed = set(report.fixed_point_punctures)
    bad = [x for x in a if x not in fixed]
    if bad:
        raise ValueError(
            "cannot fill ramified or unknown punctures at %s"
            % "{" + ",".join(str(x + 1) for x in bad) + "}"
        )
    topo = topological_invariants(s)
    return FillReport(
        punctures_before=report.b,
        punctures_after=report.b - len(a),
        genus=topo.genus,
        filled=a,
    )


def surface_summary(s: SquareTiledSurface) -> dict:
    """The JSON shape emitted by the ``surface`` CLI command (0-based indices)."""
    rep = puncture_analysis(s)
    topo = topological_invariants(s)
    return {
        "b": rep.b,
        "b_k": {str(k): v for k, v in sorted(rep.b_k.items())},
        "chi": topo.chi,
        "genus": topo.genus,
        "fillable": list(rep.fixed_point_punctures),
        "connected": topo.connected,
    }
