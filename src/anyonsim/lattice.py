"""Square-lattice code geometries: torus and bounded planar layouts.

Qubits live on edges.  Vertex stabilizers act with sigma^x on the star of a
vertex, face stabilizers with sigma^z on the boundary of a face.  String
operators run along edge paths: z-strings connect vertices on the lattice,
x-strings connect faces on the dual lattice.

Indexing (row-major, fixed for reproducibility):

torus(N)
    vertex (r, c) -> r*N + c
    face   (r, c) -> r*N + c        (square below-right of vertex (r, c))
    h-edge (r, c) -> r*N + c        (vertex (r, c) to (r, c+1 mod N))
    v-edge (r, c) -> N*N + r*N + c  (vertex (r, c) to (r+1 mod N, c))

planar(d)   rough boundaries left/right, smooth top/bottom
    h-edge (r, c), r,c in 0..d-1        -> r*d + c
    v-edge (r, c), r in 0..d-2, c in 1..d-1 -> d*d + r*(d-1) + (c-1)
    vertex (r, c), r in 0..d-1, c in 1..d-1 -> r*(d-1) + (c-1)
    face   (r, c), r in 0..d-2, c in 0..d-1 -> r*d + c

Horizontal edges h(r, 0) and h(r, d-1) protrude through the rough boundary
(one free end); the top/bottom rows h(0, .) and h(d-1, .) form the smooth
boundary lines.  Boundary stabilizers have weight 3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ._gf2 import gf2_solve
from .errors import ConfigurationError, UsageError

MAX_TORUS = 32
MAX_PLANAR = 7
# echo pulse kinds: global z and x, and the planar boundary masks (echo_mask)
ECHO_KINDS = ("z", "x", "z_e", "z_o", "x_e", "x_o")


@dataclass(frozen=True)
class LatticeSpec:
    """Requested code geometry: ``topology`` in {"torus", "planar"}, linear size."""

    topology: str
    size: int

    def __post_init__(self):
        if self.topology not in ("torus", "planar"):
            raise ConfigurationError(f"unknown lattice topology {self.topology!r}")
        if self.size < 2:
            raise ConfigurationError("lattice size must be >= 2")


@dataclass(frozen=True)
class StringPath:
    """An edge path carrying a string operator.

    kind "z": path on the lattice (between vertices);
    kind "x": path on the dual lattice (between faces).
    ``edges`` is an ordered chain for freshly constructed paths; after
    deformation it is simply the operator's support (set semantics).
    """

    kind: str
    edges: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("z", "x"):
            raise UsageError(f"string kind must be 'z' or 'x', got {self.kind!r}")

    @property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Lattice:
    """Immutable incidence data for a built code lattice."""

    spec: LatticeSpec
    n_edges: int
    n_vertices: int
    n_faces: int
    stars: tuple[tuple[int, ...], ...]        # vertex id -> incident edges
    boundaries: tuple[tuple[int, ...], ...]   # face id -> bounding edges
    edge_vertices: tuple[tuple[int | None, int | None], ...]
    edge_faces: tuple[tuple[int | None, int | None], ...]
    boundary_classes: dict[str, frozenset[int]] = field(default_factory=dict)
    _graphs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def is_torus(self) -> bool:
        return self.spec.topology == "torus"

    @property
    def size(self) -> int:
        return self.spec.size

    def star(self, v: int) -> tuple[int, ...]:
        return self.stars[v]

    def boundary(self, f: int) -> tuple[int, ...]:
        return self.boundaries[f]

    def cell_graph(self, kind: str) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Adjacency of the vertices (kind z) or faces (kind x), built once.

        Node -> ((edge, other node), ...) sorted by edge id.  The last node
        stands for the boundary: an edge with a free end joins its cell to
        it (a torus leaves it without edges).
        """
        graph = self._graphs.get(kind)
        if graph is None:
            if kind == "z":
                n_cells, ends = self.n_vertices, self.edge_vertices
            elif kind == "x":
                n_cells, ends = self.n_faces, self.edge_faces
            else:
                raise UsageError(f"string kind must be 'z' or 'x', got {kind!r}")
            incident: list[list[tuple[int, int]]] = [[] for _ in range(n_cells + 1)]
            for e, (u, w) in enumerate(ends):
                u = n_cells if u is None else u
                w = n_cells if w is None else w
                incident[u].append((e, w))
                if w != u:
                    incident[w].append((e, u))
            graph = self._graphs[kind] = tuple(map(tuple, incident))
        return graph

    def describe(self) -> str:
        """Plain-text dump: edge id -> incident vertex ids, face ids."""
        lines = [
            f"# {self.spec.topology}({self.size}): "
            f"{self.n_edges} edges, {self.n_vertices} vertices, {self.n_faces} faces"
        ]
        for e in range(self.n_edges):
            vs = "/".join("-" if v is None else str(v) for v in self.edge_vertices[e])
            fs = "/".join("-" if f is None else str(f) for f in self.edge_faces[e])
            lines.append(f"edge {e}: vertices {vs} faces {fs}")
        return "\n".join(lines)


def build_lattice(spec: LatticeSpec) -> Lattice:
    """Construct the incidence structure for a torus or planar code."""
    if spec.topology == "torus":
        if spec.size > MAX_TORUS:
            raise ConfigurationError(
                f"lattice torus:{spec.size} exceeds the maximum torus size {MAX_TORUS}")
        return _build_torus(spec)
    if spec.size > MAX_PLANAR:
        raise ConfigurationError(
            f"lattice planar:{spec.size} exceeds the maximum distance {MAX_PLANAR}")
    return _build_planar(spec)


def torus(n: int) -> Lattice:
    return build_lattice(LatticeSpec("torus", n))


def planar(d: int) -> Lattice:
    return build_lattice(LatticeSpec("planar", d))


def _build_torus(spec: LatticeSpec) -> Lattice:
    n = spec.size
    nn = n * n

    def h(r, c):
        return (r % n) * n + (c % n)

    def v(r, c):
        return nn + (r % n) * n + (c % n)

    stars = []
    for r in range(n):
        for c in range(n):
            stars.append((h(r, c), h(r, c - 1), v(r, c), v(r - 1, c)))
    boundaries = []
    for r in range(n):
        for c in range(n):
            boundaries.append((h(r, c), h(r + 1, c), v(r, c), v(r, c + 1)))

    edge_vertices: list[tuple[int | None, int | None]] = [None] * (2 * nn)  # type: ignore
    edge_faces: list[tuple[int | None, int | None]] = [None] * (2 * nn)  # type: ignore
    for r in range(n):
        for c in range(n):
            edge_vertices[h(r, c)] = (r * n + c, r * n + (c + 1) % n)
            edge_faces[h(r, c)] = (((r - 1) % n) * n + c, r * n + c)
            edge_vertices[v(r, c)] = (r * n + c, ((r + 1) % n) * n + c)
            edge_faces[v(r, c)] = (r * n + (c - 1) % n, r * n + c)

    return Lattice(spec, 2 * nn, nn, nn, tuple(stars), tuple(boundaries),
                   tuple(edge_vertices), tuple(edge_faces))


def _build_planar(spec: LatticeSpec) -> Lattice:
    d = spec.size

    def h(r, c):
        return r * d + c

    def v(r, c):
        return d * d + r * (d - 1) + (c - 1)

    def vid(r, c):  # vertex id, c in 1..d-1
        return r * (d - 1) + (c - 1)

    def fid(r, c):  # face id, r in 0..d-2
        return r * d + c

    n_edges = d * d + (d - 1) * (d - 1)
    n_vertices = d * (d - 1)
    n_faces = d * (d - 1)

    stars = []
    for r in range(d):
        for c in range(1, d):
            s = [h(r, c - 1), h(r, c)]
            if r > 0:
                s.append(v(r - 1, c))
            if r < d - 1:
                s.append(v(r, c))
            stars.append(tuple(sorted(s)))

    boundaries = []
    for r in range(d - 1):
        for c in range(d):
            b = [h(r, c), h(r + 1, c)]
            if c > 0:
                b.append(v(r, c))
            if c < d - 1:
                b.append(v(r, c + 1))
            boundaries.append(tuple(sorted(b)))

    edge_vertices: list[tuple[int | None, int | None]] = []
    edge_faces: list[tuple[int | None, int | None]] = []
    for r in range(d):
        for c in range(d):
            left = vid(r, c) if c >= 1 else None
            right = vid(r, c + 1) if c + 1 <= d - 1 else None
            edge_vertices.append((left, right))
            above = fid(r - 1, c) if r - 1 >= 0 else None
            below = fid(r, c) if r <= d - 2 else None
            edge_faces.append((above, below))
    for r in range(d - 1):
        for c in range(1, d):
            edge_vertices.append((vid(r, c), vid(r + 1, c)))
            edge_faces.append((fid(r, c - 1), fid(r, c)))

    # Boundary edge classes.  Protruding (rough) edges are classed by row
    # parity; the remaining smooth-line edges by column parity.  The four
    # corner edges are both protruding and on the smooth line; they are
    # assigned to the rough classes so the classes stay disjoint (echo masks
    # treat them by geometry, see echo_mask).
    even_rough, odd_rough, even_smooth, odd_smooth = set(), set(), set(), set()
    for r in range(d):
        for c in (0, d - 1):
            (even_rough if r % 2 == 0 else odd_rough).add(h(r, c))
    for r in (0, d - 1):
        for c in range(1, d - 1):
            (even_smooth if c % 2 == 0 else odd_smooth).add(h(r, c))
    classes = {
        "even_rough": frozenset(even_rough),
        "odd_rough": frozenset(odd_rough),
        "even_smooth": frozenset(even_smooth),
        "odd_smooth": frozenset(odd_smooth),
    }

    return Lattice(spec, n_edges, n_vertices, n_faces, tuple(stars),
                   tuple(boundaries), tuple(edge_vertices), tuple(edge_faces),
                   classes)


def echo_mask(lattice: Lattice, kind: str) -> frozenset[int]:
    """Edge support of a global or boundary-masked echo pulse.

    Kinds (ECHO_KINDS): "z" and "x" act on every edge.  On planar lattices
    the boundary variants "z_e"/"z_o" drop the smooth-line edges
    (top/bottom rows, corners included) of odd/even column, and "x_e"/"x_o"
    drop the protruding rough edges of odd/even row.  Each masked pulse commutes
    with every stabilizer of the code.
    """
    if kind not in ECHO_KINDS:
        raise UsageError(f"unknown echo pulse kind {kind!r}")
    all_edges = frozenset(range(lattice.n_edges))
    if kind in ("z", "x"):
        return all_edges
    if lattice.is_torus:
        raise UsageError("boundary-masked echo pulses need a planar lattice")
    d = lattice.size

    def h(r, c):
        return r * d + c

    if kind in ("x_e", "x_o"):
        drop_parity = 1 if kind == "x_e" else 0  # x_e drops odd rough rows
        dropped = {h(r, c) for r in range(d) for c in (0, d - 1)
                   if r % 2 == drop_parity}
    else:
        drop_parity = 1 if kind == "z_e" else 0  # z_e drops odd smooth columns
        dropped = {h(r, c) for r in (0, d - 1) for c in range(d)
                   if c % 2 == drop_parity}
    return all_edges - dropped


def shortest_string(lattice: Lattice, kind: str, a: int, b: int) -> StringPath:
    """Minimal connected string between two vertices (z) or faces (x).

    Breadth-first search on the (dual) adjacency graph; when several minimal
    paths exist the walk back picks the lowest edge index at each hop.
    a == b yields the empty path (identity operator).
    """
    graph = lattice.cell_graph(kind)
    _check_cell(graph, kind, a)
    _check_cell(graph, kind, b)
    if a == b:
        return StringPath(kind, ())
    dist = _bfs(graph, a)
    if dist[b] < 0:
        raise UsageError("endpoints are not connected")
    return StringPath(kind, _walk(graph, dist, b)[::-1])


def string_to_boundary(lattice: Lattice, kind: str, a: int) -> StringPath:
    """Minimal string from a vertex (z) or face (x) out through the boundary.

    z-strings exit through the rough boundary, x-strings through the smooth
    one.  Planar lattices only.
    """
    if lattice.is_torus:
        raise UsageError("a torus has no boundary")
    graph = lattice.cell_graph(kind)
    _check_cell(graph, kind, a)
    dist = _bfs(graph, len(graph) - 1)
    if dist[a] < 0:
        raise UsageError("no boundary reachable")
    return StringPath(kind, _walk(graph, dist, a))


def _check_cell(graph, kind, cell):
    if not 0 <= cell < len(graph) - 1:
        raise UsageError(f"invalid {kind}-string endpoint")


def _bfs(graph, source):
    """Hop distance from ``source`` to every node, -1 if unreachable.  The
    boundary node (the last one) is only ever a source, never a way through."""
    boundary = len(graph) - 1
    dist = [-1] * len(graph)
    dist[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for _, other in graph[node]:
            if dist[other] < 0 and other != boundary:
                dist[other] = dist[node] + 1
                queue.append(other)
    return dist


def _walk(graph, dist, node):
    """Edges from ``node`` down the distances to the BFS source, taking the
    lowest edge id at each hop."""
    edges = []
    while dist[node] > 0:
        step = dist[node] - 1
        e, node = next((e, other) for e, other in graph[node] if dist[other] == step)
        edges.append(e)
    return tuple(edges)


def deform_string(path: StringPath, stabilizer_support) -> StringPath:
    """Deform a string by a stabilizer: symmetric difference of edge sets.

    z-strings deform by face boundaries, x-strings by vertex stars (pass the
    support, e.g. ``lattice.boundary(f)``).  The result carries set semantics
    (sorted edge order).
    """
    support = frozenset(stabilizer_support)
    return StringPath(path.kind, tuple(sorted(path.edge_set ^ support)))


def crossing_parity(zpath: StringPath, xpath: StringPath) -> int:
    """Parity (0 even, 1 odd) of the number of shared edges."""
    if zpath.kind == xpath.kind:
        raise UsageError("crossing parity needs one z-string and one x-string")
    return len(zpath.edge_set & xpath.edge_set) % 2


def logical_operators(lattice: Lattice) -> list[tuple[StringPath, StringPath]]:
    """Logical (C_Z, C_X) string pairs.

    Planar: one pair; C_Z spans rough-to-rough along the central row, C_X
    spans smooth-to-smooth along the central column.  Torus: two pairs of
    non-contractible loops; pair 1 has the horizontal z-loop, pair 2 the
    vertical one.
    """
    n = lattice.size
    if lattice.is_torus:
        h = lambda r, c: r * n + c
        v = lambda r, c: n * n + r * n + c
        z1 = StringPath("z", tuple(h(0, c) for c in range(n)))
        x1 = StringPath("x", tuple(h(r, 0) for r in range(n)))
        z2 = StringPath("z", tuple(v(r, 0) for r in range(n)))
        x2 = StringPath("x", tuple(v(0, c) for c in range(n)))
        return [(z1, x1), (z2, x2)]
    d = n
    row = (d - 1) // 2
    col = (d - 1) // 2
    cz = StringPath("z", tuple(row * d + c for c in range(d)))
    cx = StringPath("x", tuple(r * d + col for r in range(d)))
    return [(cz, cx)]


def degeneracy(genus: int, holes: int) -> int:
    """Ground-space dimension 2**(2g + h)."""
    if genus < 0 or holes < 0:
        raise UsageError("genus and holes must be non-negative")
    return 2 ** (2 * genus + holes)


def enclosed_region(lattice: Lattice, path: StringPath) -> frozenset[int]:
    """Cells enclosed by a closed string: faces for a z-loop, vertices for x.

    Solves boundary(region) = path over GF(2).  On a torus the two
    complementary solutions are both valid; the smaller one is returned
    (ties broken toward the region not containing cell 0).
    """
    if path.kind == "z":
        supports = lattice.boundaries
        n_cells = lattice.n_faces
    else:
        supports = lattice.stars
        n_cells = lattice.n_vertices
    mat = np.zeros((lattice.n_edges, n_cells), dtype=np.uint8)
    for cell, edges in enumerate(supports):
        for e in edges:
            mat[e, cell] ^= 1
    rhs = np.zeros(lattice.n_edges, dtype=np.uint8)
    for e in path.edge_set:
        rhs[e] = 1
    sol = gf2_solve(mat, rhs)
    if sol is None:
        raise UsageError("path is not the boundary of any cell region")
    region = frozenset(np.nonzero(sol)[0].tolist())
    if lattice.is_torus:
        complement = frozenset(range(n_cells)) - region
        if (len(complement), 0 in region) < (len(region), 0 in complement):
            region = complement
    return region
