"""Square-lattice code geometries: torus and bounded planar layouts.

Qubits live on edges.  Vertex stabilizers act with sigma^x on the star of a
vertex, face stabilizers with sigma^z on the boundary of a face.  String
operators run along edge paths: z-strings connect vertices on the lattice,
x-strings connect faces on the dual lattice.

Indexing (row-major, fixed for reproducibility; ``index_maps`` is its one
implementation, and each builder writes only the edge ends from it, so the
stars and face boundaries are derived):

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

from .errors import ConfigurationError, UsageError, require

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
        require(self.size, "lattice size", integer=True, ge=2, error=ConfigurationError)


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
    stars: tuple[tuple[int, ...], ...]        # vertex id -> incident edges, sorted
    boundaries: tuple[tuple[int, ...], ...]   # face id -> bounding edges, sorted
    edge_vertices: tuple[tuple[int | None, int | None], ...]
    edge_faces: tuple[tuple[int | None, int | None], ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def memo(self, key, build):
        """``build()``, computed once per lattice and ``key``: data derived
        from the geometry alone (cell graphs, logical strings, echo strings and
        their anyons).  Callers share the value, so it must not be mutated."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def cell_graph(self, kind: str) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Adjacency of the vertices (kind z) or faces (kind x), built once.

        Node -> ((edge, other node), ...) sorted by edge id.  The last node
        stands for the boundary: an edge with a free end joins its cell to
        it (a torus leaves it without edges).
        """
        if kind == "z":
            n_cells, ends = self.n_vertices, self.edge_vertices
        elif kind == "x":
            n_cells, ends = self.n_faces, self.edge_faces
        else:
            raise UsageError(f"string kind must be 'z' or 'x', got {kind!r}")

        def build():
            incident: list[list[tuple[int, int]]] = [[] for _ in range(n_cells + 1)]
            for e, (u, w) in enumerate(ends):
                u = n_cells if u is None else u
                w = n_cells if w is None else w
                incident[u].append((e, w))
                if w != u:
                    incident[w].append((e, u))
            # from a sized list, as in the incidence helper below
            return tuple([tuple(c) for c in incident])

        return self.memo(("cell_graph", kind), build)


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


def index_maps(spec: LatticeSpec):
    """The (h-edge, v-edge, vertex, face) id functions of (r, c).

    They follow the table in the module docstring, the one statement of the
    convention; the torus ones wrap r and c mod N.
    """
    n = spec.size
    if spec.topology == "torus":
        nn = n * n

        def cell(r, c):
            return (r % n) * n + c % n

        def v_edge(r, c):
            return nn + (r % n) * n + c % n

        return cell, v_edge, cell, cell
    m = n - 1

    def h_edge(r, c):
        return r * n + c

    def v_edge(r, c):
        return n * n + r * m + c - 1

    def vertex(r, c):
        return r * m + c - 1

    return h_edge, v_edge, vertex, h_edge


def _build_torus(spec: LatticeSpec) -> Lattice:
    n = spec.size
    h, v, vertex, face = index_maps(spec)
    edge_vertices: list = [None] * (2 * n * n)
    edge_faces: list = [None] * (2 * n * n)
    for r in range(n):
        for c in range(n):
            eh, ev, u, f = h(r, c), v(r, c), vertex(r, c), face(r, c)
            edge_vertices[eh] = (u, vertex(r, c + 1))
            edge_faces[eh] = (face(r - 1, c), f)
            edge_vertices[ev] = (u, vertex(r + 1, c))
            edge_faces[ev] = (face(r, c - 1), f)
    return _from_edge_ends(spec, n * n, n * n, edge_vertices, edge_faces)


def _build_planar(spec: LatticeSpec) -> Lattice:
    d = spec.size
    h, v, vertex, face = index_maps(spec)
    n_edges = d * d + (d - 1) * (d - 1)
    edge_vertices: list = [None] * n_edges
    edge_faces: list = [None] * n_edges
    for r in range(d):
        for c in range(d):
            edge_vertices[h(r, c)] = (vertex(r, c) if c > 0 else None,
                                      vertex(r, c + 1) if c < d - 1 else None)
            edge_faces[h(r, c)] = (face(r - 1, c) if r > 0 else None,
                                   face(r, c) if r < d - 1 else None)
    for r in range(d - 1):
        for c in range(1, d):
            edge_vertices[v(r, c)] = (vertex(r, c), vertex(r + 1, c))
            edge_faces[v(r, c)] = (face(r, c - 1), face(r, c))
    return _from_edge_ends(spec, d * (d - 1), d * (d - 1), edge_vertices, edge_faces)


def _from_edge_ends(spec, n_vertices, n_faces, edge_vertices, edge_faces) -> Lattice:
    """The lattice whose stars and face boundaries are the edges having that
    vertex or face as an end, in edge order (free ends belong to no cell)."""

    def incidence(n_cells, ends):
        cells: list[list[int]] = [[] for _ in range(n_cells)]
        for e, pair in enumerate(ends):
            for cell in pair:
                if cell is not None:
                    cells[cell].append(e)
        # from a sized list, so the tuple is drawn from CPython's free list; a
        # tuple grown from an iterator is not, and would fill that list
        return tuple([tuple(c) for c in cells])

    return Lattice(spec, len(edge_vertices), n_vertices, n_faces,
                   incidence(n_vertices, edge_vertices), incidence(n_faces, edge_faces),
                   tuple(edge_vertices), tuple(edge_faces))


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
    h, _, _, _ = index_maps(lattice.spec)
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
    _check_cell(graph, kind, "a", a)
    _check_cell(graph, kind, "b", b)
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
    _check_cell(graph, kind, "a", a)
    dist = _bfs(graph, len(graph) - 1)
    if dist[a] < 0:
        raise UsageError("no boundary reachable")
    return StringPath(kind, _walk(graph, dist, a))


def _check_cell(graph, kind, name, cell):
    require(cell, f"invalid {kind}-string endpoint {name}", integer=True, ge=0,
            le=len(graph) - 2)


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
    h, v, _, _ = index_maps(lattice.spec)
    if lattice.is_torus:
        z1 = StringPath("z", tuple(h(0, c) for c in range(n)))
        x1 = StringPath("x", tuple(h(r, 0) for r in range(n)))
        z2 = StringPath("z", tuple(v(r, 0) for r in range(n)))
        x2 = StringPath("x", tuple(v(0, c) for c in range(n)))
        return [(z1, x1), (z2, x2)]
    mid = (n - 1) // 2
    cz = StringPath("z", tuple(h(mid, c) for c in range(n)))
    cx = StringPath("x", tuple(h(r, mid) for r in range(n)))
    return [(cz, cx)]


def degeneracy(genus: int, holes: int) -> int:
    """Ground-space dimension 2**(2g + h)."""
    require(genus, "genus", integer=True, ge=0)
    require(holes, "holes", integer=True, ge=0)
    return 2 ** (2 * genus + holes)
