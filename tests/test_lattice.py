import networkx as nx
import numpy as np
import pytest

from anyonsim import lattice as lat
from anyonsim.errors import ConfigurationError, UsageError
from anyonsim.pauli import PauliString, commutation_phase, from_string_path


def test_torus_counts():
    t2 = lat.torus(2)
    assert (t2.n_edges, t2.n_vertices, t2.n_faces) == (8, 4, 4)
    for n in (2, 3, 4, 5):
        t = lat.torus(n)
        assert t.n_edges == 2 * n * n
        assert t.n_vertices == n * n
        assert t.n_faces == n * n


def test_planar_counts():
    p2 = lat.planar(2)
    assert p2.n_edges == 5
    assert p2.n_vertices == 2 and p2.n_faces == 2
    for d in (2, 3, 4, 5):
        p = lat.planar(d)
        assert p.n_edges == d * d + (d - 1) * (d - 1)
        assert p.n_vertices == d * (d - 1)
        assert p.n_faces == d * (d - 1)
        # one logical qubit: edges - independent stabilizers = 1
        assert p.n_edges - p.n_vertices - p.n_faces == 1


def _gf2_rank(rows):
    """Rank over GF(2) of rows given as integer bitmasks."""
    pivots = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def test_torus4_independent_stabilizers_and_degeneracy():
    t = lat.torus(4)
    # x bits of a star on bits 0..n_edges-1, z bits of a face above them
    rows = [sum(1 << e for e in t.star(v)) for v in range(t.n_vertices)]
    rows += [sum(1 << (t.n_edges + e) for e in t.boundary(f)) for f in range(t.n_faces)]
    rank = _gf2_rank(rows)
    assert rank == 2 * 16 - 2 == 30
    assert t.n_edges - rank == 2  # two logical qubits -> degeneracy 4


def test_stabilizers_commute_everywhere():
    for lattice in (lat.torus(2), lat.torus(4), lat.planar(2), lat.planar(4)):
        for v in range(lattice.n_vertices):
            star = set(lattice.star(v))
            for f in range(lattice.n_faces):
                assert len(star & set(lattice.boundary(f))) % 2 == 0


def test_weight_profile():
    p = lat.planar(3)
    weights_v = sorted(len(p.star(v)) for v in range(p.n_vertices))
    weights_f = sorted(len(p.boundary(f)) for f in range(p.n_faces))
    # smooth top/bottom rows give weight-3 stars, rough columns weight-3 faces
    assert weights_v == [3, 3, 3, 3, 4, 4]
    assert weights_f == [3, 3, 3, 3, 4, 4]
    t = lat.torus(3)
    assert all(len(t.star(v)) == 4 for v in range(t.n_vertices))
    assert all(len(t.boundary(f)) == 4 for f in range(t.n_faces))


def _nx_graph(lattice, kind):
    pairs = lattice.edge_vertices if kind == "z" else lattice.edge_faces
    g = nx.MultiGraph()
    g.add_nodes_from(range(lattice.n_vertices if kind == "z" else lattice.n_faces))
    for e in range(lattice.n_edges):
        a, b = pairs[e]
        if a is not None and b is not None:
            g.add_edge(a, b, key=e)
    return g


@pytest.mark.parametrize("lattice,kind", [
    (lat.torus(5), "z"), (lat.torus(5), "x"),
    (lat.planar(4), "z"), (lat.planar(4), "x"),
    (lat.torus(2), "z"), (lat.torus(2), "x"),  # parallel edges
])
def test_shortest_string_matches_bfs_oracle(lattice, kind):
    g = _nx_graph(lattice, kind)
    n_nodes = g.number_of_nodes()
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = [int(v) for v in rng.integers(n_nodes, size=2)]
        path = lat.shortest_string(lattice, kind, a, b)
        assert len(path) == nx.shortest_path_length(g, a, b)
        # chain property: consecutive edges share a node
        pairs = lattice.edge_vertices if kind == "z" else lattice.edge_faces
        for e1, e2 in zip(path.edges, path.edges[1:]):
            assert set(pairs[e1]) & set(pairs[e2])


def test_shortest_string_basics(torus4):
    assert len(lat.shortest_string(torus4, "x", 0, 1)) == 1  # adjacent faces
    empty = lat.shortest_string(torus4, "z", 3, 3)
    assert empty.edges == ()
    assert len(lat.shortest_string(torus4, "x", 0, 2 * 4 + 2)) == 4
    # deterministic across calls
    p1 = lat.shortest_string(torus4, "z", 0, 10)
    p2 = lat.shortest_string(torus4, "z", 0, 10)
    assert p1.edges == p2.edges
    # among minimal paths, each hop walking back from b takes the lowest edge id
    assert lat.shortest_string(torus4, "z", 0, 5).edges == (16, 4)
    assert lat.shortest_string(torus4, "x", 0, 10).edges == (17, 18, 6, 10)
    # one cell graph per kind, kept on the lattice; any other kind is refused
    assert torus4.cell_graph("z") is torus4.cell_graph("z")
    with pytest.raises(UsageError, match="string kind must be 'z' or 'x'"):
        torus4.cell_graph("y")


def test_string_to_boundary():
    p = lat.planar(3)
    path = lat.string_to_boundary(p, "z", 2)  # vertex (1, 1)
    ps = from_string_path(path)
    flips = [v for v in range(p.n_vertices)
             if commutation_phase(ps, PauliString.x_on(p.star(v))) == -1]
    assert flips == [2]
    with pytest.raises(UsageError):
        lat.string_to_boundary(lat.torus(3), "z", 0)
    assert lat.string_to_boundary(lat.planar(4), "x", 5).edges == (5, 1)
    for cell in (-1, p.n_vertices):
        with pytest.raises(UsageError, match="invalid z-string endpoint"):
            lat.string_to_boundary(p, "z", cell)
    # a non-integer endpoint is named, not a bare TypeError
    for read in (lambda c: lat.string_to_boundary(p, "z", c),
                 lambda c: lat.shortest_string(p, "z", c, 0),
                 lambda c: lat.shortest_string(lat.torus(4), "z", 0, c)):
        with pytest.raises(UsageError, match=r"endpoint [ab] must be an integer"):
            read(1.5)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["z", "x"])
def test_string_to_boundary_matches_bfs_oracle(d, kind):
    p = lat.planar(d)
    g = _nx_graph(p, kind)
    ends = p.edge_vertices if kind == "z" else p.edge_faces
    for e, (a, b) in enumerate(ends):
        if (a is None) != (b is None):
            g.add_edge("boundary", a if b is None else b, key=e)
    cells = p.stars if kind == "z" else p.boundaries
    stabilizer = PauliString.x_on if kind == "z" else PauliString.z_on
    for a in range(len(cells)):
        path = lat.string_to_boundary(p, kind, a)
        assert len(path) == nx.shortest_path_length(g, a, "boundary")
        for e1, e2 in zip(path.edges, path.edges[1:]):
            assert (set(ends[e1]) & set(ends[e2])) - {None}
        ps = from_string_path(path)
        flips = [c for c, support in enumerate(cells)
                 if commutation_phase(ps, stabilizer(support)) == -1]
        assert flips == [a]


def test_deform_string(torus4):
    path = lat.shortest_string(torus4, "x", 0, 5)
    support = torus4.star(3)
    twice = lat.deform_string(lat.deform_string(path, support), support)
    assert twice.edge_set == path.edge_set
    empty = lat.StringPath("z", ())
    loop = lat.deform_string(empty, torus4.boundary(7))
    assert loop.edge_set == frozenset(torus4.boundary(7))


def test_random_deformations_preserve_logical_algebra(torus4):
    (cz, cx), _ = lat.logical_operators(torus4)
    rng = np.random.default_rng(1)
    path = cz
    for _ in range(20):
        path = lat.deform_string(path, torus4.boundary(int(rng.integers(16))))
    p = from_string_path(path)
    for v in range(torus4.n_vertices):
        assert commutation_phase(p, PauliString.x_on(torus4.star(v))) == 1
    for f in range(torus4.n_faces):
        assert commutation_phase(p, PauliString.z_on(torus4.boundary(f))) == 1
    assert commutation_phase(p, from_string_path(cx)) == -1


def test_crossing_parity_matches_commutation(torus4):
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c, d = rng.integers(16, size=4)
        zp = lat.shortest_string(torus4, "z", int(a), int(b))
        xp = lat.shortest_string(torus4, "x", int(c), int(d))
        parity = lat.crossing_parity(zp, xp)
        com = commutation_phase(from_string_path(zp), from_string_path(xp))
        assert (parity == 1) == (com == -1)
    with pytest.raises(UsageError):
        lat.crossing_parity(zp, zp)


def test_logical_operators_planar2(planar2):
    (cz, cx), = lat.logical_operators(planar2)
    assert len(cz) == 2 and len(cx) == 2
    assert lat.crossing_parity(cz, cx) == 1
    pz, px = from_string_path(cz), from_string_path(cx)
    for v in range(planar2.n_vertices):
        assert commutation_phase(pz, PauliString.x_on(planar2.star(v))) == 1
        assert commutation_phase(px, PauliString.x_on(planar2.star(v))) == 1
    for f in range(planar2.n_faces):
        assert commutation_phase(pz, PauliString.z_on(planar2.boundary(f))) == 1
        assert commutation_phase(px, PauliString.z_on(planar2.boundary(f))) == 1
    assert commutation_phase(pz, px) == -1


def test_logical_operators_torus2_and_planar3():
    pairs = lat.logical_operators(lat.torus(2))
    assert len(pairs) == 2
    for cz, cx in pairs:
        assert len(cz) == 2 and len(cx) == 2
        assert lat.crossing_parity(cz, cx) == 1
    (z1, x1), (z2, x2) = pairs
    assert lat.crossing_parity(z1, x2) == 0
    assert lat.crossing_parity(z2, x1) == 0
    (cz, cx), = lat.logical_operators(lat.planar(3))
    assert len(cz) == 3 and len(cx) == 3  # minimal length = memory exponent


def test_degeneracy():
    assert lat.degeneracy(0, 0) == 1
    assert lat.degeneracy(1, 0) == 4
    assert lat.degeneracy(0, 1) == 2
    assert lat.degeneracy(2, 3) == 2 ** 7
    with pytest.raises(UsageError):
        lat.degeneracy(-1, 0)
    for genus, holes, name in ((1.5, 0, "genus"), (0, 0.5, "holes"), ("1", 0, "genus")):
        with pytest.raises(UsageError, match=rf"^{name} must be an integer"):
            lat.degeneracy(genus, holes)


@pytest.mark.parametrize("spec", [("torus", n) for n in range(2, 7)]
                         + [("planar", d) for d in range(2, 8)],
                         ids=lambda spec: f"{spec[0]}{spec[1]}")
def test_derived_incidence_matches_index_table(spec):
    """Stars and face boundaries, derived from the edge ends, are the sets
    the module docstring's table lists, in edge order.  On torus(2) pairs of
    parallel edges join the same two cells, and each edge still counts once."""
    lattice = lat.build_lattice(lat.LatticeSpec(*spec))
    n = lattice.size
    h, v, vertex, face = lat.index_maps(lattice.spec)
    grid = [(r, c) for r in range(n) for c in range(n)]
    if lattice.is_torus:
        h_cells = v_cells = vertex_cells = face_cells = grid
        star = lambda r, c: {h(r, c), h(r, c - 1), v(r, c), v(r - 1, c)}
        bnd = lambda r, c: {h(r, c), h(r + 1, c), v(r, c), v(r, c + 1)}
    else:
        h_cells = grid
        vertex_cells = [(r, c) for r, c in grid if c > 0]
        face_cells = [(r, c) for r, c in grid if r < n - 1]
        v_cells = [(r, c) for r, c in face_cells if c > 0]
        star = lambda r, c: ({h(r, c - 1), h(r, c)}
                             | {v(row, c) for row in (r - 1, r) if 0 <= row < n - 1})
        bnd = lambda r, c: ({h(r, c), h(r + 1, c)}
                            | {v(r, col) for col in (c, c + 1) if 0 < col < n})
    # each map hits every id exactly once
    edges = [h(r, c) for r, c in h_cells] + [v(r, c) for r, c in v_cells]
    assert sorted(edges) == list(range(lattice.n_edges))
    assert sorted(vertex(r, c) for r, c in vertex_cells) == list(range(lattice.n_vertices))
    assert sorted(face(r, c) for r, c in face_cells) == list(range(lattice.n_faces))
    for r, c in vertex_cells:
        assert lattice.star(vertex(r, c)) == tuple(sorted(star(r, c)))
    for r, c in face_cells:
        assert lattice.boundary(face(r, c)) == tuple(sorted(bnd(r, c)))


def test_echo_masks_commute_with_all_stabilizers():
    # boundary-masked pulses must commute with every stabilizer on planar
    # codes; the global pulses only do so on the torus (weight-4 stars).
    for d in (2, 3, 4, 5):
        p = lat.planar(d)
        for kind in ("z_e", "z_o", "x_e", "x_o"):
            mask = lat.echo_mask(p, kind)
            op = PauliString.z_on(mask) if kind.startswith("z") \
                else PauliString.x_on(mask)
            for v in range(p.n_vertices):
                assert commutation_phase(op, PauliString.x_on(p.star(v))) == 1, \
                    (d, kind, v)
            for f in range(p.n_faces):
                assert commutation_phase(op, PauliString.z_on(p.boundary(f))) == 1, \
                    (d, kind, f)
    for n in (2, 3, 4):
        t = lat.torus(n)
        for kind in ("z", "x"):
            mask = lat.echo_mask(t, kind)
            op = PauliString.z_on(mask) if kind == "z" else PauliString.x_on(mask)
            assert all(commutation_phase(op, PauliString.x_on(t.star(v))) == 1
                       for v in range(t.n_vertices))
            assert all(commutation_phase(op, PauliString.z_on(t.boundary(f))) == 1
                       for f in range(t.n_faces))
    with pytest.raises(UsageError):
        lat.echo_mask(lat.torus(3), "z_e")


def test_unmasked_global_echo_anticommutes_on_planar_boundary():
    # the reason the boundary-masked variants exist
    p = lat.planar(3)
    u_z = PauliString.z_on(range(p.n_edges))
    assert any(commutation_phase(u_z, PauliString.x_on(p.star(v))) == -1
               for v in range(p.n_vertices))


def test_size_limits_and_override():
    with pytest.raises(ConfigurationError):
        lat.build_lattice(lat.LatticeSpec("torus", 33))
    with pytest.raises(ConfigurationError):
        lat.build_lattice(lat.LatticeSpec("planar", 8))
    with pytest.raises(ConfigurationError):
        lat.LatticeSpec("torus", 1)
    with pytest.raises(ConfigurationError):
        lat.LatticeSpec("klein", 3)
    for build, size in ((lat.torus, 2.5), (lat.planar, 3.0), (lat.torus, "3")):
        with pytest.raises(ConfigurationError, match="size must be an integer"):
            build(size)
    assert lat.torus(np.int64(3)).n_edges == 18
