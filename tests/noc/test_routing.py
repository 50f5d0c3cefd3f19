"""Tests for dimension-ordered routing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import Mesh2D, xy_route_path, xy_route_port
from repro.noc.topology import EAST, LOCAL, NORTH, SOUTH, WEST


class TestRoutePort:
    def test_arrived(self):
        mesh = Mesh2D(4, 4)
        assert xy_route_port(mesh, 5, 5) == LOCAL

    def test_x_first(self):
        mesh = Mesh2D(4, 4)
        # From (0,0) to (2,2): go EAST first even though SOUTH also reduces.
        assert xy_route_port(mesh, 0, 10) == EAST

    def test_directions(self):
        mesh = Mesh2D(4, 4)
        assert xy_route_port(mesh, 5, 6) == EAST
        assert xy_route_port(mesh, 5, 4) == WEST
        assert xy_route_port(mesh, 5, 1) == NORTH
        assert xy_route_port(mesh, 5, 9) == SOUTH


class TestRoutePath:
    def test_path_endpoints(self):
        mesh = Mesh2D(4, 4)
        path = xy_route_path(mesh, 0, 15)
        assert path[0] == 0 and path[-1] == 15

    def test_path_length_is_manhattan(self):
        mesh = Mesh2D(4, 4)
        for src in range(16):
            for dst in range(16):
                path = xy_route_path(mesh, src, dst)
                assert len(path) - 1 == mesh.hop_distance(src, dst)

    def test_x_then_y_shape(self):
        mesh = Mesh2D(4, 4)
        path = xy_route_path(mesh, 0, 10)  # (0,0) -> (2,2)
        coords = [mesh.coords(n) for n in path]
        assert coords == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_self_path(self):
        assert xy_route_path(Mesh2D(2, 2), 3, 3) == [3]

    @given(
        nodes=st.sampled_from([4, 8, 16, 32]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_consecutive_hops_adjacent(self, nodes, seed):
        import numpy as np

        mesh = Mesh2D.for_nodes(nodes)
        rng = np.random.default_rng(seed)
        src, dst = rng.integers(0, nodes, size=2)
        path = xy_route_path(mesh, int(src), int(dst))
        for a, b in zip(path, path[1:]):
            assert mesh.hop_distance(a, b) == 1

    def test_deterministic(self):
        mesh = Mesh2D(4, 4)
        assert xy_route_path(mesh, 3, 12) == xy_route_path(mesh, 3, 12)


class TestRouteTables:
    """Cached per-mesh-shape XY route tables (repro.noc.routing.route_tables)."""

    def test_hops_match_manhattan(self):
        import numpy as np

        from repro.noc import route_tables

        mesh = Mesh2D(4, 4)
        tables = route_tables(mesh)
        expected = np.array(
            [[mesh.hop_distance(s, d) for d in range(16)] for s in range(16)]
        )
        assert np.array_equal(tables.hops, expected)

    def test_usage_matches_route_paths(self):
        from repro.noc import route_tables

        mesh = Mesh2D(3, 3)
        tables = route_tables(mesh)
        for s in range(9):
            for d in range(9):
                path = xy_route_path(mesh, s, d)
                walked = {(a, b) for a, b in zip(path, path[1:])}
                row = tables.usage[s * 9 + d]
                used = {tables.links[i] for i in range(len(row)) if row[i]}
                assert used == walked

    def test_usage_row_sums_are_hop_counts(self):
        from repro.noc import route_tables

        mesh = Mesh2D(4, 2)
        tables = route_tables(mesh)
        for s in range(8):
            for d in range(8):
                assert tables.usage[s * 8 + d].sum() == tables.hops[s, d]

    def test_links_order_matches_mesh(self):
        from repro.noc import route_tables

        mesh = Mesh2D(4, 4)
        assert list(route_tables(mesh).links) == mesh.links()

    def test_cached_per_shape(self):
        from repro.noc import route_tables

        assert route_tables(Mesh2D(4, 4)) is route_tables(Mesh2D(4, 4))
        assert route_tables(Mesh2D(4, 4)) is not route_tables(Mesh2D(2, 2))

    def test_arrays_are_readonly(self):
        import numpy as np
        import pytest

        from repro.noc import route_tables

        tables = route_tables(Mesh2D(2, 2))
        with pytest.raises((ValueError, RuntimeError)):
            tables.hops[0, 0] = 99
        with pytest.raises((ValueError, RuntimeError)):
            tables.usage[0, 0] = 99
        assert isinstance(tables.link_index((0, 1)), (int, np.integer))

    def test_link_loads_match_route_walk(self):
        """The cached-table matmul in ``link_loads`` equals walking each
        pair's XY route, on the 8x8 group-stream burst."""
        from repro.noc import NoCConfig
        from repro.noc.analytical import link_loads, message_flits

        from .conftest import group_stream_8x8

        mesh, traffic = group_stream_8x8()
        config = NoCConfig()
        flits = message_flits(traffic.bytes_matrix, config)
        walked: dict[tuple[int, int], int] = {}
        for src in range(mesh.num_nodes):
            for dst in range(mesh.num_nodes):
                if flits[src, dst]:
                    path = xy_route_path(mesh, src, dst)
                    for link in zip(path, path[1:]):
                        walked[link] = walked.get(link, 0) + int(flits[src, dst])
        assert walked
        assert link_loads(traffic, mesh, config) == walked
