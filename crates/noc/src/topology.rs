//! Mesh topology, port geometry and dimension-ordered (XY) routing.

use anoc_core::data::NodeId;

use crate::config::NocConfig;

/// A cardinal direction port of a mesh router. Local (NI) ports follow the
/// four direction ports in the port numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Direction {
    /// Towards smaller y.
    North = 0,
    /// Towards larger x.
    East = 1,
    /// Towards larger y.
    South = 2,
    /// Towards smaller x.
    West = 3,
}

impl Direction {
    /// All four directions in port order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The opposite direction (the input port a link lands on).
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }
}

/// Where a node sits: its router, that router's coordinates, and the
/// node's local port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeSite {
    router: u32,
    x: u16,
    y: u16,
    port: u8,
}

/// Static description of a (concentrated) 2D mesh.
///
/// The per-node and per-router geometry is tabulated once at construction,
/// so routing and the node → router/port lookups on the kernel's hot path
/// are table reads rather than divisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    width: usize,
    height: usize,
    concentration: usize,
    /// Per node, indexed by node id.
    nodes: Vec<NodeSite>,
    /// Per router: `(x, y)`.
    xy: Vec<(u16, u16)>,
}

impl Mesh {
    /// Builds the mesh described by `config`.
    pub fn new(config: &NocConfig) -> Self {
        let (width, height, concentration) = (config.width, config.height, config.concentration);
        let xy: Vec<(u16, u16)> = (0..width * height)
            .map(|r| ((r % width) as u16, (r / width) as u16))
            .collect();
        let nodes = (0..width * height * concentration)
            .map(|n| {
                let router = n / concentration;
                let (x, y) = xy[router];
                NodeSite {
                    router: router as u32,
                    x,
                    y,
                    port: (4 + n % concentration) as u8,
                }
            })
            .collect();
        Mesh {
            width,
            height,
            concentration,
            nodes,
            xy,
        }
    }

    /// A mesh with no routers, for placeholders that are never stepped.
    pub(crate) fn empty() -> Self {
        Mesh {
            width: 0,
            height: 0,
            concentration: 0,
            nodes: Vec::new(),
            xy: Vec::new(),
        }
    }

    /// Mesh width in routers.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh height in routers.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Nodes per router.
    pub fn concentration(&self) -> usize {
        self.concentration
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.width * self.height
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_routers() * self.concentration
    }

    /// Number of unidirectional router-to-router links.
    pub fn num_links(&self) -> usize {
        // Each adjacent pair has two unidirectional links.
        2 * ((self.width - 1) * self.height + (self.height - 1) * self.width)
    }

    /// Ports per router: four directions plus one local port per attached
    /// node.
    pub fn ports_per_router(&self) -> usize {
        4 + self.concentration
    }

    /// The router a node is attached to.
    #[inline]
    pub fn router_of(&self, node: NodeId) -> usize {
        self.nodes[node.index()].router as usize
    }

    /// The local port index (within the router) serving `node`.
    #[inline]
    pub fn local_port_of(&self, node: NodeId) -> usize {
        self.nodes[node.index()].port as usize
    }

    /// The node attached to `router` at local port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a local port.
    pub fn node_at(&self, router: usize, port: usize) -> NodeId {
        assert!(port >= 4, "port {port} is a direction, not a local port");
        NodeId::from(router * self.concentration + (port - 4))
    }

    /// `(x, y)` coordinates of a router.
    pub fn coords(&self, router: usize) -> (usize, usize) {
        let (x, y) = self.xy[router];
        (x.into(), y.into())
    }

    /// Router id from coordinates.
    pub fn router_at(&self, x: usize, y: usize) -> usize {
        y * self.width + x
    }

    /// The neighbouring router in `dir`, if any.
    pub fn neighbor(&self, router: usize, dir: Direction) -> Option<usize> {
        let (x, y) = self.coords(router);
        match dir {
            Direction::North if y > 0 => Some(self.router_at(x, y - 1)),
            Direction::South if y + 1 < self.height => Some(self.router_at(x, y + 1)),
            Direction::East if x + 1 < self.width => Some(self.router_at(x + 1, y)),
            Direction::West if x > 0 => Some(self.router_at(x - 1, y)),
            _ => None,
        }
    }

    /// XY (dimension-ordered) routing: the output port at `router` towards
    /// `dest`. X is fully resolved before Y; at the destination router the
    /// packet exits through the node's local port. Deadlock-free on a mesh.
    #[inline]
    pub fn route_xy(&self, router: usize, dest: NodeId) -> usize {
        let d = self.nodes[dest.index()];
        if router == d.router as usize {
            return d.port as usize;
        }
        let (x, y) = self.xy[router];
        if x < d.x {
            Direction::East as usize
        } else if x > d.x {
            Direction::West as usize
        } else if y < d.y {
            Direction::South as usize
        } else {
            Direction::North as usize
        }
    }

    /// Hop count of the XY route between two nodes (router-to-router links).
    pub fn hops(&self, src: NodeId, dest: NodeId) -> usize {
        let (s, d) = (self.nodes[src.index()], self.nodes[dest.index()]);
        usize::from(s.x.abs_diff(d.x)) + usize::from(s.y.abs_diff(d.y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(&NocConfig::paper_4x4_cmesh())
    }

    #[test]
    fn geometry() {
        let m = mesh();
        assert_eq!(m.num_routers(), 16);
        assert_eq!(m.num_nodes(), 32);
        assert_eq!(m.ports_per_router(), 6);
        assert_eq!(m.num_links(), 48); // 2 * (3*4 + 3*4)
        assert_eq!(m.router_of(NodeId(0)), 0);
        assert_eq!(m.router_of(NodeId(1)), 0);
        assert_eq!(m.router_of(NodeId(2)), 1);
        assert_eq!(m.local_port_of(NodeId(3)), 5);
        assert_eq!(m.node_at(1, 5), NodeId(3));
    }

    #[test]
    fn coords_roundtrip() {
        let m = mesh();
        for r in 0..m.num_routers() {
            let (x, y) = m.coords(r);
            assert_eq!(m.router_at(x, y), r);
        }
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = mesh();
        // Corner router 0.
        assert_eq!(m.neighbor(0, Direction::North), None);
        assert_eq!(m.neighbor(0, Direction::West), None);
        assert_eq!(m.neighbor(0, Direction::East), Some(1));
        assert_eq!(m.neighbor(0, Direction::South), Some(4));
        // Centre router 5 has all four.
        for d in Direction::ALL {
            assert!(m.neighbor(5, d).is_some());
        }
    }

    #[test]
    fn opposite_directions() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn xy_routes_x_first() {
        let m = mesh();
        // Node 0 (router 0) to node 31 (router 15 = (3,3)).
        let dest = NodeId(31);
        assert_eq!(m.route_xy(0, dest), Direction::East as usize);
        assert_eq!(m.route_xy(1, dest), Direction::East as usize);
        assert_eq!(m.route_xy(3, dest), Direction::South as usize);
        assert_eq!(m.route_xy(7, dest), Direction::South as usize);
        assert_eq!(m.route_xy(15, dest), 5); // local port of node 31
    }

    /// The geometry tables must reproduce the arithmetic definitions they
    /// replaced, which this test keeps as its reference, on square and
    /// non-square meshes at every concentration the kernel uses.
    #[test]
    fn geometry_tables_match_the_arithmetic_definitions() {
        for (width, height, c) in [(3, 3, 1), (4, 4, 2), (5, 3, 3), (1, 1, 4)] {
            let m = Mesh::new(&NocConfig::cmesh(width, height, c));
            let coords = |r: usize| (r % width, r / width);
            let router_of = |n: usize| n / c;
            let local_port_of = |n: usize| 4 + n % c;
            let route_xy = |r: usize, n: usize| {
                let dest = router_of(n);
                let ((x, y), (dx, dy)) = (coords(r), coords(dest));
                if r == dest {
                    local_port_of(n)
                } else if x < dx {
                    Direction::East as usize
                } else if x > dx {
                    Direction::West as usize
                } else if y < dy {
                    Direction::South as usize
                } else {
                    Direction::North as usize
                }
            };
            let hops = |a: usize, b: usize| {
                let ((ax, ay), (bx, by)) = (coords(router_of(a)), coords(router_of(b)));
                ax.abs_diff(bx) + ay.abs_diff(by)
            };
            let nodes = width * height * c;
            assert_eq!(m.num_nodes(), nodes);
            for r in 0..m.num_routers() {
                assert_eq!(m.coords(r), coords(r), "{width}x{height}: router {r}");
                for n in 0..nodes {
                    let node = NodeId::from(n);
                    assert_eq!(
                        m.route_xy(r, node),
                        route_xy(r, n),
                        "router {r} -> node {n}"
                    );
                }
            }
            for n in 0..nodes {
                let node = NodeId::from(n);
                assert_eq!(m.router_of(node), router_of(n), "node {n}");
                assert_eq!(m.local_port_of(node), local_port_of(n), "node {n}");
                for b in 0..nodes {
                    assert_eq!(m.hops(node, NodeId::from(b)), hops(n, b), "{n} -> {b}");
                }
            }
        }
    }

    #[test]
    fn xy_route_terminates_everywhere() {
        let m = mesh();
        for src in 0..m.num_nodes() {
            for dst in 0..m.num_nodes() {
                let dest = NodeId::from(dst);
                let mut router = m.router_of(NodeId::from(src));
                let mut hops = 0;
                loop {
                    let port = m.route_xy(router, dest);
                    if port >= 4 {
                        assert_eq!(m.node_at(router, port), dest);
                        break;
                    }
                    let dir = Direction::ALL[port];
                    router = m.neighbor(router, dir).expect("route fell off the mesh");
                    hops += 1;
                    assert!(hops <= m.width() + m.height(), "routing loop");
                }
                assert_eq!(hops, m.hops(NodeId::from(src), dest));
            }
        }
    }
}
