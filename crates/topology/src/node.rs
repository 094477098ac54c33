//! Nodes: APs and clients.

use core::fmt;

/// Identifier of a wireless node, dense from zero within a [`Network`].
///
/// [`Network`]: crate::network::Network
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

domino_sim::snap_value!(NodeId(u32));

/// Whether a node is an access point (wired to the controller) or a
/// client.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeRole {
    /// Access point: wired to the central controller, runs ROP polls.
    Ap,
    /// Client: associated to exactly one AP.
    Client,
}

/// A 2-D position in meters (used by generated topologies; preset
/// topologies may fabricate RSS directly and leave positions at origin).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Position {
    /// Meters east.
    pub x: f64,
    /// Meters north.
    pub y: f64,
}

impl Position {
    /// Construct a position.
    pub const fn new(x: f64, y: f64) -> Position {
        Position { x, y }
    }

    /// Euclidean distance to another position.
    pub fn distance_to(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// One wireless node.
#[derive(Clone, Debug)]
pub struct Node {
    /// Dense identifier.
    pub id: NodeId,
    /// AP or client.
    pub role: NodeRole,
    /// The AP a client is associated with (`None` for APs).
    pub associated_ap: Option<NodeId>,
    /// Physical position, when the topology has one.
    pub position: Position,
    /// Gold-code signature index assigned by the controller.
    pub signature: usize,
}

impl Node {
    /// True if this node is an access point.
    #[inline]
    pub fn is_ap(&self) -> bool {
        self.role == NodeRole::Ap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance_to(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance_to(&a), 0.0);
    }

    #[test]
    fn node_role() {
        let n = Node {
            id: NodeId(3),
            role: NodeRole::Ap,
            associated_ap: None,
            position: Position::default(),
            signature: 3,
        };
        assert!(n.is_ap());
        assert_eq!(n.id.index(), 3);
        assert_eq!(format!("{}", n.id), "n3");
    }
}
