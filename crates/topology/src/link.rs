//! Directed AP↔client links.

use crate::node::NodeId;
use core::fmt;

/// Identifier of a directed link, dense from zero within a network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Index into per-link arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

domino_sim::snap_value!(LinkId(u32));

/// Traffic direction of a link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// AP → client.
    Downlink,
    /// Client → AP.
    Uplink,
}

/// A directed transmission link. Exactly one endpoint is an AP (paper
/// §3.3: "either l.sender or l.receiver must be an AP").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link {
    /// Dense identifier.
    pub id: LinkId,
    /// Transmitting node.
    pub sender: NodeId,
    /// Receiving node.
    pub receiver: NodeId,
    /// The AP endpoint (sender for downlinks, receiver for uplinks).
    pub ap: NodeId,
    /// Downlink or uplink.
    pub direction: Direction,
}

impl Link {
    /// The client endpoint.
    pub fn client(&self) -> NodeId {
        if self.sender == self.ap {
            self.receiver
        } else {
            self.sender
        }
    }

    /// True for AP → client links.
    pub fn is_downlink(&self) -> bool {
        self.direction == Direction::Downlink
    }

    /// The link in the opposite direction over the same pair (identity of
    /// the reverse link is resolved by the network, this only swaps
    /// endpoints).
    pub fn reversed_endpoints(&self) -> (NodeId, NodeId) {
        (self.receiver, self.sender)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downlink_accessors() {
        let l = Link {
            id: LinkId(0),
            sender: NodeId(0),
            receiver: NodeId(1),
            ap: NodeId(0),
            direction: Direction::Downlink,
        };
        assert!(l.is_downlink());
        assert_eq!(l.client(), NodeId(1));
        assert_eq!(l.reversed_endpoints(), (NodeId(1), NodeId(0)));
    }

    #[test]
    fn uplink_accessors() {
        let l = Link {
            id: LinkId(5),
            sender: NodeId(1),
            receiver: NodeId(0),
            ap: NodeId(0),
            direction: Direction::Uplink,
        };
        assert!(!l.is_downlink());
        assert_eq!(l.client(), NodeId(1));
        assert_eq!(format!("{}", l.id), "l5");
    }
}
