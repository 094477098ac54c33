//! Per-link FIFO transmit queues.
//!
//! Every sender keeps one queue per outgoing link. Queue length is what
//! ROP reports to the controller (clamped to 63, §3.1) and what drives
//! the RAND scheduler's has-data test.

use crate::packet::Packet;
use std::collections::VecDeque;

/// Default MAC queue capacity in packets.
pub const DEFAULT_QUEUE_CAPACITY: usize = 200;

/// A bounded FIFO of packets awaiting transmission on one link.
#[derive(Clone, Debug)]
pub struct LinkQueue {
    items: VecDeque<Packet>,
    capacity: usize,
}

impl LinkQueue {
    /// An empty queue with the given capacity.
    pub fn new(capacity: usize) -> LinkQueue {
        assert!(capacity > 0, "queue capacity must be positive");
        LinkQueue { items: VecDeque::new(), capacity }
    }

    /// Enqueue; returns `false` (the packet is dropped) when full.
    pub fn push(&mut self, packet: Packet) -> bool {
        let fits = !self.is_full();
        if fits {
            self.items.push_back(packet);
        }
        fits
    }

    /// Push to the *front* (a retransmission keeps its place at the head
    /// of the line); returns `false` (the packet is dropped) when full.
    pub fn push_front(&mut self, packet: Packet) -> bool {
        let fits = !self.is_full();
        if fits {
            self.items.push_front(packet);
        }
        fits
    }

    /// Dequeue the head.
    pub fn pop(&mut self) -> Option<Packet> {
        self.items.pop_front()
    }

    /// The head, if any.
    pub fn peek(&self) -> Option<&Packet> {
        self.items.front()
    }

    /// Packets currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no packets wait.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when a push would be dropped.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Queue length as ROP reports it: clamped to the 6-bit maximum.
    pub fn rop_report(&self) -> u32 {
        self.items.len().min(63) as u32
    }
}

impl Default for LinkQueue {
    fn default() -> Self {
        LinkQueue::new(DEFAULT_QUEUE_CAPACITY)
    }
}

// Dynamic state: the queued packets. `capacity` is configuration and
// stays as constructed.
domino_sim::snapshot_fields!(LinkQueue { items });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketId, PacketKind};
    use domino_sim::SimTime;
    use domino_topology::LinkId;

    fn pkt(id: u64) -> Packet {
        Packet {
            id: PacketId(id),
            flow: FlowId(0),
            link: LinkId(0),
            payload_bytes: 512,
            created_at: SimTime::ZERO,
            kind: PacketKind::Udp,
            seq: 0,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = LinkQueue::new(10);
        for i in 0..5 {
            assert!(q.push(pkt(i)));
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop().unwrap().id.0, i);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_enforced_with_drop_count() {
        let mut q = LinkQueue::new(2);
        assert!(q.push(pkt(0)));
        assert!(!q.is_full());
        assert!(q.push(pkt(1)));
        assert!(q.is_full());
        assert!(!q.push(pkt(2)), "full: dropped");
        assert!(!q.push_front(pkt(3)), "full: dropped at the front too");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().id.0, 0);
    }

    #[test]
    fn push_front_for_retransmissions() {
        let mut q = LinkQueue::new(10);
        q.push(pkt(1));
        q.push_front(pkt(0));
        assert_eq!(q.peek().unwrap().id.0, 0);
    }

    #[test]
    fn rop_report_clamps_at_63() {
        let mut q = LinkQueue::new(100);
        for i in 0..80 {
            q.push(pkt(i));
        }
        assert_eq!(q.rop_report(), 63);
        let mut small = LinkQueue::new(100);
        small.push(pkt(0));
        assert_eq!(small.rop_report(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = LinkQueue::new(0);
    }
}
