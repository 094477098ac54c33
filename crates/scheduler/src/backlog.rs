//! The controller's view of per-link backlog.
//!
//! Downlink queues live at the APs and reach the controller over the
//! wire; uplink queues are only learned through ROP reports (§3.1) — and
//! are *stale* in between. The view therefore tracks, per link, the last
//! reported queue length minus the packets the controller has scheduled
//! since, never going negative.

use domino_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use domino_topology::LinkId;

/// Controller-side backlog estimates.
#[derive(Clone, Debug)]
pub struct BacklogView {
    estimated: Vec<u32>,
    /// Packets scheduled since the last report, per link (so a fresh
    /// report does not double-count in-flight schedule decisions).
    scheduled_since_report: Vec<u32>,
}

impl BacklogView {
    /// A view over `num_links` links, all initially empty.
    pub fn new(num_links: usize) -> BacklogView {
        BacklogView {
            estimated: vec![0; num_links],
            scheduled_since_report: vec![0; num_links],
        }
    }

    /// Number of links tracked.
    pub fn len(&self) -> usize {
        self.estimated.len()
    }

    /// True when no links are tracked.
    pub fn is_empty(&self) -> bool {
        self.estimated.is_empty()
    }

    /// Absorb a fresh queue report for `link` (from ROP or the wire).
    /// The report reflects the queue *before* any still-unexecuted
    /// schedule decisions, so those are subtracted.
    pub fn report(&mut self, link: LinkId, queue: u32) {
        let pending = self.scheduled_since_report[link.index()];
        self.estimated[link.index()] = queue.saturating_sub(pending);
        self.scheduled_since_report[link.index()] = 0;
    }

    /// An arrival the controller directly observes (AP-side enqueue
    /// forwarded over the wire).
    pub fn add(&mut self, link: LinkId, packets: u32) {
        self.estimated[link.index()] = self.estimated[link.index()].saturating_add(packets);
    }

    /// Current estimate for `link`.
    pub fn estimate(&self, link: LinkId) -> u32 {
        self.estimated[link.index()]
    }

    /// Snapshot of all estimates, for feeding the scheduler. The
    /// scheduler consumes from the returned buffer; call
    /// [`BacklogView::commit_schedule`] with what it actually used.
    pub fn snapshot(&self) -> Vec<u32> {
        self.estimated.clone()
    }

    /// Borrowed view of all estimates, for callers that keep their own
    /// scratch buffer instead of taking a fresh [`BacklogView::snapshot`].
    pub fn estimates(&self) -> &[u32] {
        &self.estimated
    }

    /// Commit the scheduler's consumption: `remaining` is the snapshot
    /// after scheduling; the difference is what got scheduled.
    pub fn commit_schedule(&mut self, remaining: &[u32]) {
        assert_eq!(remaining.len(), self.estimated.len());
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.estimated.len() {
            let used = self.estimated[i].saturating_sub(remaining[i]);
            self.scheduled_since_report[i] = self.scheduled_since_report[i].saturating_add(used);
            self.estimated[i] = remaining[i];
        }
    }
}

impl Snapshot for BacklogView {
    /// Both per-link tables are dynamic; the link count is configuration.
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.estimated.len() as u64);
        for &e in &self.estimated {
            w.put_u32(e);
        }
        for &s in &self.scheduled_since_report {
            w.put_u32(s);
        }
    }
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let len = r.get_len()?;
        if len != self.estimated.len() {
            return Err(SnapError::Corrupt("backlog view length"));
        }
        for e in &mut self.estimated {
            *e = r.get_u32()?;
        }
        for s in &mut self.scheduled_since_report {
            *s = r.get_u32()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_replace_estimates() {
        let mut v = BacklogView::new(4);
        v.report(LinkId(2), 7);
        assert_eq!(v.estimate(LinkId(2)), 7);
        v.report(LinkId(2), 3);
        assert_eq!(v.estimate(LinkId(2)), 3);
    }

    #[test]
    fn arrivals_accumulate() {
        let mut v = BacklogView::new(2);
        v.add(LinkId(0), 2);
        v.add(LinkId(0), 1);
        assert_eq!(v.estimate(LinkId(0)), 3);
    }

    #[test]
    fn schedule_commit_decrements_and_tracks_pending() {
        let mut v = BacklogView::new(2);
        v.report(LinkId(0), 5);
        let mut snap = v.snapshot();
        snap[0] -= 2; // scheduler consumed 2
        v.commit_schedule(&snap);
        assert_eq!(v.estimate(LinkId(0)), 3);
        // A new report of 5 (the AP hasn't transmitted yet) must subtract
        // the 2 in-flight scheduled packets.
        v.report(LinkId(0), 5);
        assert_eq!(v.estimate(LinkId(0)), 3);
    }

    #[test]
    fn never_goes_negative() {
        let mut v = BacklogView::new(1);
        v.report(LinkId(0), 1);
        let mut snap = v.snapshot();
        snap[0] = 0;
        v.commit_schedule(&snap);
        v.report(LinkId(0), 0);
        assert_eq!(v.estimate(LinkId(0)), 0);
    }
}
