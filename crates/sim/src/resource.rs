//! FIFO-serialized resources.
//!
//! Every shared hardware component in the machine model — a rank's CPU (the
//! single-threaded MPI progression engine), a node's memory bus, a NIC
//! direction, the network core — is a [`Resource`]: it serves one request at
//! a time, in the order requests arrive, and tracks how busy it has been.
//!
//! This is the mechanism behind the paper's central empirical observation
//! (section III-A2): an inter-node broadcast and an intra-node broadcast
//! *mostly* overlap because they occupy different resources, but not
//! perfectly, because the inter-node transfer must push data back to memory
//! (sharing the memory bus with the intra-node copies) and both operations
//! are progressed by the same CPU. With FIFO resources those interference
//! effects emerge from the model instead of being hand-tuned constants.

use crate::time::Time;

/// A single-server FIFO resource.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    free_at: Time,
    busy: Time,
    requests: u64,
}

impl Resource {
    pub fn new() -> Self {
        Resource::default()
    }

    /// Request exclusive use for `dur`, no earlier than `at`.
    ///
    /// Returns `(start, end)`: the request starts when both the caller is
    /// ready and the resource is free, and occupies the resource until
    /// `end = start + dur`.
    #[inline]
    pub fn acquire(&mut self, at: Time, dur: Time) -> (Time, Time) {
        let start = at.max(self.free_at);
        let end = start + dur;
        self.free_at = end;
        self.busy += dur;
        self.requests += 1;
        (start, end)
    }

    /// When the resource next becomes free.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Total time this resource has been occupied.
    pub fn busy_time(&self) -> Time {
        self.busy
    }

    /// Number of acquisitions served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Reset to idle (used when reusing a machine across benchmark runs).
    pub fn reset(&mut self) {
        *self = Resource::default();
    }
}

/// A named, indexed collection of resources.
///
/// The machine model hands out stable `usize` ids at construction time
/// (`cpu(rank)`, `bus(node)`, ...); the executor then addresses resources by
/// id without borrowing the whole machine.
#[derive(Debug, Default)]
pub struct ResourcePool {
    resources: Vec<Resource>,
    names: Vec<String>,
}

impl ResourcePool {
    pub fn new() -> Self {
        ResourcePool::default()
    }

    /// Add a resource, returning its id.
    pub fn add(&mut self, name: impl Into<String>) -> usize {
        self.resources.push(Resource::new());
        self.names.push(name.into());
        self.resources.len() - 1
    }

    #[inline]
    pub fn acquire(&mut self, id: usize, at: Time, dur: Time) -> (Time, Time) {
        self.resources[id].acquire(at, dur)
    }

    pub fn get(&self, id: usize) -> &Resource {
        &self.resources[id]
    }

    pub fn name(&self, id: usize) -> &str {
        &self.names[id]
    }

    pub fn len(&self) -> usize {
        self.resources.len()
    }

    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// Reset every resource to idle, keeping the layout.
    pub fn reset(&mut self) {
        for r in &mut self.resources {
            r.reset();
        }
    }

    /// `(name, busy, requests)` rows for utilization reports.
    pub fn utilization(&self) -> impl Iterator<Item = (&str, Time, u64)> + '_ {
        self.resources
            .iter()
            .zip(self.names.iter())
            .map(|(r, n)| (n.as_str(), r.busy_time(), r.requests()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = Resource::new();
        let (s, e) = r.acquire(Time::from_ns(10), Time::from_ns(5));
        assert_eq!(s, Time::from_ns(10));
        assert_eq!(e, Time::from_ns(15));
    }

    #[test]
    fn busy_resource_queues() {
        let mut r = Resource::new();
        r.acquire(Time::ZERO, Time::from_ns(100));
        // Requested at t=10 but the resource is busy until t=100.
        let (s, e) = r.acquire(Time::from_ns(10), Time::from_ns(50));
        assert_eq!(s, Time::from_ns(100));
        assert_eq!(e, Time::from_ns(150));
        assert_eq!(r.busy_time(), Time::from_ns(150));
        assert_eq!(r.requests(), 2);
    }

    #[test]
    fn gap_leaves_resource_idle() {
        let mut r = Resource::new();
        r.acquire(Time::ZERO, Time::from_ns(10));
        let (s, _) = r.acquire(Time::from_ns(50), Time::from_ns(10));
        assert_eq!(s, Time::from_ns(50));
        // Busy time counts only occupied time, not the idle gap.
        assert_eq!(r.busy_time(), Time::from_ns(20));
    }

    #[test]
    fn zero_duration_acquire_is_free() {
        let mut r = Resource::new();
        let (s, e) = r.acquire(Time::from_ns(5), Time::ZERO);
        assert_eq!(s, e);
        assert_eq!(r.free_at(), Time::from_ns(5));
    }

    #[test]
    fn serialization_models_contention() {
        // Two 1 KiB copies through one bus take twice as long as one:
        // the "imperfect overlap" effect in miniature.
        let mut bus = Resource::new();
        let dur = Time::for_bytes(1024, 1e9);
        let (_, e1) = bus.acquire(Time::ZERO, dur);
        let (_, e2) = bus.acquire(Time::ZERO, dur);
        assert_eq!(e1, dur);
        assert_eq!(e2, dur * 2);
    }

    #[test]
    fn pool_round_trip() {
        let mut pool = ResourcePool::new();
        let a = pool.add("cpu0");
        let b = pool.add("bus0");
        assert_eq!(pool.len(), 2);
        pool.acquire(a, Time::ZERO, Time::from_ns(3));
        pool.acquire(b, Time::ZERO, Time::from_ns(7));
        assert_eq!(pool.get(a).busy_time(), Time::from_ns(3));
        assert_eq!(pool.name(b), "bus0");
        let rows: Vec<_> = pool.utilization().collect();
        assert_eq!(rows[1], ("bus0", Time::from_ns(7), 1));
        pool.reset();
        assert_eq!(pool.get(a).busy_time(), Time::ZERO);
        assert_eq!(pool.len(), 2);
    }
}
