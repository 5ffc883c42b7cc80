//! Timing context and result types for collectives.

use asgd_gpusim::{ClusterTopology, DeviceProfile, SimTime, Topology};

/// Cluster link annotations on a [`CollectiveContext`]: which server each
/// flat device lives on, plus the shared inter-node link parameters. Only
/// *timing* consults this — the reduction arithmetic never does, which is
/// what keeps cluster runs bit-identical to single-server ones.
#[derive(Debug, Clone)]
struct ClusterLinks {
    server_of: Vec<usize>,
    inter_gbs: f64,
    inter_setup_s: f64,
}

/// Immutable description of the server (or cluster) a collective runs on.
#[derive(Debug, Clone)]
pub struct CollectiveContext {
    topology: Topology,
    profiles: Vec<DeviceProfile>,
    cluster: Option<ClusterLinks>,
}

impl CollectiveContext {
    /// Creates a single-server context; `profiles.len()` must match the
    /// topology.
    pub fn new(topology: Topology, profiles: &[DeviceProfile]) -> Self {
        assert_eq!(
            topology.n_devices(),
            profiles.len(),
            "topology/profile count mismatch"
        );
        Self {
            topology,
            profiles: profiles.to_vec(),
            cluster: None,
        }
    }

    /// Creates a cluster context: the intra-node link template stretched over
    /// the whole fleet, with cross-server transfers billed to the inter-node
    /// link. `profiles.len()` must match the fleet size; device numbering is
    /// the cluster's server-major flat ordering.
    pub fn cluster(cluster: &ClusterTopology, profiles: &[DeviceProfile]) -> Self {
        let n = cluster.n_devices();
        assert_eq!(n, profiles.len(), "cluster/profile count mismatch");
        Self {
            topology: cluster.intra().resized(n),
            profiles: profiles.to_vec(),
            cluster: Some(ClusterLinks {
                server_of: (0..n).map(|d| cluster.server_of(d)).collect(),
                inter_gbs: cluster.inter_gbs(),
                inter_setup_s: cluster.inter_setup_s(),
            }),
        }
    }

    /// The context restricted to the devices in `alive` (ascending flat ids):
    /// same link parameters, surviving profiles, and — for cluster contexts —
    /// the survivors' original server assignments, so cross-server transfers
    /// still pay the inter-node link after partial losses.
    pub fn subset(&self, alive: &[usize]) -> CollectiveContext {
        assert!(!alive.is_empty(), "subset needs at least one survivor");
        assert!(
            alive.windows(2).all(|w| w[0] < w[1]),
            "survivor ids must be strictly ascending"
        );
        assert!(
            *alive.last().unwrap() < self.n_devices(),
            "survivor id outside context"
        );
        Self {
            topology: self.topology.resized(alive.len()),
            profiles: alive.iter().map(|&d| self.profiles[d].clone()).collect(),
            cluster: self.cluster.as_ref().map(|c| ClusterLinks {
                server_of: alive.iter().map(|&d| c.server_of[d]).collect(),
                inter_gbs: c.inter_gbs,
                inter_setup_s: c.inter_setup_s,
            }),
        }
    }

    /// The interconnect.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Per-device profiles.
    pub fn profiles(&self) -> &[DeviceProfile] {
        &self.profiles
    }

    /// Number of participating devices.
    pub fn n_devices(&self) -> usize {
        self.profiles.len()
    }

    /// Whether this context carries cluster (multi-server) link annotations.
    pub fn is_cluster(&self) -> bool {
        self.cluster.is_some()
    }

    /// Server of device `d` — `0` for single-server contexts.
    pub fn server_of(&self, d: usize) -> usize {
        assert!(d < self.n_devices(), "device {d} outside context");
        self.cluster.as_ref().map_or(0, |c| c.server_of[d])
    }

    /// Seconds for one hop of `bytes` over the inter-node link. Falls back to
    /// the intra link for single-server contexts (there is no other link).
    pub fn inter_time(&self, bytes: usize) -> f64 {
        match &self.cluster {
            Some(c) => c.inter_setup_s + bytes as f64 / (c.inter_gbs * 1e9),
            None => self.topology.p2p_time(
                asgd_gpusim::DeviceId(0),
                asgd_gpusim::DeviceId(self.n_devices().saturating_sub(1)),
                bytes,
            ),
        }
    }

    /// Seconds for device `d` to add `elems` f32 pairs (the reduction
    /// compute of one chunk) — memory-bandwidth-bound.
    pub fn reduce_time(&self, d: usize, elems: usize) -> f64 {
        self.reduce_time_sized(d, elems, 4)
    }

    /// [`Self::reduce_time`] for an arbitrary element width: read two
    /// operands + write one result, `3 · elem_bytes` bytes per element (the
    /// f32 path's 12 bytes/element; bf16 storage halves it to 6 — the f32
    /// accumulation happens in registers, so it costs no extra traffic).
    pub fn reduce_time_sized(&self, d: usize, elems: usize, elem_bytes: usize) -> f64 {
        let p = &self.profiles[d];
        ((3 * elem_bytes) as f64 * elems as f64) / (p.mem_bandwidth_gbs * 1e9) / p.speed_factor
    }

    /// Seconds for a peer transfer of `elems` f32s from `src` to `dst`.
    pub fn p2p_time(&self, src: usize, dst: usize, elems: usize) -> f64 {
        self.p2p_time_sized(src, dst, elems, 4)
    }

    /// [`Self::p2p_time`] for an arbitrary element width (bf16 payloads
    /// move half the bytes of f32 ones). In a cluster context a cross-server
    /// pair pays the inter-node link instead of the intra one.
    pub fn p2p_time_sized(&self, src: usize, dst: usize, elems: usize, elem_bytes: usize) -> f64 {
        if let Some(c) = &self.cluster {
            if src != dst && c.server_of[src] != c.server_of[dst] {
                assert!(src < self.n_devices() && dst < self.n_devices());
                return c.inter_setup_s + (elem_bytes * elems) as f64 / (c.inter_gbs * 1e9);
            }
        }
        self.topology.p2p_time(
            asgd_gpusim::DeviceId(src),
            asgd_gpusim::DeviceId(dst),
            elem_bytes * elems,
        )
    }
}

/// Timing of one collective invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllReduceTiming {
    /// When the collective actually began (the latest participant arrival —
    /// the synchronization barrier the paper's straggler analysis is about).
    pub start: SimTime,
    /// When every device held the final reduced model.
    pub end: SimTime,
    /// Total bytes moved over peer links by the whole collective.
    pub bytes_moved: usize,
}

impl AllReduceTiming {
    /// Wall-clock duration past the barrier.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_gpusim::profile;

    #[test]
    fn reduce_time_scales_with_elements() {
        let ctx = CollectiveContext::new(Topology::pcie(2), &profile::homogeneous_server(2));
        assert!(ctx.reduce_time(0, 2000) > ctx.reduce_time(0, 1000));
    }

    #[test]
    fn slower_device_reduces_slower() {
        let profiles = profile::heterogeneous_server(4);
        let ctx = CollectiveContext::new(Topology::pcie(4), &profiles);
        // Device 3 has speed 0.76 < device 0's 1.0.
        assert!(ctx.reduce_time(3, 1 << 20) > ctx.reduce_time(0, 1 << 20));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn profile_count_must_match_topology() {
        let _ = CollectiveContext::new(Topology::pcie(4), &profile::homogeneous_server(2));
    }

    #[test]
    fn timing_duration() {
        let t = AllReduceTiming {
            start: SimTime(1.0),
            end: SimTime(3.5),
            bytes_moved: 10,
        };
        assert!((t.duration() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn cluster_context_routes_cross_server_pairs_to_inter_link() {
        let cluster = asgd_gpusim::ClusterTopology::ethernet(2, 2);
        let ctx = CollectiveContext::cluster(&cluster, &profile::homogeneous_server(4));
        assert!(ctx.is_cluster());
        assert_eq!(ctx.server_of(1), 0);
        assert_eq!(ctx.server_of(2), 1);
        let elems = 1 << 20;
        // Devices 0,1 share server 0; device 2 is on server 1.
        let intra = ctx.p2p_time(0, 1, elems);
        let inter = ctx.p2p_time(0, 2, elems);
        assert!(inter > intra);
        assert_eq!(inter, cluster.inter_time(4 * elems));
        // Single-server contexts keep the old timing exactly.
        let flat = CollectiveContext::new(Topology::pcie(4), &profile::homogeneous_server(4));
        assert!(!flat.is_cluster());
        assert_eq!(flat.server_of(3), 0);
        assert_eq!(
            flat.p2p_time(0, 2, elems),
            Topology::pcie(4).p2p_time(
                asgd_gpusim::DeviceId(0),
                asgd_gpusim::DeviceId(2),
                4 * elems
            )
        );
    }

    #[test]
    fn subset_keeps_server_assignments() {
        let cluster = asgd_gpusim::ClusterTopology::ethernet(2, 2);
        let ctx = CollectiveContext::cluster(&cluster, &profile::homogeneous_server(4));
        // Drop device 1: survivors 0 (server 0), 2 and 3 (server 1).
        let sub = ctx.subset(&[0, 2, 3]);
        assert_eq!(sub.n_devices(), 3);
        assert_eq!(sub.server_of(0), 0);
        assert_eq!(sub.server_of(1), 1);
        let elems = 1 << 20;
        // Survivor pair (0, 2) now sits at subset indices (0, 1) but still
        // spans servers, so it still pays the inter link.
        assert_eq!(sub.p2p_time(0, 1, elems), cluster.inter_time(4 * elems));
        assert_eq!(sub.p2p_time(1, 2, elems), ctx.p2p_time(2, 3, elems));
    }

    #[test]
    fn flat_subset_matches_a_rebuilt_survivor_context() {
        // A survivor merge may subset the run's flat context instead of
        // rebuilding a smaller one: both must time every algorithm
        // bit-identically.
        let s = 0.001;
        let profiles: Vec<DeviceProfile> = profile::heterogeneous_server(4)
            .into_iter()
            .map(|p| p.with_overhead_scale(s))
            .collect();
        let ctx = CollectiveContext::new(Topology::pcie(4).with_setup_scale(s), &profiles);
        let alive = [0, 2, 3];
        let survivors: Vec<DeviceProfile> = alive.iter().map(|&g| profiles[g].clone()).collect();
        let rebuilt = CollectiveContext::new(Topology::pcie(3).with_setup_scale(s), &survivors);
        let subset = ctx.subset(&alive);
        let arrivals = [SimTime(0.5), SimTime(0.25), SimTime(0.75)];
        let weights = [0.5, 0.3, 0.2];
        for algo in [
            crate::Algorithm::Naive,
            crate::Algorithm::Tree,
            crate::Algorithm::Ring,
            crate::Algorithm::HalvingDoubling,
            crate::Algorithm::MultiStreamRing { partitions: 3 },
        ] {
            let time = |c: &CollectiveContext| {
                let mut bufs: Vec<asgd_tensor::FlatVec> = (0..3)
                    .map(|i| asgd_tensor::FlatVec::F32(vec![i as f32; 4096]))
                    .collect();
                crate::allreduce_flat(&mut bufs, &weights, algo, c, &arrivals)
            };
            let (a, b) = (time(&subset), time(&rebuilt));
            assert_eq!(
                a.start.secs().to_bits(),
                b.start.secs().to_bits(),
                "{algo:?}"
            );
            assert_eq!(a.end.secs().to_bits(), b.end.secs().to_bits(), "{algo:?}");
            assert_eq!(a.bytes_moved, b.bytes_moved, "{algo:?}");
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn subset_rejects_unsorted_survivors() {
        let ctx = CollectiveContext::new(Topology::pcie(2), &profile::homogeneous_server(2));
        let _ = ctx.subset(&[1, 0]);
    }
}
