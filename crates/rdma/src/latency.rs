//! Latency cost models for the simulated interconnect.

/// Virtual-time costs of the simulated network operations, in nanoseconds.
///
/// [`LatencyProfile::rdma`] models the paper's ConnectX-3 56 Gbps
/// InfiniBand with one-sided verbs; [`LatencyProfile::zero`] is for
/// functional tests that measure no time.
///
/// The split between `*_base_ns` and `*_byte_ns_x1000` matters for
/// doorbell batching (`crate::DoorbellConfig`): ops riding an open
/// doorbell amortise the base cost (doorbell ring + DMA + wire setup
/// overlap across the batch) but always pay the full per-byte cost —
/// batching hides launch latency, not bandwidth.
///
/// The absolute values are taken from the paper where it reports them
/// (§6.3: RDMA CAS ≈ 14.5 µs on their NIC vs 0.08 µs local CAS is noted
/// as anomalously slow, so the default uses a round-trip-calibrated 6 µs;
/// Figure 10(a)/(c): small one-sided READ round trip ≈ 3 µs, bandwidth
/// ≈ 7 GB/s) and from common ConnectX-3 microbenchmarks elsewhere. The
/// harnesses only depend on the *ratios* (remote ≫ local, CAS > READ >
/// WRITE), which are faithful.
#[derive(Debug, Clone)]
pub struct LatencyProfile {
    /// Base round-trip cost of a one-sided READ.
    pub read_base_ns: u64,
    /// Additional READ cost per byte of payload (wire + PCIe).
    pub read_byte_ns_x1000: u64,
    /// Base round-trip cost of a one-sided WRITE.
    pub write_base_ns: u64,
    /// Additional WRITE cost per byte of payload.
    pub write_byte_ns_x1000: u64,
    /// Cost of a one-sided CAS.
    pub atomic_ns: u64,
    /// Cost of a local CPU CAS (used when the fallback handler may lock
    /// local records without the NIC, §6.3).
    pub local_atomic_ns: u64,
    /// One-way cost of a SEND/RECV verbs message.
    pub send_base_ns: u64,
    /// Additional SEND cost per byte of payload.
    pub send_byte_ns_x1000: u64,
    /// CPU cost of posting one work request (building the WQE and
    /// ringing or appending to the doorbell): the only part of an op's
    /// latency the issuing thread cannot overlap with other posted ops.
    /// It is the head of the op's latency, not an addition to it, so a
    /// posted-then-awaited op costs what its `*_ns` above says.
    pub post_ns: u64,
}

impl LatencyProfile {
    /// ConnectX-3-like one-sided RDMA profile (the DrTM transport).
    ///
    /// The per-byte cost folds in server-NIC occupancy (the paper's
    /// Figure 10(a) shows aggregate READ throughput collapsing with
    /// payload size well before the 56 Gbps line rate), so large reads
    /// are penalised the way the shared NIC penalises them in reality.
    pub fn rdma() -> Self {
        LatencyProfile {
            read_base_ns: 3_000,
            read_byte_ns_x1000: 3_500, // 3.5 ns/B effective incl. NIC occupancy
            write_base_ns: 2_500,
            write_byte_ns_x1000: 3_500,
            atomic_ns: 6_000,
            local_atomic_ns: 80,
            send_base_ns: 5_000,
            send_byte_ns_x1000: 600,
            post_ns: 200,
        }
    }

    /// A zero-cost profile for functional tests that do not measure time.
    pub fn zero() -> Self {
        LatencyProfile {
            read_base_ns: 0,
            read_byte_ns_x1000: 0,
            write_base_ns: 0,
            write_byte_ns_x1000: 0,
            atomic_ns: 0,
            local_atomic_ns: 0,
            send_base_ns: 0,
            send_byte_ns_x1000: 0,
            post_ns: 0,
        }
    }

    /// Cost of a one-sided READ of `len` bytes.
    pub fn read_ns(&self, len: usize) -> u64 {
        self.read_base_ns + self.read_byte_ns_x1000 * len as u64 / 1000
    }

    /// Cost of a one-sided WRITE of `len` bytes.
    pub fn write_ns(&self, len: usize) -> u64 {
        self.write_base_ns + self.write_byte_ns_x1000 * len as u64 / 1000
    }

    /// Cost of a SEND of `len` bytes (one way).
    pub fn send_ns(&self, len: usize) -> u64 {
        self.send_base_ns + self.send_byte_ns_x1000 * len as u64 / 1000
    }
}

impl Default for LatencyProfile {
    fn default() -> Self {
        LatencyProfile::rdma()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_scales_cost() {
        let p = LatencyProfile::rdma();
        assert!(p.read_ns(8192) > p.read_ns(64));
        assert_eq!(p.read_ns(0), p.read_base_ns);
        // 8 KB adds tens of µs of wire + occupancy cost.
        assert_eq!(p.read_ns(8192), 3_000 + 3_500 * 8192 / 1000);
    }

    #[test]
    fn zero_profile_is_free() {
        let p = LatencyProfile::zero();
        assert_eq!(p.read_ns(4096), 0);
        assert_eq!(p.write_ns(4096), 0);
        assert_eq!(p.send_ns(4096), 0);
    }
}
