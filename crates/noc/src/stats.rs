//! Network-level statistics: the raw material of Figures 9–15.

// A stats-accumulation path: a counter narrowed by an `as` cast loses
// high-traffic runs silently (DESIGN.md §6, C003).
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use anoc_core::codec::{CodecActivity, EncodeStats};
use anoc_core::metrics::QualityAccumulator;

use crate::faults::FaultStats;
use crate::histogram::LatencyHistogram;
use crate::router::RouterActivity;

anoc_core::stats_record! {
    /// Statistics collected over the measurement window.
    #[derive(Debug, Clone, Default)]
    pub struct NetStats {
        /// Cycles elapsed inside the measurement window.
        pub cycles: u64,
        /// Completed packets.
        pub packets: u64,
        /// Completed data packets.
        pub data_packets: u64,
        /// Completed control packets.
        pub control_packets: u64,
        /// Sum of NI queueing latency (creation → head flit injection),
        /// including any exposed compression latency.
        pub queue_lat_sum: u64,
        /// Sum of network latency (injection → tail ejection).
        pub net_lat_sum: u64,
        /// Sum of decompression latency.
        pub decode_lat_sum: u64,
        /// Flits injected (all kinds).
        pub flits_injected: u64,
        /// Data flits injected (header + payload of data packets).
        pub data_flits_injected: u64,
        /// Control flits injected.
        pub control_flits_injected: u64,
        /// Flits delivered to NIs.
        pub flits_delivered: u64,
        /// Data flits an uncompressed baseline would have injected for the same
        /// blocks (the normalization denominator of Figure 11).
        pub baseline_data_flits: u64,
        /// Word-encoding statistics aggregated across all encoders (Figure 10).
        pub encode: EncodeStats,
        /// Data value quality (Figure 9's right axis).
        pub quality: QualityAccumulator,
        /// Packets generated but dropped because the simulation ended before
        /// injection (reported, never silently ignored).
        pub unfinished: u64,
        /// Injected-fault and bound-checker counters (all zero without an
        /// active [`crate::faults::FaultPlan`] / bound checker).
        pub faults: FaultStats,
        /// Distribution of end-to-end packet latencies (tail analysis).
        pub latency_histogram: LatencyHistogram,
    }
}

impl NetStats {
    /// Average end-to-end packet latency in cycles.
    pub fn avg_packet_latency(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            (self.queue_lat_sum + self.net_lat_sum + self.decode_lat_sum) as f64
                / self.packets as f64
        }
    }

    /// Average NI queueing latency per packet.
    pub fn avg_queue_latency(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.queue_lat_sum as f64 / self.packets as f64
        }
    }

    /// Average in-network latency per packet.
    pub fn avg_net_latency(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.net_lat_sum as f64 / self.packets as f64
        }
    }

    /// Average decode latency per packet (amortized over all packets, as the
    /// paper presents it).
    pub fn avg_decode_latency(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.decode_lat_sum as f64 / self.packets as f64
        }
    }

    /// Delivered throughput in flits per node per cycle.
    pub fn throughput(&self, nodes: usize) -> f64 {
        if self.cycles == 0 || nodes == 0 {
            0.0
        } else {
            self.flits_delivered as f64 / (self.cycles as f64 * nodes as f64)
        }
    }

    /// Data-flit volume normalized to the uncompressed baseline (Figure 11).
    pub fn normalized_data_flits(&self) -> f64 {
        if self.baseline_data_flits == 0 {
            1.0
        } else {
            self.data_flits_injected as f64 / self.baseline_data_flits as f64
        }
    }
}

/// All hardware activity of a run, for the dynamic power model (Figure 15).
#[derive(Debug, Clone, Copy, Default)]
pub struct ActivityReport {
    /// Aggregate router events.
    pub routers: RouterActivity,
    /// Aggregate encoder events.
    pub encoders: CodecActivity,
    /// Aggregate decoder events.
    pub decoders: CodecActivity,
    /// Cycles simulated (for leakage/static scaling if desired).
    pub cycles: u64,
}

impl ActivityReport {
    /// Average utilization of the router-to-router links in `[0, 1]`.
    pub fn link_utilization(&self, num_links: usize) -> f64 {
        if self.cycles == 0 || num_links == 0 {
            0.0
        } else {
            self.routers.link_traversals as f64 / (self.cycles as f64 * num_links as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_guard_division_by_zero() {
        let s = NetStats::default();
        assert_eq!(s.avg_packet_latency(), 0.0);
        assert_eq!(s.throughput(16), 0.0);
        assert_eq!(s.normalized_data_flits(), 1.0);
    }

    #[test]
    fn latency_decomposition_adds_up() {
        let s = NetStats {
            packets: 4,
            queue_lat_sum: 40,
            net_lat_sum: 80,
            decode_lat_sum: 8,
            ..Default::default()
        };
        assert_eq!(s.avg_queue_latency(), 10.0);
        assert_eq!(s.avg_net_latency(), 20.0);
        assert_eq!(s.avg_decode_latency(), 2.0);
        assert_eq!(s.avg_packet_latency(), 32.0);
    }

    #[test]
    fn link_utilization_bounds() {
        let mut a = ActivityReport {
            cycles: 100,
            ..Default::default()
        };
        a.routers.link_traversals = 240;
        assert!((a.link_utilization(48) - 0.05).abs() < 1e-12);
        assert_eq!(a.link_utilization(0), 0.0);
        assert_eq!(ActivityReport::default().link_utilization(48), 0.0);
    }

    #[test]
    fn throughput_and_normalization() {
        let s = NetStats {
            cycles: 100,
            flits_delivered: 3200,
            data_flits_injected: 60,
            baseline_data_flits: 100,
            ..Default::default()
        };
        assert_eq!(s.throughput(32), 1.0);
        assert_eq!(s.normalized_data_flits(), 0.6);
    }
}
