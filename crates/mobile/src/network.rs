//! Mobile network profiles.
//!
//! Transfer time is charged to the virtual clock exactly like source
//! latency: `rtt + bytes / bandwidth`. Profiles approximate 2013-era
//! radio links — the environment the paper's mobile users sat behind.

use std::time::Duration;

/// A last-hop network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkProfile {
    /// Display name.
    pub name: &'static str,
    /// Downlink bandwidth, bits per second.
    pub bandwidth_bps: u64,
    /// Round-trip time.
    pub rtt: Duration,
}

impl NetworkProfile {
    /// Office WiFi: 20 Mbit/s, 20 ms RTT.
    pub const WIFI: NetworkProfile = NetworkProfile {
        name: "wifi",
        bandwidth_bps: 20_000_000,
        rtt: Duration::from_millis(20),
    };

    /// Early LTE: 5 Mbit/s, 70 ms RTT.
    pub const CELL_4G: NetworkProfile = NetworkProfile {
        name: "4g",
        bandwidth_bps: 5_000_000,
        rtt: Duration::from_millis(70),
    };

    /// HSPA 3G: 1 Mbit/s, 150 ms RTT.
    pub const CELL_3G: NetworkProfile = NetworkProfile {
        name: "3g",
        bandwidth_bps: 1_000_000,
        rtt: Duration::from_millis(150),
    };

    /// EDGE fallback: 200 kbit/s, 400 ms RTT.
    pub const EDGE: NetworkProfile = NetworkProfile {
        name: "edge",
        bandwidth_bps: 200_000,
        rtt: Duration::from_millis(400),
    };

    /// All built-in profiles, fastest first.
    pub const ALL: [NetworkProfile; 4] = [
        NetworkProfile::WIFI,
        NetworkProfile::CELL_4G,
        NetworkProfile::CELL_3G,
        NetworkProfile::EDGE,
    ];

    /// Time to deliver one response of `bytes` (one RTT + serialization
    /// on the link).
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        let secs = (bytes as f64 * 8.0) / self.bandwidth_bps as f64;
        self.rtt + Duration::from_secs_f64(secs)
    }

    /// Time for a follow-up chunk on an open connection (no extra
    /// RTT; the stream is already flowing).
    pub fn streaming_time(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64((bytes as f64 * 8.0) / self.bandwidth_bps as f64)
    }
}

/// Rough wire size of one result row (JSON-ish framing).
pub fn estimate_row_bytes(row: &[drugtree_store::value::Value]) -> usize {
    use drugtree_store::value::Value;
    2 + row
        .iter()
        .map(|v| match v {
            Value::Null => 4,
            Value::Bool(_) => 5,
            Value::Int(_) => 8,
            Value::Float(_) => 12,
            Value::Text(s) => s.len() + 3,
        } + 1)
        .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_store::value::Value;

    #[test]
    fn transfer_time_components() {
        // 1 Mbit/s, 1 KB -> 8 ms on the wire + 150 ms RTT.
        let t = NetworkProfile::CELL_3G.transfer_time(1000);
        assert_eq!(t, Duration::from_millis(150) + Duration::from_millis(8));
        assert_eq!(
            NetworkProfile::CELL_3G.streaming_time(1000),
            Duration::from_millis(8)
        );
    }

    #[test]
    fn profiles_ordered_by_speed() {
        let bytes = 100_000;
        let times: Vec<Duration> = NetworkProfile::ALL
            .iter()
            .map(|p| p.transfer_time(bytes))
            .collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
    }

    #[test]
    fn zero_bytes_costs_one_rtt() {
        assert_eq!(
            NetworkProfile::WIFI.transfer_time(0),
            NetworkProfile::WIFI.rtt
        );
    }

    #[test]
    fn row_bytes_scale_with_content() {
        let small = estimate_row_bytes(&[Value::Int(1)]);
        let big = estimate_row_bytes(&[
            Value::Int(1),
            Value::from("a-reasonably-long-smiles-string-CCCCCC"),
            Value::Float(1.0),
        ]);
        assert!(big > small);
        assert!(small > 0);
    }
}
