//! Progressive (chunked) result delivery.
//!
//! Blocking delivery ships the whole result as one response: the user
//! stares at a spinner for `rtt + all_bytes/bandwidth`. Progressive
//! delivery streams fixed-size chunks over one connection: the first
//! rows are on screen after `rtt + chunk_bytes/bandwidth`, and the UI
//! fills in behind. Experiment E5 measures exactly this first-usable-
//! response gap across network profiles.

use crate::network::{estimate_row_bytes, NetworkProfile};
use drugtree_store::value::Value;
use std::time::Duration;

/// Default rows per chunk.
pub const DEFAULT_CHUNK_ROWS: usize = 20;

/// Arrival schedule of one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTiming {
    /// Rows in the chunk.
    pub rows: usize,
    /// Bytes on the wire.
    pub bytes: usize,
    /// Time from request start until the chunk is fully received.
    pub arrival: Duration,
}

/// The delivery schedule of one result set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliverySchedule {
    /// Chunk arrivals, in order.
    pub chunks: Vec<ChunkTiming>,
    /// Total bytes shipped.
    pub total_bytes: usize,
}

impl DeliverySchedule {
    /// Time until the first rows are usable (an empty result still
    /// costs one RTT to learn it is empty).
    pub fn first_usable(&self) -> Duration {
        self.chunks.first().map_or(Duration::ZERO, |c| c.arrival)
    }

    /// Time until the full result has arrived.
    pub fn complete(&self) -> Duration {
        self.chunks.last().map_or(Duration::ZERO, |c| c.arrival)
    }
}

/// Blocking delivery: one response carrying everything.
pub fn blocking_delivery(rows: &[Vec<Value>], net: &NetworkProfile) -> DeliverySchedule {
    let bytes: usize = rows
        .iter()
        .map(|r| estimate_row_bytes(r))
        .sum::<usize>()
        .max(16);
    DeliverySchedule {
        chunks: vec![ChunkTiming {
            rows: rows.len(),
            bytes,
            arrival: net.transfer_time(bytes),
        }],
        total_bytes: bytes,
    }
}

/// Progressive delivery in chunks of `chunk_rows`.
///
/// It completes when [`blocking_delivery`] does and ships the same
/// bytes: the chunks share one RTT and stream the same rows. So a
/// blocking response, whose first usable content arrives only when it
/// completes, is read off a progressive schedule's `complete()`
/// (experiment E5 does). One exception: the 16-byte floor applies per
/// chunk, so a result whose last chunk is under 16 bytes ships more
/// bytes, and completes later, progressively.
pub fn progressive_delivery(
    rows: &[Vec<Value>],
    net: &NetworkProfile,
    chunk_rows: usize,
) -> DeliverySchedule {
    let chunk_rows = chunk_rows.max(1);
    if rows.is_empty() {
        return blocking_delivery(rows, net);
    }
    let mut chunks = Vec::new();
    let mut elapsed = Duration::ZERO;
    let mut total_bytes = 0usize;
    for (i, chunk) in rows.chunks(chunk_rows).enumerate() {
        let bytes: usize = chunk
            .iter()
            .map(|r| estimate_row_bytes(r))
            .sum::<usize>()
            .max(16);
        total_bytes += bytes;
        // First chunk pays the RTT; later chunks stream on the open
        // connection.
        elapsed += if i == 0 {
            net.transfer_time(bytes)
        } else {
            net.streaming_time(bytes)
        };
        chunks.push(ChunkTiming {
            rows: chunk.len(),
            bytes,
            arrival: elapsed,
        });
    }
    DeliverySchedule {
        chunks,
        total_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::from("CHEMBL-something"),
                    Value::Float(6.5),
                ]
            })
            .collect()
    }

    #[test]
    fn progressive_first_chunk_beats_blocking() {
        let rows = rows(500);
        let net = NetworkProfile::CELL_3G;
        let blocking = blocking_delivery(&rows, &net);
        let progressive = progressive_delivery(&rows, &net, DEFAULT_CHUNK_ROWS);
        assert!(progressive.first_usable() < blocking.first_usable());
        // Completion times are close: same bytes, one shared RTT.
        let d = progressive.complete().abs_diff(blocking.complete());
        assert!(d < Duration::from_millis(5), "gap {d:?}");
        assert_eq!(progressive.total_bytes, blocking.total_bytes);
    }

    /// The identity E5 reads, over glyph-shaped rows (label, three
    /// ints, a float) and listing-shaped rows, with the one exception
    /// the per-chunk 16-byte floor makes.
    #[test]
    fn progressive_completes_when_blocking_does() {
        let glyph: fn(usize) -> Vec<Value> = |i| {
            vec![
                Value::from(format!("n{i}")),
                Value::Int(i as i64),
                Value::Int(2 * i as i64 + 1),
                Value::Int(7),
                Value::Float(6.5),
            ]
        };
        let listing: fn(usize) -> Vec<Value> = |i| {
            vec![
                Value::Int(i as i64),
                Value::from(format!("P{i}")),
                Value::from(format!("CHEMBL{i}")),
                Value::from("IC50"),
                Value::Float(12.5),
                Value::Float(7.9),
                Value::from("assay-sim"),
                Value::Int(2012),
                Value::from("aspirin"),
                Value::from("CC(=O)Oc1ccccc1C(=O)O"),
                Value::Float(180.16),
                Value::Int(1),
                Value::Int(4),
                Value::Int(1),
            ]
        };
        for shape in [glyph, listing] {
            for n in 0..=400 {
                let rows: Vec<Vec<Value>> = (0..n).map(shape).collect();
                for net in NetworkProfile::ALL {
                    let blocking = blocking_delivery(&rows, &net);
                    let progressive = progressive_delivery(&rows, &net, DEFAULT_CHUNK_ROWS);
                    assert_eq!(
                        (progressive.complete(), progressive.total_bytes),
                        (blocking.complete(), blocking.total_bytes),
                        "{n} rows on {}",
                        net.name
                    );
                }
            }
        }
        // The exception: 21 one-int rows leave an 11-byte last chunk,
        // floored to 16.
        let tiny: Vec<Vec<Value>> = (0..21).map(|i| vec![Value::Int(i)]).collect();
        let net = NetworkProfile::WIFI;
        assert_eq!(
            (
                progressive_delivery(&tiny, &net, DEFAULT_CHUNK_ROWS).total_bytes,
                blocking_delivery(&tiny, &net).total_bytes
            ),
            (236, 231)
        );
    }

    #[test]
    fn chunk_arrivals_are_monotone() {
        let rows = rows(123);
        let s = progressive_delivery(&rows, &NetworkProfile::CELL_4G, 10);
        assert_eq!(s.chunks.len(), 13);
        assert!(s.chunks.windows(2).all(|w| w[0].arrival < w[1].arrival));
        let delivered: usize = s.chunks.iter().map(|c| c.rows).sum();
        assert_eq!(delivered, 123);
    }

    #[test]
    fn empty_result_costs_one_rtt() {
        let s = progressive_delivery(&[], &NetworkProfile::WIFI, 20);
        assert_eq!(s.chunks.len(), 1);
        assert!(s.first_usable() >= NetworkProfile::WIFI.rtt);
    }

    #[test]
    fn first_usable_nearly_profile_independent_relative_to_blocking() {
        // The E5 claim: with progressive delivery, the first-chunk
        // latency degrades far less across profiles than blocking
        // full-result latency does.
        let rows = rows(1000);
        let blocking_ratio = blocking_delivery(&rows, &NetworkProfile::EDGE)
            .complete()
            .as_secs_f64()
            / blocking_delivery(&rows, &NetworkProfile::WIFI)
                .complete()
                .as_secs_f64();
        let progressive_ratio = progressive_delivery(&rows, &NetworkProfile::EDGE, 20)
            .first_usable()
            .as_secs_f64()
            / progressive_delivery(&rows, &NetworkProfile::WIFI, 20)
                .first_usable()
                .as_secs_f64();
        assert!(
            progressive_ratio < blocking_ratio,
            "progressive {progressive_ratio:.1}x vs blocking {blocking_ratio:.1}x"
        );
    }

    #[test]
    fn single_chunk_when_small() {
        let rows = rows(5);
        let s = progressive_delivery(&rows, &NetworkProfile::WIFI, 20);
        assert_eq!(s.chunks.len(), 1);
        assert_eq!(s.first_usable(), s.complete());
    }

    #[test]
    fn zero_chunk_rows_clamped() {
        let rows = rows(3);
        let s = progressive_delivery(&rows, &NetworkProfile::WIFI, 0);
        assert_eq!(s.chunks.len(), 3);
    }
}
