//! Request batching and coalescing (design decision D3).
//!
//! The dominant "lag" the paper complains about comes from issuing one
//! round-trip per tree leaf. The batcher turns `k` distinct keys into
//! `⌈k / max_batch⌉` requests, and can model the batches being
//! dispatched concurrently (cost = max) or sequentially (cost = sum).

use crate::clock::{parallel_cost, sequential_cost};
use crate::source::{DataSource, FetchRequest, FetchResponse};
use crate::{Result, SourceError};
use drugtree_store::expr::Predicate;
use drugtree_store::table::Table;
use drugtree_store::value::Value;
use std::ops::Deref;
use std::time::Duration;

/// Lookup keys in strictly increasing order. [`SortedKeys::new`] is
/// the only constructor, and it sorts and deduplicates, so a batched
/// lookup never ships a key twice and always cuts the same keys into
/// the same requests.
///
/// ```compile_fail
/// use drugtree_sources::batcher::SortedKeys;
/// use drugtree_store::value::Value;
/// // The field is private: keys cannot be wrapped unsorted.
/// let keys = SortedKeys(vec![Value::Int(2), Value::Int(1), Value::Int(1)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SortedKeys(Vec<Value>);

impl SortedKeys {
    /// Sort and deduplicate `keys`.
    pub fn new(mut keys: Vec<Value>) -> SortedKeys {
        keys.sort();
        keys.dedup();
        SortedKeys(keys)
    }
}

impl Deref for SortedKeys {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.0
    }
}

/// How transient failures of individual requests are retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
        }
    }
}

/// Issue one request, retrying transient failures per the policy.
/// Returns the response with the failed attempts' timeout + backoff
/// added to its cost, plus the number of retries performed.
pub fn fetch_with_retry(
    source: &dyn DataSource,
    request: &FetchRequest,
    retry: RetryPolicy,
) -> Result<(FetchResponse, u32)> {
    let mut wasted = Duration::ZERO;
    let mut attempt = 0u32;
    loop {
        match source.fetch(request) {
            Ok(mut resp) => {
                resp.cost += wasted;
                return Ok((resp, attempt));
            }
            Err(SourceError::Transient { cost, .. }) if attempt + 1 < retry.max_attempts.max(1) => {
                // The failed attempt's timeout, then exponential
                // backoff before trying again — both serial.
                wasted += cost + retry.base_backoff * 2u32.pow(attempt);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// How multiple batches are dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// One batch at a time; total cost is the sum.
    Sequential,
    /// All batches in flight together; total cost is the max.
    Concurrent,
}

/// The combined result of a batched fetch.
#[derive(Debug, Clone)]
pub struct BatchedResponse {
    /// Each successful round-trip's shipped rows, in request order.
    pub batches: Vec<Table>,
    /// Transient failures retried along the way.
    pub retries: u32,
    /// Combined simulated cost under the chosen dispatch mode
    /// (including failed attempts' timeouts and backoffs).
    pub cost: Duration,
}

impl BatchedResponse {
    /// Number of successful round-trips issued.
    pub fn requests(&self) -> usize {
        self.batches.len()
    }

    /// Rows shipped across every batch.
    pub fn rows(&self) -> usize {
        self.batches.iter().map(Table::len).sum()
    }
}

/// Fetch `keys` from `source` in requests of at most `max_batch` keys
/// each (a `max_batch` of 1 sends one request per key), with an
/// optional pushdown predicate applied to every request and transient
/// failures retried per `retry`.
pub fn batched_lookup_with_retry(
    source: &dyn DataSource,
    keys: &SortedKeys,
    predicate: Option<&Predicate>,
    max_batch: usize,
    dispatch: Dispatch,
    retry: RetryPolicy,
) -> Result<BatchedResponse> {
    let mut responses: Vec<FetchResponse> = Vec::new();
    let mut retries = 0u32;
    for chunk in keys.chunks(max_batch.max(1)) {
        let mut req = FetchRequest::lookup(chunk.to_vec());
        if let Some(p) = predicate {
            req = req.with_predicate(p.clone());
        }
        let (resp, r) = fetch_with_retry(source, &req, retry)?;
        retries += r;
        responses.push(resp);
    }

    let cost = match dispatch {
        Dispatch::Sequential => sequential_cost(responses.iter().map(|r| r.cost)),
        Dispatch::Concurrent => parallel_cost(responses.iter().map(|r| r.cost)),
    };
    Ok(BatchedResponse {
        batches: responses.into_iter().map(|r| r.table).collect(),
        retries,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::source::{SimulatedSource, SourceCapabilities, SourceKind};
    use drugtree_store::schema::{Column, Schema};
    use drugtree_store::table::Table;
    use drugtree_store::value::ValueType;

    fn source(max_batch: usize, n_rows: i64) -> SimulatedSource {
        let schema = Schema::new(vec![
            Column::required("k", ValueType::Int),
            Column::required("v", ValueType::Int),
        ]);
        let mut t = Table::new("t", schema).unwrap();
        for i in 0..n_rows {
            t.append_row(&[Value::Int(i), Value::Int(i * 10)]).unwrap();
        }
        SimulatedSource::new(
            "s",
            SourceKind::Assay,
            t,
            "k",
            SourceCapabilities {
                max_batch,
                ..SourceCapabilities::full()
            },
            LatencyModel {
                base_rtt: Duration::from_millis(100),
                per_row: Duration::from_millis(1),
                per_row_scanned: Duration::ZERO,
                jitter: 0.0,
                seed: 0,
            },
        )
        .unwrap()
    }

    fn keys(n: i64) -> SortedKeys {
        SortedKeys::new((0..n).map(Value::Int).collect())
    }

    fn lookup(
        s: &dyn DataSource,
        keys: &SortedKeys,
        predicate: Option<&Predicate>,
        max_batch: usize,
        dispatch: Dispatch,
    ) -> Result<BatchedResponse> {
        batched_lookup_with_retry(s, keys, predicate, max_batch, dispatch, RetryPolicy::none())
    }

    #[test]
    fn batching_reduces_round_trips() {
        let s = source(10, 30);
        let batched = lookup(&s, &keys(30), None, 10, Dispatch::Sequential).unwrap();
        assert_eq!(batched.requests(), 3);
        assert_eq!(batched.rows(), 30);
        // One typed batch per request, each its keys' rows in key order.
        for (b, batch) in batched.batches.iter().enumerate() {
            let keys: Vec<Value> = (0..batch.len()).map(|i| batch.cell(i, 0)).collect();
            let want: Vec<Value> = (10 * b as i64..10 * (b as i64 + 1))
                .map(Value::Int)
                .collect();
            assert_eq!(keys, want);
        }
        // 3 * (100ms + 10 rows * 1ms) = 330ms.
        assert_eq!(batched.cost, Duration::from_millis(330));

        let naive = lookup(&s, &keys(30), None, 1, Dispatch::Sequential).unwrap();
        assert_eq!(naive.requests(), 30);
        // 30 * 101ms.
        assert_eq!(naive.cost, Duration::from_millis(3030));
        assert_eq!(naive.rows(), 30);
        assert!(batched.cost < naive.cost);
    }

    #[test]
    fn concurrent_dispatch_takes_max() {
        let s = source(10, 30);
        let resp = lookup(&s, &keys(30), None, 10, Dispatch::Concurrent).unwrap();
        assert_eq!(resp.requests(), 3);
        // max over three equal-cost batches.
        assert_eq!(resp.cost, Duration::from_millis(110));
    }

    #[test]
    fn sorted_keys_sort_and_dedupe() {
        let shuffled: Vec<Value> = [3, 1, 4, 1, 0, 2, 4].map(Value::Int).to_vec();
        let ks = SortedKeys::new(shuffled);
        assert_eq!(ks, keys(5));
        assert!(ks.windows(2).all(|pair| pair[0] < pair[1]));
        let resp = lookup(&source(10, 5), &ks, None, 10, Dispatch::Sequential).unwrap();
        assert_eq!(resp.requests(), 1);
        assert_eq!(resp.rows(), 5);
    }

    #[test]
    fn empty_key_set_costs_nothing() {
        let s = source(10, 5);
        let resp = lookup(
            &s,
            &SortedKeys::new(Vec::new()),
            None,
            10,
            Dispatch::Sequential,
        )
        .unwrap();
        assert_eq!(resp.requests(), 0);
        assert_eq!(resp.cost, Duration::ZERO);
        assert!(resp.batches.is_empty());
    }

    #[test]
    fn predicate_applies_to_every_batch() {
        use drugtree_store::expr::CompareOp;
        let s = source(2, 10);
        let pred = Predicate::cmp("v", CompareOp::Ge, 50i64);
        let resp = lookup(&s, &keys(10), Some(&pred), 2, Dispatch::Sequential).unwrap();
        assert_eq!(resp.requests(), 5);
        assert_eq!(resp.rows(), 5); // v = 50..90
        let naive = lookup(&s, &keys(10), Some(&pred), 1, Dispatch::Sequential).unwrap();
        assert_eq!(naive.rows(), 5);
    }

    #[test]
    fn retry_recovers_and_charges_wasted_time() {
        use crate::flaky::FlakySource;
        use std::sync::Arc;
        // Fail roughly half the requests; retries must recover every
        // key and surface the wasted time in the cost.
        let flaky = Arc::new(FlakySource::new(
            Arc::new(source(10, 20)),
            0.5,
            Duration::from_millis(500),
            13,
        ));
        let retry = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
        };
        let resp = batched_lookup_with_retry(
            flaky.as_ref(),
            &keys(20),
            None,
            10,
            Dispatch::Sequential,
            retry,
        )
        .unwrap();
        assert_eq!(resp.rows(), 20);
        assert!(resp.retries > 0, "some requests must have been retried");
        // Two clean batches would cost 2*(100 + 10*1) = 220ms; retries
        // add at least one 500ms timeout.
        assert!(
            resp.cost > Duration::from_millis(700),
            "cost {:?}",
            resp.cost
        );
        assert!(flaky.failures() as u32 == resp.retries);
    }

    #[test]
    fn retry_none_propagates_first_failure() {
        use crate::flaky::FlakySource;
        use std::sync::Arc;
        let flaky = Arc::new(FlakySource::new(
            Arc::new(source(10, 5)),
            1.0,
            Duration::from_millis(10),
            1,
        ));
        let err = lookup(flaky.as_ref(), &keys(5), None, 1, Dispatch::Sequential).unwrap_err();
        assert!(matches!(err, SourceError::Transient { .. }));
        assert_eq!(flaky.attempts(), 1, "no retries without a policy");
    }

    #[test]
    fn exhausted_retries_fail() {
        use crate::flaky::FlakySource;
        use std::sync::Arc;
        let flaky = Arc::new(FlakySource::new(
            Arc::new(source(10, 5)),
            1.0,
            Duration::from_millis(10),
            1,
        ));
        let retry = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
        };
        let err = fetch_with_retry(
            flaky.as_ref(),
            &FetchRequest::lookup(keys(1).to_vec()),
            retry,
        )
        .unwrap_err();
        assert!(matches!(err, SourceError::Transient { .. }));
        assert_eq!(flaky.attempts(), 4);
    }

    #[test]
    fn respects_source_batch_limit() {
        let s = source(1, 4);
        let resp = lookup(&s, &keys(4), None, 1, Dispatch::Sequential).unwrap();
        assert_eq!(resp.requests(), 4, "max_batch=1 degenerates to singletons");
    }
}
