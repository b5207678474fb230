//! Serving observability records.
//!
//! The query server (`bc-serve`) emits one [`ServeRow`] per executed
//! batch and one per applied edge edit: batch sizes, cache
//! hit/miss/evict counts, invalidated-root counts on edits, queue
//! depth, and per-request latency. Like every other record in this
//! crate the rows are pure observations — two runs of the same
//! workload produce identical rows, which the verification layer's
//! stage-5 replay check enforces.

use serde::Serialize;

/// Completion record of one request within a batch row.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct RequestLatency {
    /// Caller-assigned request id.
    pub id: u64,
    /// Simulated arrival time (seconds).
    pub arrival: f64,
    /// Simulated completion time (seconds).
    pub completed: f64,
    /// `completed - arrival`, stored so a consumer never re-derives
    /// it with different rounding.
    pub latency: f64,
}

/// One serving event: an executed batch (`event == "batch"`) or an
/// applied edge edit (`event == "edit"`). Rendered to JSONL as a
/// `{"kind":"serve", ...}` line.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct ServeRow {
    /// `"batch"` or `"edit"`.
    pub event: String,
    /// Row sequence number within the server's lifetime.
    pub seq: u64,
    /// Resident graph the event targeted.
    pub graph: String,
    /// Graph epoch the event executed against (for edits: the epoch
    /// *after* the bump).
    pub epoch: u64,
    /// Simulated time the batch started executing / the edit applied.
    pub at: f64,
    /// Requests answered by this batch (0 for edits).
    pub batch_size: u64,
    /// Pending requests across all graphs when the batch flushed.
    pub queue_depth: u64,
    /// Unique roots the batch's queries coalesced to (0 for edits).
    pub requested_roots: u64,
    /// Roots answered from cache.
    pub cache_hits: u64,
    /// Roots that had to be computed.
    pub cache_misses: u64,
    /// Entries evicted while inserting this batch's results.
    pub cache_evictions: u64,
    /// Edits: cached roots dropped by the invalidation test (or all
    /// of them on a full-invalidation fallback).
    pub invalidated_roots: u64,
    /// Edits: cached roots whose BFS DAG the edit provably does not
    /// touch, re-keyed forward to the new epoch.
    pub carried_roots: u64,
    /// Whether an edit fell back to full invalidation (touched set
    /// exceeded the configured threshold).
    pub full_invalidation: bool,
    /// Simulated device seconds this batch cost (0 for edits and for
    /// fully cache-served batches).
    pub priced_seconds: f64,
    /// Score vectors this batch merged from contributions: its
    /// distinct root lists minus those the previous batch of the same
    /// graph and epoch already merged (0 for edits).
    pub merges: u64,
    /// Per-request completion records, in request-id order.
    pub latencies: Vec<RequestLatency>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_row_serializes() {
        let row = ServeRow {
            event: "batch".to_owned(),
            seq: 3,
            graph: "default".to_owned(),
            batch_size: 2,
            latencies: vec![RequestLatency {
                id: 7,
                arrival: 1.0,
                completed: 1.5,
                latency: 0.5,
            }],
            ..Default::default()
        };
        let json = serde_json::to_string(&row).unwrap();
        assert!(json.contains("\"event\":\"batch\""));
        assert!(json.contains("\"id\":7"));
    }
}
