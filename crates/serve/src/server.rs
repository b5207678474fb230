//! The batched query server.
//!
//! [`BcServer`] holds resident graphs and answers
//! [`Query::TopK`]/[`Query::PerVertex`]/[`Query::SubgraphBc`] requests
//! against them on a **simulated clock**: requests carry arrival
//! times, concurrent arrivals coalesce into one batch per graph
//! (closed by a configurable batching window or by the next edge
//! edit, whichever comes first), and a batch's device cost is priced
//! by the same [`coarse_grained_makespan`] model the offline solver
//! uses, so latency percentiles are deterministic and replayable.
//!
//! **Determinism contract.** A served response is *bitwise identical*
//! to a cold single-query recompute through
//! [`bc_core::run_roots_scheduled`] followed by the standard epilogue
//! — regardless of how its roots were split between cache hits and
//! misses, how requests were batched, or which schedule/thread-count
//! executed the misses. This holds because the cache unit is the
//! per-root δ contribution extracted by
//! [`bc_core::run_roots_contributions`], and
//! [`bc_core::merge_contribution_entries`] folds contributions with
//! exactly the shard partition and ordering of the multi-root runner.
//! [`cold_answer`] is the reference implementation the verification
//! battery compares against.
//!
//! **Merged vectors outlive the batch.** Each resident graph keeps
//! the merged (halved, normalized) score vector of every distinct root
//! list its previous batch answered, stamped with the `(epoch,
//! fingerprint)` it was merged under. The next batch moves in each
//! vector it needs again, merges only the root lists it lacks, and
//! drops the rest, so memory stays one batch's distinct root lists.
//! The stamp retires the vectors on an edit's epoch bump or an
//! [`BcServer::add_graph`] replacement. Reuse is bitwise-invisible:
//! the merge is a deterministic function of the root list and the
//! epoch's contributions. Root lookups, pinning and miss recompute run
//! unchanged, so no cache counter or priced second depends on reuse.
//!
//! **Malformed input is refused whole.** [`BcServer::run`] checks
//! every event of its slice (resident graph, vertex ids in range,
//! edits without self-loops) before it applies any, and returns a
//! [`ServeError`] with the server unchanged.
//!
//! **Dynamic graphs.** [`Event::Edit`] rebuilds the resident CSR
//! through [`Csr::with_edge_inserted`]/[`Csr::with_edge_removed`],
//! bumps the graph's epoch (retiring stale cache keys), and replays
//! the delta-invalidation test ([`crate::delta::edit_touches_root`])
//! over the cached roots' checkpointed BFS level maps: provably
//! untouched roots are carried forward to the new epoch, touched
//! roots are dropped, and when the touched fraction exceeds
//! [`ServeConfig::invalidate_threshold`] the server degrades to full
//! invalidation (dropping everything) rather than re-keying a
//! mostly-dead population.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bc_core::{
    brandes, graph_digest, merge_contribution_entries, options_fingerprint,
    run_roots_contributions, run_roots_scheduled, DirectionOptimizingModel, RootContribution,
    RootSelection, Schedule, TraversalMode,
};
use std::fmt;

use bc_gpusim::{coarse_grained_makespan, DeviceConfig, SimError};
use bc_graph::{Csr, VertexId};
use bc_metrics::{RequestLatency, ServeRow};

use crate::cache::{CacheKey, CacheStats, ContributionCache};
use crate::delta::{edit_touches_root, EdgeEdit};

/// Seeded serving-layer bugs for the verification battery's mutation
/// tests (production configurations leave this unset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeMutation {
    /// Apply edge edits to the resident graph **without** bumping the
    /// epoch or invalidating the cache — the classic stale-cache bug.
    /// Served scores silently diverge from the edited graph; the
    /// seeded-bug list (`bc_verify::mutants`) must flag this.
    SkipEpochBump,
}

/// Serving configuration. Everything that can change a served score
/// is folded into [`ServeConfig::fingerprint`], so two configs whose
/// fingerprints match may share cache entries.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Simulated device executing the batches.
    pub device: DeviceConfig,
    /// Host threads driving the multi-root runner (scores are bitwise
    /// identical at any setting).
    pub threads: usize,
    /// Root-to-worker schedule (bitwise irrelevant, timing relevant).
    pub schedule: Schedule,
    /// Forward-sweep traversal mode for the direction-optimizing
    /// serve model. Scores are bitwise identical in every mode, but
    /// the mode is fingerprinted because it changes priced timings.
    pub traversal: TraversalMode,
    /// Normalize served scores by `(n-1)(n-2)` (halved when
    /// undirected).
    pub normalize: bool,
    /// Batching window in simulated seconds: a batch flushes
    /// `window` after its first request arrives (or earlier, at the
    /// next edge edit). `0.0` disables batching — every request runs
    /// alone.
    pub window: f64,
    /// Contribution-cache budget in bytes. `0` disables caching.
    pub cache_budget_bytes: u64,
    /// Fraction of cached roots that must survive an edit's delta
    /// test for selective carry; past it the server degrades to full
    /// invalidation.
    pub invalidate_threshold: f64,
    /// Seeded serving bug (verification only).
    pub mutation: Option<ServeMutation>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let device = DeviceConfig::gtx_titan();
        // A quarter of simulated device memory: the graph itself and
        // the per-root working set own the rest.
        let cache_budget_bytes = device.global_mem_bytes / 4;
        ServeConfig {
            device,
            threads: 1,
            schedule: Schedule::Static,
            traversal: TraversalMode::Auto,
            normalize: false,
            window: 1e-3,
            cache_budget_bytes,
            invalidate_threshold: 0.5,
            mutation: None,
        }
    }
}

impl ServeConfig {
    /// FNV-1a fingerprint of every option that names a served score
    /// for `graph` (registered as `name`): the graph's structural
    /// digest, the device, the traversal mode, and normalization.
    /// Threads, schedule, window, and cache budget are deliberately
    /// excluded — they are bitwise-neutral, so runs under different
    /// settings share cache entries (and the stage-8 battery checks
    /// they agree).
    pub fn fingerprint(&self, name: &str, graph: &Csr) -> u64 {
        let desc = format!(
            "serve;graph={name};digest={:016x};device={};traversal={};normalize={}",
            graph_digest(graph),
            self.device.name,
            self.traversal.name(),
            self.normalize,
        );
        options_fingerprint(&desc)
    }
}

/// What a request asks of its root set's score vector.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// The `k` highest-scoring vertices, sorted by score descending
    /// with vertex id ascending as the tiebreak.
    TopK {
        /// How many vertices to return.
        k: usize,
    },
    /// One vertex's score.
    PerVertex {
        /// The vertex.
        vertex: VertexId,
    },
    /// Scores of an explicit vertex subset, in the listed order.
    SubgraphBc {
        /// The vertices to report.
        vertices: Vec<VertexId>,
    },
}

/// A query's answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// `(vertex, score)` pairs, score-descending.
    TopK(Vec<(VertexId, f64)>),
    /// The requested vertex's score.
    PerVertex(f64),
    /// `(vertex, score)` pairs in the requested order.
    SubgraphBc(Vec<(VertexId, f64)>),
}

/// One client request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Caller-assigned id, echoed in the response.
    pub id: u64,
    /// Simulated arrival time (seconds).
    pub arrival: f64,
    /// Resident graph to query.
    pub graph: String,
    /// Source vertices whose contributions the answer aggregates.
    pub roots: RootSelection,
    /// What to report.
    pub query: Query,
}

/// One timeline event fed to [`BcServer::run`].
#[derive(Clone, Debug)]
pub enum Event {
    /// A client request.
    Query(Request),
    /// An edge edit against a resident graph.
    Edit {
        /// Simulated time the edit lands.
        at: f64,
        /// Resident graph to edit.
        graph: String,
        /// The edit.
        edit: EdgeEdit,
    },
}

impl Event {
    /// The event's simulated timestamp.
    pub fn at(&self) -> f64 {
        match self {
            Event::Query(req) => req.arrival,
            Event::Edit { at, .. } => *at,
        }
    }
}

/// A completed request.
#[derive(Clone, Debug)]
pub struct Response {
    /// The request's id.
    pub id: u64,
    /// Simulated arrival time.
    pub arrival: f64,
    /// Simulated completion time (batch start + priced batch cost).
    pub completed: f64,
    /// `completed - arrival`.
    pub latency: f64,
    /// Graph epoch the answer was computed against.
    pub epoch: u64,
    /// The answer.
    pub answer: Answer,
}

/// Everything one [`BcServer::run`] call produced.
#[derive(Clone, Debug, Default)]
pub struct ServeOutcome {
    /// Responses in completion order (ties in request-id order).
    pub responses: Vec<Response>,
    /// Serve rows emitted during this call (batches and edits).
    pub rows: Vec<ServeRow>,
}

/// Why [`BcServer::run`] refused or failed a slice of the timeline.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// A request or edit names a graph that is not resident.
    UnknownGraph {
        /// The graph name.
        graph: String,
    },
    /// A request or edit names a vertex the graph does not have: a
    /// queried vertex, an explicit root, or an edit endpoint.
    VertexOutOfRange {
        /// The graph name.
        graph: String,
        /// The offending vertex id.
        vertex: VertexId,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// An edit joins a vertex to itself; the CSR cannot hold
    /// self-loops.
    SelfLoop {
        /// The graph name.
        graph: String,
        /// The vertex.
        vertex: VertexId,
    },
    /// Recomputing a batch's missed roots failed.
    Sim(SimError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownGraph { graph } => write!(f, "no resident graph {graph:?}"),
            ServeError::VertexOutOfRange {
                graph,
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for graph {graph:?} (n = {num_vertices})"
            ),
            ServeError::SelfLoop { graph, vertex } => {
                write!(
                    f,
                    "edit on graph {graph:?} is a self-loop at vertex {vertex}"
                )
            }
            ServeError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

struct GraphState {
    csr: Csr,
    epoch: u64,
    fingerprint: u64,
    /// The previous batch's merged score vectors, by resolved root
    /// list, valid while `memo_stamp` equals `(epoch, fingerprint)`.
    memo: BTreeMap<Vec<VertexId>, Vec<f64>>,
    memo_stamp: (u64, u64),
}

/// The long-running batched query server. State (resident graphs,
/// epochs, the contribution cache, the device-busy horizon) persists
/// across [`BcServer::run`] calls, so closed-loop drivers can feed
/// the timeline incrementally.
pub struct BcServer {
    config: ServeConfig,
    graphs: BTreeMap<String, GraphState>,
    cache: ContributionCache,
    pending: Vec<Request>,
    /// Simulated time the open batch window closes. Meaningful only
    /// while `pending` is non-empty.
    deadline: f64,
    /// Simulated time the device finishes its current batch.
    device_free_at: f64,
    seq: u64,
    rows: Vec<ServeRow>,
}

impl BcServer {
    /// An empty server.
    pub fn new(config: ServeConfig) -> Self {
        let cache = ContributionCache::new(config.cache_budget_bytes);
        BcServer {
            config,
            graphs: BTreeMap::new(),
            cache,
            pending: Vec::new(),
            deadline: 0.0,
            device_free_at: 0.0,
            seq: 0,
            rows: Vec::new(),
        }
    }

    /// A server with one resident graph registered as `"default"`.
    pub fn single(csr: Csr, config: ServeConfig) -> Self {
        let mut server = BcServer::new(config);
        server.add_graph("default", csr);
        server
    }

    /// Register (or replace) a resident graph. Replacement starts a
    /// fresh epoch history; stale cache entries die by key mismatch.
    pub fn add_graph(&mut self, name: &str, csr: Csr) {
        let fingerprint = self.config.fingerprint(name, &csr);
        self.graphs.insert(
            name.to_owned(),
            GraphState {
                csr,
                epoch: 0,
                fingerprint,
                memo: BTreeMap::new(),
                memo_stamp: (0, fingerprint),
            },
        );
    }

    /// A resident graph's current CSR.
    pub fn graph(&self, name: &str) -> Option<&Csr> {
        self.graphs.get(name).map(|s| &s.csr)
    }

    /// A resident graph's current epoch.
    pub fn epoch(&self, name: &str) -> Option<u64> {
        self.graphs.get(name).map(|s| s.epoch)
    }

    /// Lifetime cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Live cache entry count.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Every serve row emitted over the server's lifetime.
    pub fn rows(&self) -> &[ServeRow] {
        &self.rows
    }

    /// Simulated time the device goes idle.
    pub fn device_free_at(&self) -> f64 {
        self.device_free_at
    }

    /// Feed a slice of the timeline through the server. Events are
    /// processed in timestamp order (stable on ties); every pending
    /// request is flushed before returning, so the outcome is
    /// complete for the events given. Calling `run` again continues
    /// the same simulated clock — later calls must not carry events
    /// earlier than an already-applied edit.
    ///
    /// A slice holding any malformed event (see [`ServeError`]) is
    /// refused before its first event applies, leaving the server
    /// unchanged.
    pub fn run(&mut self, mut events: Vec<Event>) -> Result<ServeOutcome, ServeError> {
        for event in &events {
            self.validate(event)?;
        }
        events.sort_by(|a, b| a.at().total_cmp(&b.at()));
        let row_start = self.rows.len();
        let mut responses = Vec::new();
        for event in events {
            if !self.pending.is_empty() && event.at() > self.deadline {
                let deadline = self.deadline;
                self.flush(deadline, &mut responses)?;
            }
            match event {
                Event::Query(req) => {
                    if self.pending.is_empty() {
                        self.deadline = req.arrival + self.config.window;
                    }
                    self.pending.push(req);
                }
                Event::Edit { at, graph, edit } => {
                    if !self.pending.is_empty() {
                        // The edit pre-empts the window: everything
                        // already queued must be answered against the
                        // pre-edit graph.
                        let flush_at = self.deadline.min(at);
                        self.flush(flush_at, &mut responses)?;
                    }
                    self.apply_edit(at, &graph, edit);
                }
            }
        }
        if !self.pending.is_empty() {
            let deadline = self.deadline;
            self.flush(deadline, &mut responses)?;
        }
        Ok(ServeOutcome {
            responses,
            rows: self.rows[row_start..].to_vec(),
        })
    }

    /// Refuse an event naming a graph that is not resident, a vertex
    /// that graph does not have, or a self-loop edit. Edits keep the
    /// vertex count, so the resident graph's count holds for the whole
    /// slice.
    fn validate(&self, event: &Event) -> Result<(), ServeError> {
        let graph = match event {
            Event::Query(req) => &req.graph,
            Event::Edit { graph, .. } => graph,
        };
        let Some(state) = self.graphs.get(graph) else {
            return Err(ServeError::UnknownGraph {
                graph: graph.clone(),
            });
        };
        let num_vertices = state.csr.num_vertices();
        let vertices: Vec<VertexId> = match event {
            Event::Query(req) => {
                let mut named = match &req.roots {
                    RootSelection::Explicit(roots) => roots.clone(),
                    _ => Vec::new(),
                };
                match &req.query {
                    Query::TopK { .. } => {}
                    Query::PerVertex { vertex } => named.push(*vertex),
                    Query::SubgraphBc { vertices } => named.extend(vertices),
                }
                named
            }
            Event::Edit { edit, .. } => {
                let (u, v) = edit.endpoints();
                if u == v {
                    return Err(ServeError::SelfLoop {
                        graph: graph.clone(),
                        vertex: u,
                    });
                }
                vec![u, v]
            }
        };
        match vertices.into_iter().find(|&v| v as usize >= num_vertices) {
            Some(vertex) => Err(ServeError::VertexOutOfRange {
                graph: graph.clone(),
                vertex,
                num_vertices,
            }),
            None => Ok(()),
        }
    }

    /// Close the open window at simulated time `at`: group pending
    /// requests by graph and execute one batch per graph, serialized
    /// on the single simulated device.
    fn flush(&mut self, at: f64, responses: &mut Vec<Response>) -> Result<(), ServeError> {
        let queue_depth = self.pending.len() as u64;
        let batch = std::mem::take(&mut self.pending);
        let mut groups: BTreeMap<String, Vec<Request>> = BTreeMap::new();
        for req in batch {
            groups.entry(req.graph.clone()).or_default().push(req);
        }
        let mut start = at.max(self.device_free_at);
        for (name, reqs) in groups {
            start = self.execute_batch(&name, &reqs, start, queue_depth, responses)?;
        }
        self.device_free_at = start;
        Ok(())
    }

    /// Execute one graph's batch starting at simulated time `start`;
    /// returns the batch's completion time.
    fn execute_batch(
        &mut self,
        name: &str,
        reqs: &[Request],
        start: f64,
        queue_depth: u64,
        responses: &mut Vec<Response>,
    ) -> Result<f64, ServeError> {
        let state = &self.graphs[name];
        let (epoch, fingerprint) = (state.epoch, state.fingerprint);
        let n = state.csr.num_vertices();

        // Coalesce: the union of every request's resolved roots runs
        // (or is served) once.
        let resolved: Vec<Vec<VertexId>> = reqs.iter().map(|r| r.roots.resolve(n)).collect();
        let needed: BTreeSet<VertexId> = resolved.iter().flatten().copied().collect();

        let mut local: BTreeMap<VertexId, Arc<RootContribution>> = BTreeMap::new();
        let mut pinned: Vec<CacheKey> = Vec::new();
        let mut missing: Vec<VertexId> = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for &root in &needed {
            let key = CacheKey {
                epoch,
                root,
                fingerprint,
            };
            if let Some(hit) = self.cache.get(&key) {
                local.insert(root, hit);
                self.cache.pin(&key);
                pinned.push(key);
                hits += 1;
            } else {
                missing.push(root);
                misses += 1;
            }
        }

        let evictions_before = self.cache.stats.evictions;
        let mut priced_seconds = 0.0;
        if !missing.is_empty() {
            let mut model = DirectionOptimizingModel::new(self.config.traversal);
            let contribs = run_roots_contributions(
                &state.csr,
                &self.config.device,
                &missing,
                self.config.threads,
                self.config.schedule,
                &mut model,
            )?;
            let seconds: Vec<f64> = contribs.iter().map(|c| c.seconds).collect();
            priced_seconds = coarse_grained_makespan(&seconds, self.config.device.num_sms);
            for contrib in contribs {
                let contrib = Arc::new(contrib);
                let key = CacheKey {
                    epoch,
                    root: contrib.root,
                    fingerprint,
                };
                if self.cache.insert(key, Arc::clone(&contrib), true) {
                    pinned.push(key);
                }
                local.insert(contrib.root, contrib);
            }
        }
        let cache_evictions = self.cache.stats.evictions - evictions_before;

        let completed = start + priced_seconds;
        let state = self.graphs.get_mut(name).expect("validated graph");
        // Requests with the same resolved roots share one merged score
        // vector, and the previous batch's vectors carry over while the
        // stamp holds: the merge is a deterministic function of the
        // roots and the epoch's contributions, so every answer stays
        // bitwise identical. Keeping only this batch's root lists
        // bounds the memo to one batch.
        if state.memo_stamp != (epoch, fingerprint) {
            state.memo.clear();
            state.memo_stamp = (epoch, fingerprint);
        }
        let wanted: BTreeSet<&Vec<VertexId>> = resolved.iter().collect();
        state.memo.retain(|roots, _| wanted.contains(roots));
        let mut merges = 0u64;
        for roots in wanted {
            if state.memo.contains_key(roots) {
                continue;
            }
            let parts: Vec<&[(VertexId, f64)]> =
                roots.iter().map(|r| local[r].entries.as_slice()).collect();
            let mut scores = merge_contribution_entries(n, &parts);
            brandes::halve_if_symmetric(&state.csr, &mut scores);
            if self.config.normalize {
                brandes::normalize(&mut scores, state.csr.is_symmetric());
            }
            state.memo.insert(roots.clone(), scores);
            merges += 1;
        }
        let mut latencies = Vec::with_capacity(reqs.len());
        for (req, roots) in reqs.iter().zip(&resolved) {
            responses.push(Response {
                id: req.id,
                arrival: req.arrival,
                completed,
                latency: completed - req.arrival,
                epoch,
                answer: answer_query(&req.query, &state.memo[roots]),
            });
            latencies.push(RequestLatency {
                id: req.id,
                arrival: req.arrival,
                completed,
                latency: completed - req.arrival,
            });
        }
        latencies.sort_by_key(|l| l.id);
        for key in pinned {
            self.cache.unpin(&key);
        }

        self.push_row(ServeRow {
            event: "batch".to_owned(),
            seq: 0, // assigned by push_row
            graph: name.to_owned(),
            epoch,
            at: start,
            batch_size: reqs.len() as u64,
            queue_depth,
            requested_roots: needed.len() as u64,
            cache_hits: hits,
            cache_misses: misses,
            cache_evictions,
            invalidated_roots: 0,
            carried_roots: 0,
            full_invalidation: false,
            priced_seconds,
            merges,
            latencies,
        });
        Ok(completed)
    }

    /// Apply one edge edit: rebuild the CSR, bump the epoch, and
    /// carry/drop cached roots by the delta-invalidation test. Under
    /// [`ServeMutation::SkipEpochBump`] the graph still changes but
    /// the epoch and cache are (incorrectly) left alone.
    fn apply_edit(&mut self, at: f64, name: &str, edit: EdgeEdit) {
        let state = self.graphs.get_mut(name).expect("validated graph");
        let (u, v) = edit.endpoints();
        state.csr = match edit {
            EdgeEdit::Insert(..) => state.csr.with_edge_inserted(u, v),
            EdgeEdit::Delete(..) => state.csr.with_edge_removed(u, v),
        };
        if self.config.mutation == Some(ServeMutation::SkipEpochBump) {
            let epoch = state.epoch;
            self.push_row(edit_row(name, epoch, at, 0, 0, false));
            return;
        }
        let old_epoch = state.epoch;
        state.epoch += 1;
        let (carried, dropped, full) = self.cache.carry_epoch(
            state.fingerprint,
            old_epoch,
            state.epoch,
            self.config.invalidate_threshold,
            |contrib| !edit_touches_root(&contrib.levels, edit),
        );
        let epoch = state.epoch;
        self.push_row(edit_row(name, epoch, at, dropped, carried, full));
    }

    fn push_row(&mut self, mut row: ServeRow) {
        row.seq = self.seq;
        self.seq += 1;
        self.rows.push(row);
    }
}

fn edit_row(
    graph: &str,
    epoch: u64,
    at: f64,
    invalidated: u64,
    carried: u64,
    full: bool,
) -> ServeRow {
    ServeRow {
        event: "edit".to_owned(),
        graph: graph.to_owned(),
        epoch,
        at,
        invalidated_roots: invalidated,
        carried_roots: carried,
        full_invalidation: full,
        ..Default::default()
    }
}

/// Reduce a full score vector to a query's answer.
fn answer_query(query: &Query, scores: &[f64]) -> Answer {
    match query {
        Query::TopK { k } => {
            // Score descending, id ascending: a strict total order, so
            // selecting the first k and sorting only those gives the
            // same answer as sorting every vertex.
            let by_rank = |a: &VertexId, b: &VertexId| {
                scores[*b as usize]
                    .total_cmp(&scores[*a as usize])
                    .then(a.cmp(b))
            };
            let mut order: Vec<VertexId> = (0..scores.len() as u32).collect();
            if *k < order.len() {
                order.select_nth_unstable_by(*k, by_rank);
                order.truncate(*k);
            }
            order.sort_unstable_by(by_rank);
            Answer::TopK(order.into_iter().map(|v| (v, scores[v as usize])).collect())
        }
        Query::PerVertex { vertex } => Answer::PerVertex(scores[*vertex as usize]),
        Query::SubgraphBc { vertices } => {
            Answer::SubgraphBc(vertices.iter().map(|&v| (v, scores[v as usize])).collect())
        }
    }
}

/// The cold, cache-free reference for one query: run its resolved
/// roots through the plain multi-root path and apply the same
/// epilogue. Every served response must equal this bitwise; the
/// stage-8 battery and the serve proptests enforce it.
pub fn cold_answer(
    g: &Csr,
    config: &ServeConfig,
    roots: &RootSelection,
    query: &Query,
) -> Result<Answer, SimError> {
    let resolved = roots.resolve(g.num_vertices());
    let mut model = DirectionOptimizingModel::new(config.traversal);
    let run = run_roots_scheduled(
        g,
        &config.device,
        &resolved,
        config.threads,
        config.schedule,
        &mut model,
    )?;
    let mut scores = run.scores;
    brandes::halve_if_symmetric(g, &mut scores);
    if config.normalize {
        brandes::normalize(&mut scores, g.is_symmetric());
    }
    Ok(answer_query(query, &scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_graph::gen;

    fn test_graph(seed: u64) -> Csr {
        gen::erdos_renyi(80, 320, seed)
    }

    fn config() -> ServeConfig {
        ServeConfig {
            window: 0.5,
            ..ServeConfig::default()
        }
    }

    fn topk_request(id: u64, arrival: f64, k: usize, roots: RootSelection) -> Event {
        Event::Query(Request {
            id,
            arrival,
            graph: "default".to_owned(),
            roots,
            query: Query::TopK { k },
        })
    }

    #[test]
    fn batched_cached_responses_match_cold_recompute_bitwise() {
        let g = test_graph(11);
        let cfg = config();
        let mut server = BcServer::single(g.clone(), cfg.clone());
        // Two overlapping requests in one window, then a repeat that
        // must be served entirely from cache.
        let events = vec![
            topk_request(0, 0.0, 5, RootSelection::FirstK(12)),
            topk_request(1, 0.1, 8, RootSelection::Strided(9)),
            topk_request(2, 10.0, 5, RootSelection::FirstK(12)),
        ];
        let out = server.run(events).expect("serve");
        assert_eq!(out.responses.len(), 3);
        for resp in &out.responses {
            let req_roots = match resp.id {
                0 | 2 => RootSelection::FirstK(12),
                _ => RootSelection::Strided(9),
            };
            let k = if resp.id == 1 { 8 } else { 5 };
            let cold = cold_answer(&g, &cfg, &req_roots, &Query::TopK { k }).expect("cold");
            assert_eq!(resp.answer, cold, "request {} diverged from cold", resp.id);
        }
        // First window: one batch of 2; repeat: a batch of 1 fully
        // from cache.
        let batches: Vec<&ServeRow> = out.rows.iter().filter(|r| r.event == "batch").collect();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].batch_size, 2);
        assert_eq!(batches[0].cache_hits, 0);
        assert_eq!(batches[1].cache_misses, 0, "repeat must be all hits");
        assert!(batches[1].cache_hits > 0);
        assert_eq!(batches[1].priced_seconds, 0.0);
        assert!(server.cache_stats().hits > 0);
    }

    #[test]
    fn same_window_duplicate_root_sets_match_cold_recompute_bitwise() {
        let g = test_graph(29);
        let cfg = config();
        let mut server = BcServer::single(g.clone(), cfg.clone());
        // An explicit list naming the same roots as FirstK(12): the
        // two selections must share one resolved root set.
        let explicit = RootSelection::Explicit((0..12).collect());
        let n = g.num_vertices();
        assert_eq!(explicit.resolve(n), RootSelection::FirstK(12).resolve(n));
        let selections = [
            RootSelection::FirstK(12),
            RootSelection::Strided(9),
            explicit,
        ];
        let queries = [
            Query::TopK { k: 6 },
            Query::PerVertex { vertex: 5 },
            Query::SubgraphBc {
                vertices: vec![9, 2, 9, 40],
            },
        ];
        // Every (selection, query) pair twice, all inside one window.
        let mut asked = Vec::new();
        for _ in 0..2 {
            for roots in &selections {
                for query in &queries {
                    asked.push((roots.clone(), query.clone()));
                }
            }
        }
        let events = asked
            .iter()
            .enumerate()
            .map(|(id, (roots, query))| {
                Event::Query(Request {
                    id: id as u64,
                    arrival: 0.01 * id as f64,
                    graph: "default".to_owned(),
                    roots: roots.clone(),
                    query: query.clone(),
                })
            })
            .collect();
        let out = server.run(events).expect("serve");
        let batches: Vec<&ServeRow> = out.rows.iter().filter(|r| r.event == "batch").collect();
        assert_eq!(batches.len(), 1, "every request shares one window");
        assert_eq!(batches[0].batch_size, asked.len() as u64);
        assert_eq!(out.responses.len(), asked.len());
        for resp in &out.responses {
            let (roots, query) = &asked[resp.id as usize];
            let cold = cold_answer(&g, &cfg, roots, query).expect("cold");
            assert_eq!(resp.answer, cold, "request {} diverged from cold", resp.id);
        }
    }

    /// The reference TopK: sort every vertex, then take k.
    fn top_k_by_full_sort(scores: &[f64], k: usize) -> Answer {
        let mut order: Vec<VertexId> = (0..scores.len() as u32).collect();
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .total_cmp(&scores[a as usize])
                .then(a.cmp(&b))
        });
        Answer::TopK(
            order
                .into_iter()
                .take(k)
                .map(|v| (v, scores[v as usize]))
                .collect(),
        )
    }

    #[test]
    fn top_k_selection_matches_full_sort() {
        let small = vec![0.0, 2.5, 1.0, 2.5, 0.0, -0.0, 7.0, 1.0, 0.0, 2.5];
        // Many ties and zeros: five distinct values over 200 vertices.
        let large: Vec<f64> = (0..200u32).map(|v| f64::from(v * 7 % 5) * 0.5).collect();
        for scores in [small, large, Vec::new()] {
            let n = scores.len();
            for k in [0, 1, 2, 3, n / 2, n.saturating_sub(1), n, n + 1, n + 50] {
                let query = Query::TopK { k };
                assert_eq!(
                    answer_query(&query, &scores),
                    top_k_by_full_sort(&scores, k),
                    "k = {k}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn window_batches_and_prices_latency() {
        let g = test_graph(13);
        let mut server = BcServer::single(
            g,
            ServeConfig {
                window: 1.0,
                ..ServeConfig::default()
            },
        );
        let events = vec![
            topk_request(0, 0.0, 3, RootSelection::FirstK(4)),
            topk_request(1, 0.9, 3, RootSelection::FirstK(4)),
            topk_request(2, 5.0, 3, RootSelection::FirstK(4)),
        ];
        let out = server.run(events).expect("serve");
        let batches: Vec<&ServeRow> = out.rows.iter().filter(|r| r.event == "batch").collect();
        assert_eq!(
            batches.len(),
            2,
            "0.9 joins the first window, 5.0 opens a new one"
        );
        assert_eq!(batches[0].at, 1.0, "first batch flushes at window close");
        assert!(batches[0].priced_seconds > 0.0);
        for resp in &out.responses {
            assert!(resp.latency > 0.0);
            assert_eq!(resp.latency, resp.completed - resp.arrival);
        }
        // Request 0 waits out the full window; request 1 only 0.1s.
        let lat = |id: u64| {
            out.responses
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.latency)
                .unwrap()
        };
        assert!(lat(0) > lat(1));
    }

    #[test]
    fn edits_bump_epoch_and_delta_served_scores_match_cold() {
        let g = test_graph(17);
        let cfg = config();
        let mut server = BcServer::single(g.clone(), cfg.clone());
        let roots = RootSelection::All;
        let query = Query::SubgraphBc {
            vertices: (0..g.num_vertices() as u32).collect(),
        };
        // Warm the cache on epoch 0.
        let warm = Event::Query(Request {
            id: 0,
            arrival: 0.0,
            graph: "default".to_owned(),
            roots: roots.clone(),
            query: query.clone(),
        });
        // Edit, then re-query: the answer must match a cold recompute
        // on the *edited* graph even though untouched roots were
        // carried across the epoch.
        let (u, v) = (0u32, 40u32);
        let edited = if g.neighbors(u).contains(&v) {
            g.with_edge_removed(u, v)
        } else {
            g.with_edge_inserted(u, v)
        };
        let edit = if g.neighbors(u).contains(&v) {
            EdgeEdit::Delete(u, v)
        } else {
            EdgeEdit::Insert(u, v)
        };
        let requery = Event::Query(Request {
            id: 1,
            arrival: 20.0,
            graph: "default".to_owned(),
            roots: roots.clone(),
            query: query.clone(),
        });
        let events = vec![
            warm,
            Event::Edit {
                at: 10.0,
                graph: "default".to_owned(),
                edit,
            },
            requery,
        ];
        let out = server.run(events).expect("serve");
        assert_eq!(server.epoch("default"), Some(1));
        let edit_rows: Vec<&ServeRow> = out.rows.iter().filter(|r| r.event == "edit").collect();
        assert_eq!(edit_rows.len(), 1);
        assert_eq!(
            edit_rows[0].carried_roots + edit_rows[0].invalidated_roots,
            g.num_vertices() as u64,
            "every cached root is classified"
        );
        let cold = cold_answer(&edited, &cfg, &roots, &query).expect("cold");
        let served = &out.responses.iter().find(|r| r.id == 1).unwrap().answer;
        assert_eq!(
            *served, cold,
            "delta-served scores diverge from cold recompute"
        );
        // The carried roots show up as epoch-1 cache hits.
        let batch2 = out
            .rows
            .iter()
            .filter(|r| r.event == "batch")
            .nth(1)
            .unwrap();
        assert_eq!(batch2.cache_hits, edit_rows[0].carried_roots);
    }

    #[test]
    fn skip_epoch_bump_mutation_serves_stale_scores() {
        let g = test_graph(19);
        let mut cfg = config();
        cfg.mutation = Some(ServeMutation::SkipEpochBump);
        let mut server = BcServer::single(g.clone(), cfg.clone());
        let roots = RootSelection::All;
        let query = Query::SubgraphBc {
            vertices: (0..g.num_vertices() as u32).collect(),
        };
        // Pick an edit that provably changes scores: delete a DAG
        // edge on a shortest path (an edge with |du - dv| == 1 from
        // root 0 whose removal changes the answer).
        let (u, v) = first_edge(&g);
        let events = vec![
            Event::Query(Request {
                id: 0,
                arrival: 0.0,
                graph: "default".to_owned(),
                roots: roots.clone(),
                query: query.clone(),
            }),
            Event::Edit {
                at: 10.0,
                graph: "default".to_owned(),
                edit: EdgeEdit::Delete(u, v),
            },
            Event::Query(Request {
                id: 1,
                arrival: 20.0,
                graph: "default".to_owned(),
                roots: roots.clone(),
                query: query.clone(),
            }),
        ];
        let out = server.run(events).expect("serve");
        assert_eq!(
            server.epoch("default"),
            Some(0),
            "mutation skipped the bump"
        );
        let edited = g.with_edge_removed(u, v);
        let cold = cold_answer(&edited, &cfg, &roots, &query).expect("cold");
        let served = &out.responses.iter().find(|r| r.id == 1).unwrap().answer;
        assert_ne!(
            *served, cold,
            "stale-cache mutant served fresh scores; the seeded bug is inert"
        );
    }

    /// First adjacency arc of the graph (guaranteed present for the
    /// test seeds, which generate non-empty graphs).
    fn first_edge(g: &Csr) -> (VertexId, VertexId) {
        for u in 0..g.num_vertices() as u32 {
            if let Some(&v) = g.neighbors(u).first() {
                return (u, v);
            }
        }
        panic!("empty test graph");
    }

    fn batch_rows(rows: &[ServeRow]) -> Vec<&ServeRow> {
        rows.iter().filter(|r| r.event == "batch").collect()
    }

    fn all_scores(g: &Csr) -> Query {
        Query::SubgraphBc {
            vertices: (0..g.num_vertices() as u32).collect(),
        }
    }

    #[test]
    fn consecutive_batches_reuse_merged_vectors_within_an_epoch() {
        let g = test_graph(31);
        let cfg = config();
        let mut server = BcServer::single(g.clone(), cfg.clone());
        let roots = RootSelection::Strided(20);
        let query = all_scores(&g);
        let ask = |id: u64, arrival: f64| {
            Event::Query(Request {
                id,
                arrival,
                graph: "default".to_owned(),
                roots: roots.clone(),
                query: query.clone(),
            })
        };
        let out = server.run(vec![ask(0, 0.0), ask(1, 10.0)]).expect("serve");
        let batches = batch_rows(&out.rows);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].merges, 1);
        assert_eq!(batches[1].merges, 0, "the second batch reuses the vector");
        // Lookups still run: the second batch is all cache hits.
        assert_eq!(batches[1].cache_hits, batches[1].requested_roots);
        let cold = cold_answer(&g, &cfg, &roots, &query).expect("cold");
        for resp in &out.responses {
            assert_eq!(resp.answer, cold, "request {}", resp.id);
        }
    }

    #[test]
    fn an_edit_retires_merged_vectors() {
        let g = test_graph(19);
        let cfg = config();
        let mut server = BcServer::single(g.clone(), cfg.clone());
        let roots = RootSelection::All;
        let query = all_scores(&g);
        let (u, v) = first_edge(&g);
        let edited = g.with_edge_removed(u, v);
        let before = cold_answer(&g, &cfg, &roots, &query).expect("cold");
        let after = cold_answer(&edited, &cfg, &roots, &query).expect("cold");
        assert_ne!(before, after, "the edit must change the scores");
        let ask = |id: u64, arrival: f64| {
            Event::Query(Request {
                id,
                arrival,
                graph: "default".to_owned(),
                roots: roots.clone(),
                query: query.clone(),
            })
        };
        let out = server
            .run(vec![
                ask(0, 0.0),
                ask(1, 5.0),
                Event::Edit {
                    at: 10.0,
                    graph: "default".to_owned(),
                    edit: EdgeEdit::Delete(u, v),
                },
                ask(2, 20.0),
            ])
            .expect("serve");
        let merges: Vec<u64> = batch_rows(&out.rows).iter().map(|r| r.merges).collect();
        assert_eq!(merges, [1, 0, 1], "the edit's epoch bump forces a merge");
        let edit_row = out.rows.iter().find(|r| r.event == "edit").unwrap();
        assert_eq!(edit_row.merges, 0);
        for resp in &out.responses {
            let want = if resp.id == 2 { &after } else { &before };
            assert_eq!(resp.answer, *want, "request {}", resp.id);
        }
    }

    #[test]
    fn add_graph_retires_merged_vectors() {
        let g = test_graph(19);
        let cfg = config();
        let mut server = BcServer::single(g.clone(), cfg.clone());
        let roots = RootSelection::All;
        let query = all_scores(&g);
        let (u, v) = first_edge(&g);
        let replaced = g.with_edge_removed(u, v);
        let ask = |id: u64, arrival: f64| {
            vec![Event::Query(Request {
                id,
                arrival,
                graph: "default".to_owned(),
                roots: roots.clone(),
                query: query.clone(),
            })]
        };
        let first = server.run(ask(0, 0.0)).expect("serve");
        assert_eq!(batch_rows(&first.rows)[0].merges, 1);
        server.add_graph("default", replaced.clone());
        let second = server.run(ask(1, 10.0)).expect("serve");
        assert_eq!(
            batch_rows(&second.rows)[0].merges,
            1,
            "a replaced graph must not reuse the old vectors"
        );
        let cold = cold_answer(&replaced, &cfg, &roots, &query).expect("cold");
        assert_eq!(second.responses[0].answer, cold);
    }

    /// A valid query and a valid edit ahead of `bad` in one slice:
    /// `run` must refuse the slice with `want` and apply none of it.
    fn assert_refused(bad: Event, want: ServeError) {
        let g = test_graph(23);
        let mut server = BcServer::single(g.clone(), config());
        let (u, v) = first_edge(&g);
        let events = vec![
            topk_request(0, 0.0, 3, RootSelection::FirstK(4)),
            Event::Edit {
                at: 1.0,
                graph: "default".to_owned(),
                edit: EdgeEdit::Delete(u, v),
            },
            bad,
        ];
        assert_eq!(server.run(events).unwrap_err(), want);
        assert!(server.rows().is_empty(), "no event may apply");
        assert_eq!(server.epoch("default"), Some(0));
        assert_eq!(server.graph("default"), Some(&g));
        assert_eq!(server.cache_len(), 0);
        assert_eq!(server.device_free_at(), 0.0);
        // The refused server still serves.
        let out = server
            .run(vec![topk_request(1, 2.0, 3, RootSelection::FirstK(4))])
            .expect("serve after refusal");
        assert_eq!(out.responses.len(), 1);
    }

    fn query_on(graph: &str, roots: RootSelection, query: Query) -> Event {
        Event::Query(Request {
            id: 9,
            arrival: 0.5,
            graph: graph.to_owned(),
            roots,
            query,
        })
    }

    fn out_of_range(vertex: VertexId) -> ServeError {
        ServeError::VertexOutOfRange {
            graph: "default".to_owned(),
            vertex,
            num_vertices: 80,
        }
    }

    #[test]
    fn a_request_against_an_unregistered_graph_is_refused() {
        let bad = query_on("missing", RootSelection::All, Query::TopK { k: 1 });
        let want = ServeError::UnknownGraph {
            graph: "missing".to_owned(),
        };
        assert_eq!(want.to_string(), "no resident graph \"missing\"");
        assert_refused(bad, want);
    }

    #[test]
    fn an_edit_against_an_unregistered_graph_is_refused() {
        let bad = Event::Edit {
            at: 0.5,
            graph: "missing".to_owned(),
            edit: EdgeEdit::Insert(0, 1),
        };
        let want = ServeError::UnknownGraph {
            graph: "missing".to_owned(),
        };
        assert_refused(bad, want);
    }

    #[test]
    fn an_out_of_range_per_vertex_query_is_refused() {
        let query = Query::PerVertex { vertex: 80 };
        assert_refused(
            query_on("default", RootSelection::All, query),
            out_of_range(80),
        );
    }

    #[test]
    fn an_out_of_range_subgraph_vertex_is_refused() {
        let query = Query::SubgraphBc {
            vertices: vec![3, 1000, 7],
        };
        assert_refused(
            query_on("default", RootSelection::All, query),
            out_of_range(1000),
        );
    }

    #[test]
    fn an_out_of_range_explicit_root_is_refused() {
        let roots = RootSelection::Explicit(vec![0, 5, 81]);
        let bad = query_on("default", roots, Query::TopK { k: 3 });
        assert_refused(bad, out_of_range(81));
    }

    #[test]
    fn an_out_of_range_or_self_loop_edit_is_refused() {
        let edit = |edit| Event::Edit {
            at: 0.5,
            graph: "default".to_owned(),
            edit,
        };
        assert_refused(edit(EdgeEdit::Insert(2, 80)), out_of_range(80));
        assert_refused(edit(EdgeEdit::Delete(u32::MAX, 2)), out_of_range(u32::MAX));
        let self_loop = ServeError::SelfLoop {
            graph: "default".to_owned(),
            vertex: 4,
        };
        assert_refused(edit(EdgeEdit::Insert(4, 4)), self_loop);
    }

    #[test]
    fn per_vertex_and_subgraph_answers() {
        let g = test_graph(23);
        let cfg = config();
        let mut server = BcServer::single(g.clone(), cfg.clone());
        let out = server
            .run(vec![
                Event::Query(Request {
                    id: 0,
                    arrival: 0.0,
                    graph: "default".to_owned(),
                    roots: RootSelection::All,
                    query: Query::PerVertex { vertex: 7 },
                }),
                Event::Query(Request {
                    id: 1,
                    arrival: 0.0,
                    graph: "default".to_owned(),
                    roots: RootSelection::All,
                    query: Query::SubgraphBc {
                        vertices: vec![3, 1, 7],
                    },
                }),
            ])
            .expect("serve");
        let cold_pv = cold_answer(
            &g,
            &cfg,
            &RootSelection::All,
            &Query::PerVertex { vertex: 7 },
        )
        .expect("cold");
        assert_eq!(out.responses[0].answer, cold_pv);
        match (&out.responses[1].answer, &cold_pv) {
            (Answer::SubgraphBc(pairs), Answer::PerVertex(score)) => {
                assert_eq!(pairs.len(), 3);
                assert_eq!(pairs[0].0, 3, "requested order preserved");
                assert_eq!(pairs[2], (7, *score));
            }
            _ => panic!("answer shape mismatch"),
        }
    }
}
