//! The serve-with-edits transform: batched, cached serving must be
//! bitwise invisible in the answers.
//!
//! For any request stream — any interleaving of queries and edge
//! edits, any batching window, any cache state — every response must
//! equal a **cold recompute** of the same query against the graph as
//! edited so far, bitwise, under every schedule × traversal × thread
//! count. [`ServeEdits`] computes the cold references once per stream
//! by replaying the edits on a shadow graph (answers do not depend on
//! schedule, traversal or threads, which the relabel transform also
//! checks) and holds every serving configuration to them, keyed by
//! request id. Its exercised count is the server's cache hits: a
//! stream that never hits the cache is not testing the cache.
//!
//! Its seeded bug ([`crate::mutants`]) is
//! [`ServeMutation::SkipEpochBump`] (edits mutate the graph but
//! neither bump the epoch nor invalidate the cache), run on
//! [`ServeEdits::stale_cache_probe`], a stream whose edit provably
//! changes the re-queried scores: the harness must report a stale
//! answer. [`check_serve_rows`] checks the rows a server emits.

use std::collections::BTreeMap;

use bc_core::RootSelection;
use bc_graph::Csr;
use bc_metrics::ServeRow;
use bc_serve::{
    cold_answer, random_edits, Answer, BcServer, EdgeEdit, Event, Query, QueryMix, Request,
    ServeConfig, ServeMutation, SplitMix64,
};

use crate::harness::{Axis, Key, Keyed, Transform, Transformed};
use crate::invariants::Violation;

/// A deterministic serving workload for `g`: `queries` randomized
/// requests (drawn from a small, overlapping root pool so the cache
/// sees repeats) interleaved with `edits` valid edge edits across the
/// stream's timespan, plus one trailing **repeat** of the final query
/// well after every edit. The repeat lands in its own batch inside
/// the final epoch with its roots already cached, so any
/// correctly-functioning cache serves at least one hit — which lets
/// the battery assert it actually exercised the cache.
pub fn serve_stream(g: &Csr, queries: usize, edits: usize, seed: u64) -> Vec<Event> {
    let n = g.num_vertices();
    let mix = QueryMix {
        num_vertices: n,
        root_pool: vec![
            RootSelection::FirstK(12.min(n)),
            RootSelection::FirstK(24.min(n)),
            RootSelection::Strided(8.min(n)),
            RootSelection::Strided(16.min(n)),
        ],
        top_k: 5,
    };
    let mut rng = SplitMix64::new(seed);
    let mut events = Vec::with_capacity(queries + edits + 1);
    let mut at = 0.0;
    for id in 0..queries {
        at += rng.next_exp(40.0);
        let (roots, query) = mix.draw(&mut rng);
        events.push(Event::Query(Request {
            id: id as u64,
            arrival: at,
            graph: "default".to_owned(),
            roots,
            query,
        }));
    }
    if let Some(Event::Query(last)) = events.last().cloned() {
        // `random_edits` timestamps all edits strictly before `at`,
        // so this repeat shares the final query's epoch: its roots
        // are resident when it arrives.
        events.push(Event::Query(Request {
            id: queries as u64,
            arrival: at + 1.0,
            ..last
        }));
    }
    events.extend(random_edits(g, "default", edits, at, seed));
    events
}

/// Replay `events` on a shadow copy of `g` and compute the cold
/// reference answer for every query: the graph a request sees is `g`
/// with exactly the edits that precede it in timestamp order (the
/// server flushes pending requests before applying an edit, so the
/// window can never smear an answer across an edit).
pub fn cold_references(g: &Csr, config: &ServeConfig, events: &[Event]) -> BTreeMap<u64, Answer> {
    let mut ordered: Vec<&Event> = events.iter().collect();
    ordered.sort_by(|a, b| a.at().total_cmp(&b.at()));
    let mut shadow = g.clone();
    let mut refs = BTreeMap::new();
    for event in ordered {
        match event {
            Event::Query(req) => {
                let answer = cold_answer(&shadow, config, &req.roots, &req.query)
                    .expect("cold reference run");
                refs.insert(req.id, answer);
            }
            Event::Edit { edit, .. } => {
                let (u, v) = edit.endpoints();
                shadow = match edit {
                    EdgeEdit::Insert(..) => shadow.with_edge_inserted(u, v),
                    EdgeEdit::Delete(..) => shadow.with_edge_removed(u, v),
                };
            }
        }
    }
    refs
}

/// Key answers by request id, answer kind, rank, and the vertex each
/// entry names.
pub fn answers_keyed<'a>(answers: impl IntoIterator<Item = (u64, &'a Answer)>) -> Keyed {
    let mut out = Vec::new();
    for (id, answer) in answers {
        let (kind, pairs) = match answer {
            Answer::PerVertex(x) => {
                out.push((Key::Answer(id, "per-vertex", 0, None), *x));
                continue;
            }
            Answer::TopK(pairs) => ("top-k", pairs),
            Answer::SubgraphBc(pairs) => ("subgraph", pairs),
        };
        let entries = pairs.iter().zip(0..);
        out.extend(entries.map(|(&(v, x), rank)| (Key::Answer(id, kind, rank, Some(v)), x)));
    }
    out.sort_by_key(|e| e.0);
    out
}

/// One request stream on `g`, served with the axis setting schedule,
/// traversal and threads, against cold references.
pub struct ServeEdits<'g> {
    g: &'g Csr,
    config: ServeConfig,
    events: Vec<Event>,
    reference: Keyed,
}

impl<'g> ServeEdits<'g> {
    /// The seeded [`serve_stream`] on `g`, with a 20 ms batching window.
    pub fn new(g: &'g Csr, queries: usize, edits: usize, seed: u64) -> Self {
        let config = ServeConfig {
            window: 0.02,
            ..ServeConfig::default()
        };
        Self::with_events(g, config, serve_stream(g, queries, edits, seed))
    }

    /// Delete the graph's first adjacency arc between two queries over
    /// every vertex from the same roots; the edit changes
    /// shortest-path structure on every connected analogue. `None`
    /// when `g` has no edges.
    pub fn stale_cache_probe(g: &'g Csr) -> Option<Self> {
        let first_arc = |u| g.neighbors(u).first().map(|&v| (u, v));
        let (u, v) = (0..g.num_vertices() as u32).find_map(first_arc)?;
        let request = |id: u64, arrival: f64| {
            Event::Query(Request {
                id,
                arrival,
                graph: "default".to_owned(),
                roots: RootSelection::FirstK(32.min(g.num_vertices())),
                query: Query::SubgraphBc {
                    vertices: g.vertices().collect(),
                },
            })
        };
        let edit = Event::Edit {
            at: 1.0,
            graph: "default".to_owned(),
            edit: EdgeEdit::Delete(u, v),
        };
        let events = vec![request(0, 0.0), edit, request(1, 2.0)];
        Some(Self::with_events(g, ServeConfig::default(), events))
    }

    fn with_events(g: &'g Csr, config: ServeConfig, events: Vec<Event>) -> Self {
        let refs = cold_references(g, &config, &events);
        let reference = answers_keyed(refs.iter().map(|(&id, a)| (id, a)));
        ServeEdits {
            g,
            config,
            events,
            reference,
        }
    }
}

impl Transform for ServeEdits<'_> {
    type Case = Option<ServeMutation>;
    type Base = ();
    const NAME: &'static str = "serve";
    const EXERCISED: &'static str = "cache hits";

    fn baseline(&self, _: Axis) -> Result<(Keyed, ()), String> {
        Ok((self.reference.clone(), ()))
    }

    fn transformed(
        &self,
        at: Axis,
        mutation: &Option<ServeMutation>,
        _: &(),
    ) -> Result<Transformed, Violation> {
        let config = ServeConfig {
            schedule: at.schedule,
            traversal: at.traversal,
            threads: at.width,
            mutation: *mutation,
            ..self.config.clone()
        };
        let mut server = BcServer::single(self.g.clone(), config);
        let run = server.run(self.events.clone());
        let run = run.map_err(|e| Violation::new("serve.run", e.to_string()))?;
        Ok(Transformed::new(
            answers_keyed(run.responses.iter().map(|r| (r.id, &r.answer))),
            server.cache_stats().hits,
        ))
    }
}

/// Structural and replay invariants over a server's emitted rows:
/// rows are a pure function of the workload (bitwise identical on a
/// second run), batch accounting balances (`hits + misses ==
/// requested_roots`, stored latency equals `completed - arrival`
/// bitwise), sequence numbers are dense, and simulated time is
/// monotone over batch rows.
pub fn check_serve_rows(rows: &[ServeRow], replay: &[ServeRow]) -> Vec<Violation> {
    let mut out = Vec::new();
    if rows != replay {
        out.push(Violation {
            check: "serve.rows_replay",
            detail: format!(
                "serve rows diverge across identical runs ({} vs {} rows)",
                rows.len(),
                replay.len()
            ),
        });
    }
    let mut last_batch_at = f64::NEG_INFINITY;
    for (i, row) in rows.iter().enumerate() {
        if row.seq != i as u64 {
            out.push(Violation {
                check: "serve.rows_seq",
                detail: format!("row {i} carries seq {}", row.seq),
            });
        }
        match row.event.as_str() {
            "batch" => {
                if row.cache_hits + row.cache_misses != row.requested_roots {
                    out.push(Violation {
                        check: "serve.rows_accounting",
                        detail: format!(
                            "batch seq {}: {} hits + {} misses != {} requested roots",
                            row.seq, row.cache_hits, row.cache_misses, row.requested_roots
                        ),
                    });
                }
                if row.batch_size as usize != row.latencies.len() {
                    out.push(Violation {
                        check: "serve.rows_latency_count",
                        detail: format!(
                            "batch seq {}: batch_size {} but {} latency records",
                            row.seq,
                            row.batch_size,
                            row.latencies.len()
                        ),
                    });
                }
                for lat in &row.latencies {
                    if lat.latency.to_bits() != (lat.completed - lat.arrival).to_bits() {
                        out.push(Violation {
                            check: "serve.rows_latency",
                            detail: format!(
                                "request {}: stored latency {} != completed - arrival {}",
                                lat.id,
                                lat.latency,
                                lat.completed - lat.arrival
                            ),
                        });
                    }
                }
                if row.at < last_batch_at {
                    out.push(Violation {
                        check: "serve.rows_monotone",
                        detail: format!(
                            "batch seq {} starts at {} before previous batch at {}",
                            row.seq, row.at, last_batch_at
                        ),
                    });
                }
                last_batch_at = row.at;
            }
            "edit" => {
                if row.batch_size != 0 || row.requested_roots != 0 {
                    out.push(Violation {
                        check: "serve.rows_edit_shape",
                        detail: format!(
                            "edit seq {} carries batch fields (size {}, roots {})",
                            row.seq, row.batch_size, row.requested_roots
                        ),
                    });
                }
            }
            other => {
                out.push(Violation {
                    check: "serve.rows_event",
                    detail: format!("row seq {} has unknown event {other:?}", row.seq),
                });
            }
        }
        if out.len() >= 8 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check, diverge, matrix};
    use bc_core::{Schedule, TraversalMode};
    use bc_graph::gen;

    const AT: Axis = Axis {
        schedule: Schedule::Static,
        traversal: TraversalMode::Push,
        width: 1,
    };

    #[test]
    fn battery_passes_on_a_healthy_server() {
        let g = gen::erdos_renyi(60, 200, 3);
        let t = ServeEdits::new(&g, 6, 2, 17);
        let report = check(&t, &matrix(&g, &[1, 2, 4]), &[("clean", None)]);
        assert!(
            report.violations.is_empty(),
            "healthy server flagged: {:?}",
            report.violations
        );
        assert_eq!(report.cases, 27);
    }

    #[test]
    fn mutant_is_flagged() {
        let g = gen::erdos_renyi(60, 200, 5);
        let t = ServeEdits::stale_cache_probe(&g).expect("graph has edges");
        for m in crate::mutants::ALL {
            let crate::mutants::Plant::Serve(mutation) = m.plant else {
                continue;
            };
            let found = check(&t, &[AT], &[(m.name, Some(mutation))]).violations;
            assert!(found.iter().any(|v| v.check == m.flagged_by), "{found:?}");
        }
    }

    #[test]
    fn a_one_ulp_flip_is_reported() {
        let g = gen::erdos_renyi(60, 200, 3);
        let t = ServeEdits::new(&g, 6, 2, 17);
        let d = check(&t, &[AT], &[("clean", None)])
            .flip
            .expect("flip reported");
        assert!(matches!(d.key, Key::Answer(..)), "{d:?}");
        assert_eq!((d.ulps, d.differing), (Some(1), 1));
    }

    #[test]
    fn a_missing_response_is_reported_not_panicked() {
        let g = gen::erdos_renyi(40, 120, 7);
        let events = serve_stream(&g, 4, 0, 29);
        let refs = cold_references(&g, &ServeConfig::default(), &events);
        let all = answers_keyed(refs.iter().map(|(&id, a)| (id, a)));
        let without_first = answers_keyed(refs.iter().skip(1).map(|(&id, a)| (id, a)));
        let d = diverge(&all, &without_first).expect("missing answer");
        assert!(matches!(d.key, Key::Answer(0, ..)), "{d:?}");
        assert_eq!(d.transformed, None);
    }

    #[test]
    fn batching_and_caching_price_fewer_seconds_than_the_unbatched_baseline() {
        // The same open-loop stream served twice: batched with a warm
        // cache, and with no window and no cache. Both must answer as
        // a cold recompute does; the first must price strictly fewer
        // device seconds and hit its cache.
        let g = gen::watts_strogatz(400, 6, 0.1, 3);
        let events = serve_stream(&g, 10, 2, 41);
        let batched = ServeConfig {
            window: 0.02,
            ..ServeConfig::default()
        };
        let refs = cold_references(&g, &batched, &events);
        let cold = answers_keyed(refs.iter().map(|(&id, a)| (id, a)));
        let unbatched = ServeConfig {
            window: 0.0,
            cache_budget_bytes: 0,
            ..ServeConfig::default()
        };
        let mut priced = Vec::new();
        for config in [batched, unbatched] {
            let mut server = BcServer::single(g.clone(), config);
            let out = server.run(events.clone()).expect("serving run");
            let served = answers_keyed(out.responses.iter().map(|r| (r.id, &r.answer)));
            assert_eq!(diverge(&cold, &served), None);
            priced.push((
                out.rows
                    .iter()
                    .filter(|r| r.event == "batch")
                    .map(|r| r.priced_seconds)
                    .sum::<f64>(),
                server.cache_stats().hits,
            ));
        }
        let [(fast, hits), (slow, _)] = priced[..] else {
            unreachable!()
        };
        assert!(fast < slow, "batched {fast} s vs unbatched {slow} s");
        assert!(hits > 0, "the batched server never hit its cache");
    }

    #[test]
    fn closed_loop_clients_hit_the_cache() {
        // Think-time clients re-draw from shared root pools, so a
        // warm cache must serve some of their roots.
        let g = gen::watts_strogatz(400, 6, 0.1, 3);
        let mix = bc_serve::QueryMix::for_graph(g.num_vertices());
        let mut driver = bc_serve::ClosedLoop::new("default", mix, 2, 5, 10.0, 41);
        let mut server = BcServer::single(g, ServeConfig::default());
        while !driver.done() {
            let out = server.run(driver.next_wave()).expect("closed-loop wave");
            let done: Vec<(u64, f64)> = out.responses.iter().map(|r| (r.id, r.completed)).collect();
            driver.record_completions(&done);
        }
        assert!(server.cache_stats().hits > 0, "{:?}", server.cache_stats());
    }

    #[test]
    fn serve_rows_invariants_hold_and_replay() {
        let g = gen::erdos_renyi(40, 120, 7);
        let events = serve_stream(&g, 8, 2, 23);
        let mut a = BcServer::single(g.clone(), ServeConfig::default());
        let mut b = BcServer::single(g, ServeConfig::default());
        let ra = a.run(events.clone()).expect("run a");
        let rb = b.run(events).expect("run b");
        let bad = check_serve_rows(&ra.rows, &rb.rows);
        assert!(bad.is_empty(), "row invariants violated: {bad:?}");
    }

    #[test]
    fn broken_rows_are_flagged() {
        let g = gen::erdos_renyi(40, 120, 7);
        let events = serve_stream(&g, 4, 0, 29);
        let mut server = BcServer::single(g, ServeConfig::default());
        let run = server.run(events).expect("run");
        let mut tampered = run.rows.clone();
        tampered[0].cache_hits += 1;
        let bad = check_serve_rows(&tampered, &run.rows);
        assert!(
            bad.iter().any(|v| v.check == "serve.rows_replay"),
            "tampered replay not flagged"
        );
        assert!(
            bad.iter().any(|v| v.check == "serve.rows_accounting"),
            "broken accounting not flagged"
        );
    }
}
