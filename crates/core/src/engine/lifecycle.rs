//! The query lifecycle: what is counted per query, when a query is complete,
//! and who may conclude it.
//!
//! Every query-charged send and every armed fault-plan deadline **charges**
//! one obligation to its query; dispatching the delivery or the timer
//! **retires** it — whatever then happens to the message (TTL exhaustion,
//! duplicate suppression, an offline receiver and fault-plan loss all end its
//! flight). A query is **complete** when its last obligation is retired: a
//! canonical class-4 event at that retirement's time (see [`super::exchange`]).
//! `ShardState::complete_locally` is the one place that applies it —
//! `completed_at` is recorded, the origin's `issued` entry is pruned, so a
//! re-query is legal the moment the original search actually died, and the
//! route tables go back to their spare lists: no later event can ask about a
//! query with nothing in flight and no timer armed.
//!
//! Each shard counts in its own [`QueryLedger`] and nothing else counts. Who
//! concludes depends on what the query did, never on a setting:
//!
//! - **Inline.** While no message of the query has left its origin shard
//!   (`escaped` is unset) all its events drain there in key order, so the
//!   origin ledger's count *is* the global count and the shard completes the
//!   query at the exact canonical position. A single shard has no barriers to
//!   fold at, so every query of a `shards = 1` run ends this way.
//! - **Folded.** Inside a window no shard knows the count of an escaped query.
//!   At each barrier [`LifecycleFold`] sums the ledgers over the indexes they
//!   touched: sends are charged no later than the barrier after the window
//!   that made them, so a zero sum is a true global zero, at the latest
//!   retirement time over the shards.
//!
//! Duplicate suppression keys on actual completion, which adds one cross-shard
//! read the channel lookahead cannot protect: whether a peer's earlier query
//! is still in flight at a *pending* issue's position may depend on deliveries
//! another shard has not folded yet. [`LifecycleFold::cap_bounds`] therefore
//! holds such an issue back until the global frontier reaches it, and a
//! fold-detected completion is applied only once the frontier has passed its
//! key ([`LifecycleFold::take_ready_prunes`]). Both are pure scheduling: they
//! delay when an issue runs, never what it observes.

use locaware_sim::{EventKey, SimTime};
use locaware_workload::Arrival;

use super::exchange::{completion_key, issue_key, PeerPartition};

/// A local-match candidate for "first answer wins" semantics: the shard-local
/// first hit (events drain in key order, so set-once is the shard minimum);
/// finalize takes the key-minimum across shards.
#[derive(Debug, Clone, Copy)]
pub(super) struct HitMark {
    pub key: EventKey,
    pub hops: u32,
    pub from_cache: bool,
}

/// What one shard knows about one query (the query id *is* the arrival index).
#[derive(Debug, Clone)]
struct Entry {
    /// Messages this shard charged to the query; summed across shards into
    /// the query's record.
    messages: u64,
    /// This shard's earliest local-match candidate.
    hit: Option<HitMark>,
    /// Obligations this shard charged minus obligations it retired. Equal to
    /// the global count while the query has not escaped its origin shard;
    /// below zero in a shard that retires messages it never sent. The sum
    /// over the shards is the global count at every barrier.
    outstanding: i64,
    /// Time of the latest retirement this shard processed.
    last_retired: SimTime,
    /// This shard outboxed one of the query's messages. In the origin shard
    /// that ends inline completion.
    escaped: bool,
    /// Membership mask of the ledger's dirty list.
    touched: bool,
}

/// One shard's per-query accounts, dense over the arrival indexes: the only
/// place obligations are counted.
#[derive(Debug)]
pub(super) struct QueryLedger {
    entries: Vec<Entry>,
    /// Indexes touched since the last fold — `Some` exactly when a
    /// [`LifecycleFold`] will read it, so a single-shard run records nothing.
    dirty: Option<Vec<u32>>,
}

impl QueryLedger {
    /// A ledger for `arrivals` queries; `folded` says a [`LifecycleFold`]
    /// reads it at barriers (the run has several shards).
    pub(super) fn new(arrivals: usize, folded: bool) -> Self {
        let blank = Entry {
            messages: 0,
            hit: None,
            outstanding: 0,
            last_retired: SimTime::ZERO,
            escaped: false,
            touched: false,
        };
        QueryLedger {
            entries: vec![blank; arrivals],
            dirty: folded.then(Vec::new),
        }
    }

    /// Query `index`'s entry, marked for the next fold.
    fn touch(&mut self, index: usize) -> &mut Entry {
        let entry = &mut self.entries[index];
        if let Some(dirty) = &mut self.dirty {
            if !entry.touched {
                entry.touched = true;
                dirty.push(index as u32);
            }
        }
        entry
    }

    /// Charges one obligation that is not a message: an armed deadline.
    pub(super) fn charge(&mut self, index: usize) {
        self.touch(index).outstanding += 1;
    }

    /// Charges one in-flight message, which also counts as query traffic.
    pub(super) fn charge_message(&mut self, index: usize) {
        let entry = self.touch(index);
        entry.messages += 1;
        entry.outstanding += 1;
    }

    /// Retires one obligation: its delivery or timer was dispatched at `at`.
    pub(super) fn retire(&mut self, index: usize, at: SimTime) {
        let entry = self.touch(index);
        entry.outstanding -= 1;
        entry.last_retired = entry.last_retired.max(at);
    }

    /// One of the query's messages left this shard through an outbox.
    pub(super) fn escape(&mut self, index: usize) {
        self.entries[index].escaped = true;
    }

    /// Whether this shard may conclude, on its own, that the query has no
    /// obligation left anywhere. Meaningful only *after* an event's handler
    /// ran: a retirement and the sends it triggers (forwarded copies, a
    /// response) are one atomic event, so a count that touches zero mid-event
    /// is not a completion. Exact only in the origin shard.
    pub(super) fn drained_locally(&self, index: usize) -> bool {
        let entry = &self.entries[index];
        entry.outstanding == 0 && !entry.escaped
    }

    /// The query's issue event was dispatched here — skipped arrival or not,
    /// the next fold retires it from the pending scan of
    /// [`LifecycleFold::cap_bounds`].
    pub(super) fn issue_dispatched(&mut self, index: usize) {
        self.touch(index);
    }

    /// Records a local match; the first one of a shard stands.
    pub(super) fn record_hit(&mut self, index: usize, hit: HitMark) {
        self.entries[index].hit.get_or_insert(hit);
    }

    /// Messages this shard charged to the query.
    pub(super) fn messages(&self, index: usize) -> u64 {
        self.entries[index].messages
    }

    /// This shard's earliest local match of the query, if it had one.
    pub(super) fn hit(&self, index: usize) -> Option<HitMark> {
        self.entries[index].hit
    }

    /// Obligations this shard charged minus those it retired, over every
    /// query. Summed over the shards at a barrier, it is the number of
    /// obligations still queued.
    pub(super) fn outstanding(&self) -> i64 {
        self.entries.iter().map(|entry| entry.outstanding).sum()
    }
}

/// Where a query is in its lifecycle, as the barrier folds see it.
/// Transitions: `Idle → Open` when the folded count first goes positive;
/// `Idle → Closed` when the issue was skipped, or issued and fully retired
/// between two barriers (only possible inside one shard — a cross-shard hop
/// lands at least one window later — so the origin completed it inline);
/// `Open → PendingPrune` when the count returns to zero for a query that
/// escaped its origin shard; `Open → Closed` directly for a never-escaped one
/// (completed inline by its origin shard); `PendingPrune → Closed` when the
/// deferred completion is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryPhase {
    Idle,
    Open,
    PendingPrune,
    Closed,
}

/// What the fold keeps per arrival: the issue's identity and its phase.
#[derive(Debug, Clone, Copy)]
struct Folded {
    at: SimTime,
    peer: u32,
    /// The origin peer's shard.
    shard: u32,
    phase: QueryPhase,
}

/// The coordinator's half of the lifecycle, for runs with several shards:
/// phases, the window-cap scan and the deferred completions. It sees the
/// shards only as their ledgers and keeps no count of its own.
#[derive(Debug)]
pub(super) struct LifecycleFold {
    queries: Vec<Folded>,
    /// First arrival whose issue is not known dispatched (its phase is still
    /// `Idle`); all below it are settled.
    cursor: usize,
    /// Peer index → number of its queries that are open or pending a prune.
    /// A pending issue by such a peer must not run ahead of the global
    /// frontier: its duplicate-suppression read is not yet exact.
    inflight_by_peer: Vec<u32>,
    /// Epoch-stamped "peer has an earlier pending issue in this cap scan"
    /// marker (`peer_seen[p] == cap_epoch`); avoids clearing per window.
    peer_seen: Vec<u32>,
    cap_epoch: u32,
    /// Completions of escaped queries, waiting for the global frontier to
    /// pass their canonical (class 4) key: until then a lagging shard may
    /// still hold a same-peer issue that must observe the query as in flight.
    pending_prunes: Vec<(EventKey, u32)>,
    /// Scratch: arrival indexes touched by the current fold.
    touched: Vec<u32>,
}

impl LifecycleFold {
    pub(super) fn new(arrivals: &[Arrival], partition: &PeerPartition) -> Self {
        let peers = partition.shard_of.len();
        LifecycleFold {
            queries: arrivals
                .iter()
                .map(|arrival| Folded {
                    at: arrival.at,
                    peer: arrival.peer as u32,
                    shard: partition.shard_of[arrival.peer],
                    phase: QueryPhase::Idle,
                })
                .collect(),
            cursor: 0,
            inflight_by_peer: vec![0; peers],
            peer_seen: vec![0; peers],
            cap_epoch: 0,
            pending_prunes: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Reads every index a ledger touched since the last fold and moves its
    /// phase. The global count is the sum of the ledgers' counts — any
    /// not-yet-charged send would have to come from a not-yet-dispatched
    /// event, and everything below the barrier is dispatched — so a zero is
    /// a true zero. Never-escaped queries were completed inline at the exact
    /// canonical position; escaped ones wait in `pending_prunes`.
    pub(super) fn fold(&mut self, ledgers: &mut [&mut QueryLedger]) {
        let mut touched = std::mem::take(&mut self.touched);
        for ledger in ledgers.iter_mut() {
            let QueryLedger { entries, dirty } = &mut **ledger;
            debug_assert!(dirty.is_some(), "a folded run's ledgers record what they touch");
            for index in dirty.iter_mut().flat_map(|list| list.drain(..)) {
                entries[index as usize].touched = false;
                touched.push(index);
            }
        }
        // An index touched in several shards appears once per shard; every
        // transition is guarded by the phase, so repeats change nothing.
        for &index in &touched {
            let i = index as usize;
            let entries = || ledgers.iter().map(|ledger| &ledger.entries[i]);
            let outstanding: i64 = entries().map(|entry| entry.outstanding).sum();
            debug_assert!(outstanding >= 0, "query {i}: a retirement folded before its charge");
            let query = &mut self.queries[i];
            match query.phase {
                QueryPhase::Idle if outstanding > 0 => {
                    query.phase = QueryPhase::Open;
                    self.inflight_by_peer[query.peer as usize] += 1;
                }
                QueryPhase::Idle => query.phase = QueryPhase::Closed,
                QueryPhase::Open if outstanding == 0 => {
                    if ledgers[query.shard as usize].entries[i].escaped {
                        // A shard lagging behind the one that retired the
                        // last obligation may still hold a same-peer issue
                        // ordering before the completion: keep the query
                        // counted in flight until the frontier passes it.
                        let retired = entries().map(|entry| entry.last_retired);
                        let last = retired.fold(SimTime::ZERO, Ord::max);
                        query.phase = QueryPhase::PendingPrune;
                        self.pending_prunes.push((completion_key(last, i), index));
                    } else {
                        query.phase = QueryPhase::Closed;
                        self.inflight_by_peer[query.peer as usize] -= 1;
                    }
                }
                _ => {}
            }
        }
        touched.clear();
        self.touched = touched;
    }

    /// Hands `apply(index, origin shard, completion time)` every deferred
    /// completion whose canonical key the global `frontier` has passed: all
    /// events below the frontier are dispatched, so no issue can still
    /// observe the query as in flight.
    pub(super) fn take_ready_prunes(
        &mut self,
        frontier: EventKey,
        mut apply: impl FnMut(usize, usize, SimTime),
    ) {
        let mut i = 0;
        while i < self.pending_prunes.len() {
            let (key, index) = self.pending_prunes[i];
            if key < frontier {
                self.pending_prunes.swap_remove(i);
                let query = &mut self.queries[index as usize];
                query.phase = QueryPhase::Closed;
                self.inflight_by_peer[query.peer as usize] -= 1;
                apply(index as usize, query.shard as usize, key.time);
            } else {
                i += 1;
            }
        }
    }

    /// Shortens the per-shard window `bounds` so no issue runs before its
    /// duplicate-suppression read is exact, scanning pending arrivals in
    /// canonical order. An issue needs deferring when its peer has an open
    /// (or pending-prune) query — whose completion another shard may process
    /// at a smaller canonical key than the issue's — or an earlier same-peer
    /// pending issue (whose query's fate is equally unsettled). The arrival
    /// at the global frontier `start` is exempt: everything below it is
    /// dispatched and folded, so the lifecycle state is exact at its
    /// position — which also guarantees every window admits at least its
    /// frontier event. Returns whether any bound was shortened.
    pub(super) fn cap_bounds(&mut self, bounds: &mut [EventKey], start: EventKey) -> bool {
        let pending = |query: &Folded| query.phase == QueryPhase::Idle;
        while self.queries.get(self.cursor).is_some_and(|query| !pending(query)) {
            self.cursor += 1;
        }
        self.cap_epoch = self.cap_epoch.wrapping_add(1);
        let epoch = self.cap_epoch;
        let mut capped = false;
        // Arrivals are time-sorted and canonical keys tie-break by index, so
        // array order is canonical order. Once `max_bound` (the furthest any
        // shard may still reach) is behind an arrival, no later arrival can
        // run this window either.
        let furthest = |b: &[EventKey]| b.iter().copied().max().unwrap_or(EventKey::MAX);
        let mut max_bound = furthest(bounds);
        for (idx, query) in self.queries.iter().enumerate().skip(self.cursor) {
            if !pending(query) {
                continue;
            }
            let key = issue_key(query.at, idx);
            if key >= max_bound {
                break;
            }
            let (peer, shard) = (query.peer as usize, query.shard as usize);
            if key >= bounds[shard] {
                // Not runnable this window (natural horizon or an earlier
                // cap already excludes it) — and neither is any later
                // same-peer arrival, so it needs no marking either.
                continue;
            }
            if key > start && (self.inflight_by_peer[peer] > 0 || self.peer_seen[peer] == epoch) {
                bounds[shard] = key;
                capped = true;
                max_bound = furthest(bounds);
            } else {
                self.peer_seen[peer] = epoch;
            }
        }
        capped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locaware_net::LocId;
    use proptest::prelude::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// `peers` peers dealt round-robin over `shards` localities, so peer `p`
    /// lives in shard `p % shards`.
    fn partition(peers: usize, shards: usize) -> PeerPartition {
        let loc_ids: Vec<LocId> = (0..peers).map(|p| LocId((p % shards) as u32)).collect();
        PeerPartition::locality(&loc_ids, shards)
    }

    /// A fold over `arrivals` (`(time in µs, peer)`) of four peers in two
    /// shards — peers 0 and 2 in shard 0, 1 and 3 in shard 1 — and its ledgers.
    fn two_shards(arrivals: &[(u64, usize)]) -> (LifecycleFold, Vec<QueryLedger>) {
        let arrivals: Vec<Arrival> =
            arrivals.iter().map(|&(us, peer)| Arrival { at: at(us), peer }).collect();
        let ledgers = (0..2).map(|_| QueryLedger::new(arrivals.len(), true)).collect();
        (LifecycleFold::new(&arrivals, &partition(4, 2)), ledgers)
    }

    fn fold(lifecycle: &mut LifecycleFold, ledgers: &mut [QueryLedger]) {
        lifecycle.fold(&mut ledgers.iter_mut().collect::<Vec<_>>());
    }

    fn prunes(lifecycle: &mut LifecycleFold, frontier: EventKey) -> Vec<(usize, usize, SimTime)> {
        let mut taken = Vec::new();
        lifecycle.take_ready_prunes(frontier, |index, shard, at| taken.push((index, shard, at)));
        taken
    }

    /// Query `q` is issued in `ledger`'s shard and sends one copy out of it.
    fn issue_and_escape(ledger: &mut QueryLedger, q: usize) {
        ledger.issue_dispatched(q);
        ledger.charge_message(q);
        ledger.escape(q);
    }

    fn phases(lifecycle: &LifecycleFold) -> Vec<QueryPhase> {
        lifecycle.queries.iter().map(|query| query.phase).collect()
    }

    #[test]
    fn escaped_query_completes_once_the_frontier_passes_it() {
        let (mut lifecycle, mut ledgers) = two_shards(&[(10, 0), (500, 0)]);
        let capped =
            |l: &mut LifecycleFold, frontier| l.cap_bounds(&mut [EventKey::MAX; 2], frontier);
        // Query 0 floods two copies from shard 0, one of them into shard 1.
        ledgers[0].issue_dispatched(0);
        ledgers[0].charge_message(0);
        ledgers[0].charge_message(0);
        ledgers[0].escape(0);
        assert!(!ledgers[0].drained_locally(0));
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(phases(&lifecycle), [QueryPhase::Open, QueryPhase::Idle]);
        // Meanwhile its peer's next issue may not run ahead of the frontier.
        let (mut bounds, frontier) = ([EventKey::MAX; 2], issue_key(at(20), 9));
        assert!(lifecycle.cap_bounds(&mut bounds, frontier));
        assert_eq!(bounds, [issue_key(at(500), 1), EventKey::MAX]);

        // Shard 1 retires its copy and answers; shard 0 retires the rest.
        ledgers[0].retire(0, at(30));
        ledgers[1].retire(0, at(80));
        ledgers[1].charge_message(0);
        ledgers[1].escape(0);
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(lifecycle.queries[0].phase, QueryPhase::Open, "the response is in flight");
        ledgers[0].retire(0, at(120));
        assert!(!ledgers[0].drained_locally(0), "an escaped query is never concluded inline");
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(lifecycle.queries[0].phase, QueryPhase::PendingPrune);
        assert_eq!((ledgers[0].messages(0), ledgers[1].messages(0)), (2, 1));

        // A frontier *at* the completion key has not passed it: a lagging
        // shard may still hold an event ordering before the completion.
        assert_eq!(prunes(&mut lifecycle, completion_key(at(120), 0)), []);
        assert!(capped(&mut lifecycle, frontier), "still counted in flight");
        let past = issue_key(at(121), 0);
        assert_eq!(prunes(&mut lifecycle, past), [(0, 0, at(120))], "at the latest retirement");
        assert_eq!(prunes(&mut lifecycle, past), [], "exactly once");
        assert_eq!(lifecycle.queries[0].phase, QueryPhase::Closed);
        assert!(!capped(&mut lifecycle, frontier));
        assert_eq!(lifecycle.inflight_by_peer, [0; 4]);
    }

    #[test]
    fn a_never_escaped_query_is_closed_by_the_fold_with_no_prune() {
        let (mut lifecycle, mut ledgers) = two_shards(&[(10, 1), (20, 3), (30, 1)]);
        // Query 0 stays inside shard 1; query 1's issue is skipped; query 2
        // is issued and fully retired between two barriers.
        ledgers[1].issue_dispatched(0);
        ledgers[1].charge_message(0);
        ledgers[1].charge(0);
        ledgers[1].issue_dispatched(1);
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(phases(&lifecycle), [QueryPhase::Open, QueryPhase::Closed, QueryPhase::Idle]);
        assert_eq!(lifecycle.inflight_by_peer, [0, 1, 0, 0]);
        ledgers[1].retire(0, at(40));
        assert!(!ledgers[1].drained_locally(0), "the deadline is still armed");
        ledgers[1].retire(0, at(90));
        assert!(ledgers[1].drained_locally(0), "the origin shard concludes inline");
        ledgers[1].issue_dispatched(2);
        ledgers[1].charge_message(2);
        ledgers[1].retire(2, at(95));
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(phases(&lifecycle), [QueryPhase::Closed; 3]);
        assert_eq!(lifecycle.inflight_by_peer, [0; 4]);
        assert_eq!(prunes(&mut lifecycle, EventKey::MAX), []);
    }

    #[test]
    fn folds_commute_across_shards_and_reset() {
        // The same events between the same barriers, recorded by the two
        // shards in either order: counts sum and retirement times max.
        type Step = Box<dyn Fn(&mut [QueryLedger])>;
        let record = |swap: bool| {
            let (mut lifecycle, mut ledgers) = two_shards(&[(10, 0), (20, 1), (30, 2)]);
            let windows: [Vec<Step>; 3] = [
                vec![
                    Box::new(|l| issue_and_escape(&mut l[0], 0)),
                    Box::new(|l| issue_and_escape(&mut l[1], 1)),
                ],
                vec![
                    Box::new(|l| {
                        l[1].retire(0, at(50)); // ... and answers across the boundary.
                        l[1].charge_message(0);
                        l[1].escape(0);
                    }),
                    Box::new(|l| l[0].retire(1, at(55))),
                ],
                vec![Box::new(|l| l[0].retire(0, at(90)))],
            ];
            for mut window in windows {
                if swap {
                    window.reverse();
                }
                window.iter().for_each(|step| step(&mut ledgers));
                fold(&mut lifecycle, &mut ledgers);
            }
            (lifecycle, ledgers)
        };
        let (mut lifecycle, mut ledgers) = record(false);
        let (swapped, _) = record(true);
        let state = |l: &LifecycleFold| {
            let mut pending = l.pending_prunes.clone();
            pending.sort_unstable();
            (phases(l), l.inflight_by_peer.clone(), pending)
        };
        assert_eq!(state(&lifecycle), state(&swapped));
        let pending = vec![(completion_key(at(55), 1), 1), (completion_key(at(90), 0), 0)];
        assert_eq!(state(&lifecycle).2, pending, "the latest retirement over the shards");

        // A fold drains the dirty lists and resets the marks, so a second
        // fold has nothing to read — and new activity is listed again.
        let before = state(&lifecycle);
        assert!(ledgers.iter().all(|l| l.dirty.as_ref().is_some_and(Vec::is_empty)));
        assert!(ledgers.iter().all(|l| l.entries.iter().all(|entry| !entry.touched)));
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(state(&lifecycle), before);
        ledgers[0].issue_dispatched(2);
        ledgers[0].charge_message(2);
        assert_eq!(ledgers[0].dirty, Some(vec![2]));
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(lifecycle.queries[2].phase, QueryPhase::Open);
    }

    #[test]
    fn caps_defer_issues_whose_duplicate_read_is_not_yet_exact() {
        let marked = |l: &LifecycleFold, peer: usize| l.peer_seen[peer] == l.cap_epoch;
        // Peer 0 has a query in flight; everything else is pending.
        let arrivals = [(10, 0), (100, 0), (150, 2), (200, 2), (250, 0), (300, 1), (400, 3)];
        let (mut lifecycle, mut ledgers) = two_shards(&arrivals);
        ledgers[0].issue_dispatched(0);
        ledgers[0].charge_message(0);
        fold(&mut lifecycle, &mut ledgers);
        let key = |idx: usize| issue_key(at(arrivals[idx].0), idx);

        // Arrival 1 is the frontier: exempt although its peer has a query in
        // flight. Arrival 3 is capped by arrival 2, an earlier pending issue
        // of its peer. Arrival 4 then sits past shard 0's shortened bound:
        // neither capped (peer 0 *is* in flight) nor marked. Shard 1 keeps
        // its natural horizon, which admits arrival 5 but not arrival 6.
        let mut bounds = [EventKey::MAX, EventKey::before_time(at(350))];
        assert!(lifecycle.cap_bounds(&mut bounds, key(1)));
        assert_eq!(bounds, [key(3), EventKey::before_time(at(350))]);
        assert!(marked(&lifecycle, 0) && marked(&lifecycle, 2) && marked(&lifecycle, 1));
        assert!(!marked(&lifecycle, 3), "the scan stops at the furthest bound");
        assert_eq!(lifecycle.cursor, 1, "settled arrivals leave the scan");

        // One arrival later the frontier is arrival 2: arrival 1 ran, so its
        // peer now has two queries in flight and arrival 4 is what caps.
        ledgers[0].issue_dispatched(1);
        ledgers[0].charge_message(1);
        fold(&mut lifecycle, &mut ledgers);
        let mut bounds = [EventKey::MAX, EventKey::before_time(at(120))];
        assert!(lifecycle.cap_bounds(&mut bounds, key(2)));
        assert_eq!(bounds, [key(3), EventKey::before_time(at(120))]);
        assert!(!marked(&lifecycle, 1), "arrival 5 is past its shard's horizon");
        // Nothing to cap: no bound moves.
        let mut bounds = [key(3), EventKey::before_time(at(120))];
        assert!(!lifecycle.cap_bounds(&mut bounds, key(2)));
        assert_eq!(bounds, [key(3), EventKey::before_time(at(120))]);
    }

    /// The one-counter model of a query: what a single global queue would know.
    #[derive(Debug, Clone, Default)]
    struct Model {
        issued: bool,
        count: i64,
        last: SimTime,
        /// Shard → obligations of the query waiting to be retired there, and
        /// those still in an outbox: deliverable only after the next barrier.
        waiting: [i64; 4],
        outboxed: [i64; 4],
        completed: Option<SimTime>,
    }

    fn complete(model: &mut Model, time: SimTime) {
        assert!(model.issued && model.count == 0, "completed with {} in flight", model.count);
        assert_eq!(time, model.last, "completion time is the last retirement's");
        assert_eq!(model.completed.replace(time), None, "completed twice");
    }

    proptest! {
        /// Random interleavings of issues (some skipped, some born complete,
        /// some arming a deadline), deliveries that forward, and barrier
        /// folds under a frontier that lags by a random amount, over 2–4
        /// ledgers: every issued query completes exactly once — inline or by
        /// a taken prune, never both —, never while the model still counts an
        /// obligation, at the model's last retirement time, and the fold's
        /// per-peer in-flight counts say exactly which queries it holds open.
        #[test]
        fn lifecycle_matches_the_one_counter_model(
            shards in 2usize..5,
            ops in proptest::collection::vec(
                (0u32..10, (0usize..6, 0usize..4), 0usize..6, 0u64..6),
                0..300,
            ),
        ) {
            let arrivals: Vec<Arrival> =
                (0..6).map(|q| Arrival { at: at(q as u64), peer: q % 4 }).collect();
            let origin = |q: usize| (q % 4) % shards;
            let mut lifecycle = LifecycleFold::new(&arrivals, &partition(8, shards));
            let mut ledgers: Vec<_> = (0..shards).map(|_| QueryLedger::new(6, true)).collect();
            let mut model = vec![Model::default(); 6];
            let mut now = 100u64;
            let cells = || (0..6).flat_map(|q| (0..shards).map(move |shard| (q, shard)));

            // One event of query `q` in `shard`: `sends` forwarded copies go
            // to consecutive shards from `first`; the shard then concludes
            // what it can — only the origin shard holds the tracking to.
            let event = |ledgers: &mut [QueryLedger], model: &mut Model, now: u64, q: usize,
                         shard: usize, sends: usize, first: usize| {
                for to in (first..first + sends).map(|to| to % shards) {
                    ledgers[shard].charge_message(q);
                    if to != shard {
                        ledgers[shard].escape(q);
                        model.outboxed[to] += 1;
                    } else {
                        model.waiting[to] += 1;
                    }
                    model.count += 1;
                }
                model.last = at(now);
                if shard == origin(q) && ledgers[shard].drained_locally(q) {
                    complete(model, at(now));
                }
            };
            let deliver = |ledgers: &mut [QueryLedger], model: &mut Model, now: u64, q: usize,
                           shard: usize, sends: usize, first: usize| {
                ledgers[shard].retire(q, at(now));
                model.waiting[shard] -= 1;
                model.count -= 1;
                event(ledgers, model, now, q, shard, sends, first);
            };
            let barrier = |lifecycle: &mut LifecycleFold, ledgers: &mut [QueryLedger],
                           model: &mut [Model], frontier: EventKey| {
                for (q, shard) in cells() {
                    model[q].waiting[shard] += std::mem::take(&mut model[q].outboxed[shard]);
                }
                fold(lifecycle, ledgers);
                for (index, shard, time) in prunes(lifecycle, frontier) {
                    prop_assert_eq!(shard, origin(index));
                    prop_assert!(completion_key(time, index) < frontier);
                    complete(&mut model[index], time);
                }
                let mut held = vec![0u32; 8];
                for (q, query) in lifecycle.queries.iter().enumerate() {
                    let live = model[q].issued && model[q].completed.is_none();
                    let open = matches!(query.phase, QueryPhase::Open | QueryPhase::PendingPrune);
                    prop_assert_eq!(open, live, "query {}: {:?} vs {:?}", q, query.phase, model[q]);
                    held[q % 4] += u32::from(open);
                }
                prop_assert_eq!(&lifecycle.inflight_by_peer, &held);
            };

            for (kind, (q, first), sends, lag) in ops {
                let shard = first % shards;
                match kind {
                    0 => {
                        let frontier = issue_key(at(now + 1 - lag), 0);
                        barrier(&mut lifecycle, &mut ledgers, &mut model, frontier);
                    }
                    1 | 2 if !model[q].issued && model[q].last == SimTime::ZERO => {
                        now += 1;
                        ledgers[origin(q)].issue_dispatched(q);
                        model[q].last = at(now); // Dispatched, whatever follows.
                        if lag == 5 {
                            continue; // A skipped arrival: no query comes of it.
                        }
                        model[q].issued = true;
                        if sends % 2 == 1 {
                            ledgers[origin(q)].charge(q); // A deadline, retired at home.
                            model[q].waiting[origin(q)] += 1;
                            model[q].count += 1;
                        }
                        event(&mut ledgers, &mut model[q], now, q, origin(q), sends / 2, first);
                    }
                    _ if model[q].waiting[shard] > 0 => {
                        now += 1;
                        deliver(&mut ledgers, &mut model[q], now, q, shard, sends % 3, first + 1);
                    }
                    _ => {}
                }
            }
            // Let every query die out — two windows: what waits, then what
            // was outboxed — and pass the frontier over everything.
            for _ in 0..2 {
                for (q, shard) in cells() {
                    while model[q].waiting[shard] > 0 {
                        now += 1;
                        deliver(&mut ledgers, &mut model[q], now, q, shard, 0, 0);
                    }
                }
                barrier(&mut lifecycle, &mut ledgers, &mut model, EventKey::MAX);
            }
            prop_assert!(lifecycle.pending_prunes.is_empty());
            prop_assert!(model.iter().all(|m| m.completed.is_some() == m.issued));
            prop_assert_eq!(&lifecycle.inflight_by_peer, &vec![0; 8]);
        }
    }
}
