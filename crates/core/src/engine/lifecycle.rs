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
//! Whether a query is live is never recorded a second time. It is live while
//! its origin peer's `issued` guard holds it — from issue to
//! `complete_locally` — and its issue is pending while its key is above its
//! origin shard's last dispatched key. The fold keeps neither fact; the
//! coordinator reads both from the shards when it plans a window.
//!
//! Duplicate suppression keys on actual completion, which adds one cross-shard
//! read the channel lookahead cannot protect: whether a peer's earlier query
//! is still in flight at a *pending* issue's position may depend on deliveries
//! another shard has not folded yet. [`LifecycleFold::cap_bounds`] therefore
//! holds such an issue back until the global frontier reaches it, and a
//! fold-detected completion is applied only once the frontier has passed its
//! key ([`LifecycleFold::take_ready_prunes`]) — until then the origin guard
//! holds the query, so a same-peer issue stays capped. Both are pure
//! scheduling: they delay when an issue runs, never what it observes.

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

/// The coordinator's half of the lifecycle, for runs with several shards:
/// the deferred completions and the window-cap scan. It keeps no count — a
/// query's count is the sum of the ledgers — and no record of which queries
/// are live: [`LifecycleFold::cap_bounds`] reads that from the shards.
#[derive(Debug)]
pub(super) struct LifecycleFold {
    /// First arrival whose issue was not dispatched at the last cap scan; all
    /// below it are settled.
    cursor: usize,
    /// Epoch-stamped "peer has an earlier pending issue in this cap scan"
    /// marker (`peer_seen[p] == cap_epoch`); avoids clearing per window.
    peer_seen: Vec<u32>,
    cap_epoch: u32,
    /// Completions of escaped queries, waiting for the global frontier to
    /// pass their canonical (class 4) key: until then a lagging shard may
    /// still hold a same-peer issue that must observe the query as in flight.
    pending_prunes: Vec<(EventKey, u32)>,
}

impl LifecycleFold {
    pub(super) fn new(peers: usize) -> Self {
        LifecycleFold {
            cursor: 0,
            peer_seen: vec![0; peers],
            cap_epoch: 0,
            pending_prunes: Vec::new(),
        }
    }

    /// Reads every index a ledger touched since the last fold and defers the
    /// completion of each escaped query whose count it finds at zero. The
    /// global count is the sum of the ledgers' counts — any not-yet-charged
    /// send would have to come from a not-yet-dispatched event, and
    /// everything below the barrier is dispatched — so a zero is a true zero,
    /// and no later event touches the query again: each is deferred once.
    /// Never-escaped queries were completed inline at the exact canonical
    /// position. A query escaped if any shard outboxed one of its messages:
    /// no other shard sees it before its origin does.
    pub(super) fn fold(&mut self, ledgers: &mut [&mut QueryLedger]) {
        for shard in 0..ledgers.len() {
            debug_assert!(ledgers[shard].dirty.is_some(), "a folded run lists what it touches");
            let mut dirty = ledgers[shard].dirty.take().unwrap_or_default();
            for &index in &dirty {
                let i = index as usize;
                // An index several shards touched is read once, by the first
                // of them: reading it clears every shard's mark.
                if !ledgers[shard].entries[i].touched {
                    continue;
                }
                let (mut outstanding, mut last, mut escaped) = (0, SimTime::ZERO, false);
                for ledger in ledgers.iter_mut() {
                    let entry = &mut ledger.entries[i];
                    entry.touched = false;
                    outstanding += entry.outstanding;
                    last = last.max(entry.last_retired);
                    escaped |= entry.escaped;
                }
                debug_assert!(
                    outstanding >= 0,
                    "query {i}: a retirement folded before its charge"
                );
                if outstanding == 0 && escaped {
                    self.pending_prunes.push((completion_key(last, i), index));
                }
            }
            dirty.clear();
            ledgers[shard].dirty = Some(dirty);
        }
    }

    /// The queries whose completion waits for the frontier.
    pub(super) fn pending(&self) -> impl Iterator<Item = usize> + '_ {
        self.pending_prunes.iter().map(|&(_, index)| index as usize)
    }

    /// Hands `apply(index, completion time)` every deferred completion whose
    /// canonical key the global `frontier` has passed: all events below the
    /// frontier are dispatched, so no issue can still observe the query as in
    /// flight.
    pub(super) fn take_ready_prunes(
        &mut self,
        frontier: EventKey,
        mut apply: impl FnMut(usize, SimTime),
    ) {
        let mut i = 0;
        while i < self.pending_prunes.len() {
            let (key, index) = self.pending_prunes[i];
            if key < frontier {
                self.pending_prunes.swap_remove(i);
                apply(index as usize, key.time);
            } else {
                i += 1;
            }
        }
    }

    /// Shortens the per-shard window `bounds` so no issue runs before its
    /// duplicate-suppression read is exact, scanning the pending `arrivals`
    /// in canonical order. `dispatched(shard, key)` says whether `shard` has
    /// dispatched the event at `key`, and `live(peer)` whether the peer has a
    /// query in flight or pending its completion — the origin guard. An issue
    /// needs deferring when its peer has a live query — whose completion
    /// another shard may process at a smaller canonical key than the issue's
    /// — or an earlier same-peer pending issue (whose query's fate is equally
    /// unsettled). The arrival at the global frontier `start` is exempt:
    /// everything below it is dispatched and folded, so the lifecycle state
    /// is exact at its position — which also guarantees every window admits
    /// at least its frontier event. Returns whether any bound was shortened.
    pub(super) fn cap_bounds(
        &mut self,
        bounds: &mut [EventKey],
        start: EventKey,
        arrivals: &[Arrival],
        partition: &PeerPartition,
        live: impl Fn(usize) -> bool,
        dispatched: impl Fn(usize, EventKey) -> bool,
    ) -> bool {
        // A pending arrival's issue key, origin peer and origin shard.
        let pending = |idx: usize| {
            let Arrival { at, peer } = arrivals[idx];
            let (key, shard) = (issue_key(at, idx), partition.shard_of[peer] as usize);
            (!dispatched(shard, key)).then_some((key, peer, shard))
        };
        while self.cursor < arrivals.len() && pending(self.cursor).is_none() {
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
        for idx in self.cursor..arrivals.len() {
            let Some((key, peer, shard)) = pending(idx) else {
                continue;
            };
            if key >= max_bound {
                break;
            }
            if key >= bounds[shard] {
                // Not runnable this window (natural horizon or an earlier
                // cap already excludes it) — and neither is any later
                // same-peer arrival, so it needs no marking either.
                continue;
            }
            if key > start && (live(peer) || self.peer_seen[peer] == epoch) {
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
    use crate::engine::exchange::issue_index;
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

    /// Arrivals `(time in µs, peer)` of four peers in two shards — peers 0
    /// and 2 in shard 0, 1 and 3 in shard 1 —, a fold and the two ledgers.
    fn two_shards(arrivals: &[(u64, usize)]) -> (Vec<Arrival>, LifecycleFold, Vec<QueryLedger>) {
        let arrivals: Vec<Arrival> =
            arrivals.iter().map(|&(us, peer)| Arrival { at: at(us), peer }).collect();
        let ledgers = (0..2).map(|_| QueryLedger::new(arrivals.len(), true)).collect();
        (arrivals, LifecycleFold::new(4), ledgers)
    }

    fn fold(lifecycle: &mut LifecycleFold, ledgers: &mut [QueryLedger]) {
        lifecycle.fold(&mut ledgers.iter_mut().collect::<Vec<_>>());
    }

    fn prunes(lifecycle: &mut LifecycleFold, frontier: EventKey) -> Vec<(usize, SimTime)> {
        let mut taken = Vec::new();
        lifecycle.take_ready_prunes(frontier, |index, at| taken.push((index, at)));
        taken
    }

    fn pending(lifecycle: &LifecycleFold) -> Vec<usize> {
        lifecycle.pending().collect()
    }

    /// A cap scan of the two-shard layout with fake shards: `live` lists the
    /// peers whose origin guard holds a query, `last` each shard's last
    /// dispatched key.
    fn cap(
        lifecycle: &mut LifecycleFold, arrivals: &[Arrival], bounds: &mut [EventKey], start: EventKey,
        live: &[usize], last: [Option<EventKey>; 2],
    ) -> bool {
        let live = |peer| live.contains(&peer);
        let dispatched = |shard: usize, key| last[shard] >= Some(key);
        lifecycle.cap_bounds(bounds, start, arrivals, &partition(4, 2), live, dispatched)
    }

    /// Query `q` is issued in `ledger`'s shard and sends one copy out of it.
    fn issue_and_escape(ledger: &mut QueryLedger, q: usize) {
        ledger.charge_message(q);
        ledger.escape(q);
    }

    #[test]
    fn escaped_query_completes_once_the_frontier_passes_it() {
        let (arrivals, mut lifecycle, mut ledgers) = two_shards(&[(10, 0), (500, 0)]);
        // Query 0 floods two copies from shard 0, one of them into shard 1.
        ledgers[0].charge_message(0);
        ledgers[0].charge_message(0);
        ledgers[0].escape(0);
        assert!(!ledgers[0].drained_locally(0));
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(pending(&lifecycle), [] as [usize; 0]);
        // Meanwhile its peer's next issue may not run ahead of the frontier:
        // the origin guard holds query 0.
        let last = [Some(issue_key(at(10), 0)), None];
        let (mut bounds, frontier) = ([EventKey::MAX; 2], issue_key(at(20), 9));
        assert!(cap(&mut lifecycle, &arrivals, &mut bounds, frontier, &[0], last));
        assert_eq!(bounds, [issue_key(at(500), 1), EventKey::MAX]);

        // Shard 1 retires its copy and answers; shard 0 retires the rest.
        ledgers[0].retire(0, at(30));
        ledgers[1].retire(0, at(80));
        ledgers[1].charge_message(0);
        ledgers[1].escape(0);
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(pending(&lifecycle), [] as [usize; 0], "the response is in flight");
        ledgers[0].retire(0, at(120));
        assert!(!ledgers[0].drained_locally(0), "an escaped query is never concluded inline");
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(pending(&lifecycle), [0]);
        assert_eq!((ledgers[0].messages(0), ledgers[1].messages(0)), (2, 1));

        // A frontier *at* the completion key has not passed it: a lagging
        // shard may still hold an event ordering before the completion.
        assert_eq!(prunes(&mut lifecycle, completion_key(at(120), 0)), []);
        let past = issue_key(at(121), 0);
        assert_eq!(prunes(&mut lifecycle, past), [(0, at(120))], "at the latest retirement");
        assert_eq!(prunes(&mut lifecycle, past), [], "exactly once");
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(pending(&lifecycle), [] as [usize; 0], "a fold with nothing touched defers nothing");
        // Applied, the completion releases the origin guard: nothing caps.
        let mut bounds = [EventKey::MAX; 2];
        assert!(!cap(&mut lifecycle, &arrivals, &mut bounds, frontier, &[], last));
        assert_eq!(bounds, [EventKey::MAX; 2]);
    }

    #[test]
    fn a_never_escaped_query_is_closed_by_the_fold_with_no_prune() {
        let (_, mut lifecycle, mut ledgers) = two_shards(&[(10, 1), (20, 3), (30, 1)]);
        // Query 0 stays inside shard 1; query 1's issue is skipped (it leaves
        // no trace in any ledger); query 2 is issued and fully retired
        // between two barriers.
        ledgers[1].charge_message(0);
        ledgers[1].charge(0);
        fold(&mut lifecycle, &mut ledgers);
        ledgers[1].retire(0, at(40));
        assert!(!ledgers[1].drained_locally(0), "the deadline is still armed");
        ledgers[1].retire(0, at(90));
        assert!(ledgers[1].drained_locally(0), "the origin shard concludes inline");
        ledgers[1].charge_message(2);
        ledgers[1].retire(2, at(95));
        assert!(ledgers[1].drained_locally(2));
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(pending(&lifecycle), [] as [usize; 0]);
        assert_eq!(prunes(&mut lifecycle, EventKey::MAX), []);
    }

    #[test]
    fn folds_commute_across_shards_and_reset() {
        // The same events between the same barriers, recorded by the two
        // shards in either order: counts sum and retirement times max.
        type Step = Box<dyn Fn(&mut [QueryLedger])>;
        let record = |swap: bool| {
            let (_, mut lifecycle, mut ledgers) = two_shards(&[(10, 0), (20, 1), (30, 2)]);
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
                    // Query 1's origin arms and fires a deadline in the window
                    // its count reaches zero: both shards list it, and it is
                    // deferred once.
                    Box::new(|l| {
                        l[1].charge(1);
                        l[1].retire(1, at(40));
                    }),
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
            pending
        };
        assert_eq!(state(&lifecycle), state(&swapped));
        let pending = vec![(completion_key(at(55), 1), 1), (completion_key(at(90), 0), 0)];
        assert_eq!(state(&lifecycle), pending, "once each, at the latest retirement over the shards");

        // A fold drains the dirty lists and resets the marks, so a second
        // fold has nothing to read — and new activity is listed again.
        assert!(ledgers.iter().all(|l| l.dirty.as_ref().is_some_and(Vec::is_empty)));
        assert!(ledgers.iter().all(|l| l.entries.iter().all(|entry| !entry.touched)));
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(state(&lifecycle), pending);
        ledgers[0].charge_message(2);
        ledgers[0].charge_message(2);
        ledgers[0].retire(2, at(95));
        assert_eq!(ledgers[0].dirty, Some(vec![2]));
        fold(&mut lifecycle, &mut ledgers);
        assert_eq!(state(&lifecycle), pending, "query 2 still has a message in flight");
    }

    #[test]
    fn caps_defer_issues_whose_duplicate_read_is_not_yet_exact() {
        let marked = |l: &LifecycleFold, peer: usize| l.peer_seen[peer] == l.cap_epoch;
        // Peer 0 has a query in flight; everything else is pending.
        let times = [(10, 0), (100, 0), (150, 2), (200, 2), (250, 0), (300, 1), (400, 3)];
        let (arrivals, mut lifecycle, _) = two_shards(&times);
        let key = |idx: usize| issue_key(arrivals[idx].at, idx);

        // Arrival 1 is the frontier: exempt although its peer has a query in
        // flight. Arrival 3 is capped by arrival 2, an earlier pending issue
        // of its peer. Arrival 4 then sits past shard 0's shortened bound:
        // neither capped (peer 0 *is* in flight) nor marked. Shard 1 keeps
        // its natural horizon, which admits arrival 5 but not arrival 6.
        let mut bounds = [EventKey::MAX, EventKey::before_time(at(350))];
        let last = [Some(key(0)), None];
        assert!(cap(&mut lifecycle, &arrivals, &mut bounds, key(1), &[0], last));
        assert_eq!(bounds, [key(3), EventKey::before_time(at(350))]);
        assert!(marked(&lifecycle, 0) && marked(&lifecycle, 2) && marked(&lifecycle, 1));
        assert!(!marked(&lifecycle, 3), "the scan stops at the furthest bound");
        assert_eq!(lifecycle.cursor, 1, "settled arrivals leave the scan");

        // One arrival later the frontier is arrival 2: arrival 1 ran, so its
        // peer still has a query in flight and arrival 4 is what caps.
        let mut bounds = [EventKey::MAX, EventKey::before_time(at(120))];
        let last = [Some(key(1)), None];
        assert!(cap(&mut lifecycle, &arrivals, &mut bounds, key(2), &[0], last));
        assert_eq!(bounds, [key(3), EventKey::before_time(at(120))]);
        // Nothing to cap: no bound moves.
        let mut bounds = [key(3), EventKey::before_time(at(120))];
        assert!(!cap(&mut lifecycle, &arrivals, &mut bounds, key(2), &[0], last));
        assert_eq!(bounds, [key(3), EventKey::before_time(at(120))]);
        assert!(!marked(&lifecycle, 1), "arrival 5 is past its shard's horizon");
        assert_eq!(lifecycle.cursor, 2);
    }

    /// The one-counter model of a query: what a single global queue would know.
    #[derive(Debug, Clone, Default)]
    struct Model {
        dispatched: bool,
        issued: bool,
        count: i64,
        last: SimTime,
        /// Shard → obligations of the query waiting to be retired there, and
        /// those still in an outbox: deliverable only after the next barrier.
        waiting: [i64; 4],
        outboxed: [i64; 4],
        completed: Option<SimTime>,
    }

    impl Model {
        /// Issued and not yet completed: what the origin guard holds.
        fn live(&self) -> bool {
            self.issued && self.completed.is_none()
        }
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
        /// obligation, at the model's last retirement time; and the cap scan,
        /// fed the model's live set and dispatched issues, shortens each
        /// shard's window at its first pending issue past the scan's start
        /// whose peer has a live query or an earlier pending issue.
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
            let layout = partition(8, shards);
            let origin = |q: usize| (q % 4) % shards;
            let mut lifecycle = LifecycleFold::new(8);
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
                           model: &mut [Model], frontier: EventKey, start: EventKey| {
                for (q, shard) in cells() {
                    model[q].waiting[shard] += std::mem::take(&mut model[q].outboxed[shard]);
                }
                fold(lifecycle, ledgers);
                for (index, time) in prunes(lifecycle, frontier) {
                    prop_assert!(completion_key(time, index) < frontier);
                    complete(&mut model[index], time);
                }
                for index in lifecycle.pending() {
                    prop_assert!(model[index].live(), "query {} deferred but {:?}", index, model[index]);
                }

                // The cap scan against the model's answer. Same-peer arrivals
                // share a shard, so each shard's bound is settled on its own.
                let live = |peer: usize| (peer..6).step_by(4).any(|q| model[q].live());
                let dispatched = |_: usize, key| model[issue_index(key)].dispatched;
                let mut bounds = vec![EventKey::MAX; shards];
                let capped =
                    lifecycle.cap_bounds(&mut bounds, start, &arrivals, &layout, live, dispatched);
                let mut expected = vec![EventKey::MAX; shards];
                let mut seen = [false; 4];
                for q in (0..6).filter(|&q| !model[q].dispatched) {
                    let (key, peer) = (issue_key(at(q as u64), q), q % 4);
                    if expected[origin(q)] < EventKey::MAX {
                        continue;
                    }
                    if key > start && (live(peer) || seen[peer]) {
                        expected[origin(q)] = key;
                    } else {
                        seen[peer] = true;
                    }
                }
                prop_assert_eq!(capped, expected.iter().any(|&bound| bound < EventKey::MAX));
                prop_assert_eq!(bounds, expected);
            };

            for (kind, (q, first), sends, lag) in ops {
                let shard = first % shards;
                match kind {
                    0 => {
                        // The model's arrivals sit at 0–5 µs, before every
                        // other event: the scan's start is drawn among them.
                        let frontier = issue_key(at(now + 1 - lag), 0);
                        let start = issue_key(at(lag), 0);
                        barrier(&mut lifecycle, &mut ledgers, &mut model, frontier, start);
                    }
                    1 | 2 if !model[q].dispatched => {
                        now += 1;
                        model[q].dispatched = true;
                        model[q].last = at(now);
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
                barrier(&mut lifecycle, &mut ledgers, &mut model, EventKey::MAX, EventKey::MAX);
            }
            prop_assert!(lifecycle.pending_prunes.is_empty());
            prop_assert!(model.iter().all(|m| m.completed.is_some() == m.issued));
        }
    }
}
