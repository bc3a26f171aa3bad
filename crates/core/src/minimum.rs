//! Exact scenario search (Theorem 3.3).
//!
//! Finding a *minimum* scenario — or deciding whether a scenario of length
//! `≤ N` exists — is NP-complete, so this module implements an exponential
//! branch-and-bound search over subsequences. The search walks the run left
//! to right deciding include/exclude per event, maintaining the replayed
//! subrun as one [`Run`] (push on include, O(delta) pop on return), and
//! prunes branches that (a) fail to replay, (b) produce a visible step at
//! `p` that does not match the next expected observation, or (c) cannot
//! beat the current bound.
//!
//! Every entry point is **governed**: it threads a [`Governor`] (node budget,
//! wall-clock deadline, cancellation) and reports a [`Verdict`]. When the
//! governor cuts the search off, the verdict carries the best *anytime*
//! answer available — the best scenario the search had found, or a greedy
//! 1-minimal scenario computed as polynomial-time grace work — together with
//! proven lower/upper bounds on the minimum length.
//!
//! The same search, restricted to a subset of positions and capped length,
//! decides strict-subsequence scenario existence — the coNP-hard minimality
//! test of Theorem 3.4 (see [`crate::minimal`]).

use cwf_engine::{Run, RunView};
use cwf_model::{Bound, FirstHit, Governor, PeerId, Pool, Reason, SharedMin, Verdict};

use crate::scenario::{empty_subrun, match_step};
use crate::set::EventSet;

/// Runs shorter than this stay on the sequential path even under a
/// multi-worker pool: the subproblem fan-out would cost more than the
/// search itself (and the small unit-test runs keep exercising the
/// sequential oracle verbatim).
const PAR_MIN_EVENTS: usize = 8;

/// Options for the scenario search. Resource limits live on the
/// [`Governor`] passed alongside, not here.
#[derive(Debug, Clone, Default)]
pub struct SearchOptions {
    /// Restrict the search to subsequences of this set (default: all
    /// positions).
    pub allowed: Option<EventSet>,
    /// Only consider scenarios of at most this many events.
    pub max_len: Option<usize>,
    /// Stop at the first scenario satisfying the constraints instead of
    /// optimizing (decision mode).
    pub first_found: bool,
    /// Disable provenance-cone pruning. By default the optimizing search
    /// computes the peer's dependency cone ([`crate::cone::peer_cone`]) and
    /// never branches on events outside it — every minimum scenario lies
    /// inside the cone, so completed answers are byte-identical while the
    /// search visits far fewer nodes. Decision mode (`first_found`) never
    /// prunes: its contract is the DFS-first witness over exactly the
    /// caller's position set.
    pub no_cone: bool,
}

/// The position set the branch-and-bound actually searches: the caller's
/// `allowed` set intersected with the peer's provenance cone (optimize mode,
/// pruning on), or the caller's set verbatim (decision mode, or `no_cone`).
/// The original `opts` still drive greedy seeding and cutoff verdicts.
fn cone_restriction(run: &Run, peer: PeerId, opts: &SearchOptions) -> Option<EventSet> {
    if opts.no_cone || opts.first_found {
        return opts.allowed.clone();
    }
    let cone = crate::cone::peer_cone(run, peer);
    Some(match &opts.allowed {
        Some(allowed) => cone.intersection(allowed),
        None => cone,
    })
}

/// Searches for a minimum scenario of `run` at `peer` subject to `opts`,
/// governed by `gov`.
///
/// * `Done(Some(s))` — `s` is a minimum scenario (or the first found, in
///   decision mode); the search completed.
/// * `Done(None)` — no scenario satisfies the constraints (exhaustive).
/// * `Anytime(Some(s), bound)` — the governor cut the search off; `s` is the
///   best scenario known (DFS incumbent, or a greedy 1-minimal scenario when
///   the search is unrestricted) and `bound` brackets the true minimum.
/// * `Exhausted(reason)` — cut off with no usable answer.
pub fn search_min_scenario(
    run: &Run,
    peer: PeerId,
    opts: &SearchOptions,
    gov: &Governor,
) -> Verdict<Option<EventSet>> {
    search_min_scenario_pooled(run, peer, opts, gov, Pool::global())
}

/// [`search_min_scenario`] on an explicit [`Pool`].
///
/// With more than one worker (and a run above a small size threshold) the
/// search becomes parallel branch-and-bound: the decision tree is expanded
/// sequentially to a shallow spawn depth, the resulting subproblems are
/// solved by the pool's workers against a **shared atomic incumbent bound**
/// (the length of the best scenario any worker has found), and the worker
/// results are merged in subproblem DFS order. Two details make the merged
/// answer byte-identical to the sequential one on every completed search:
///
/// * the shared incumbent carries `(length, subproblem index)`: a worker
///   prunes equal lengths away (`length − 1`) only when the published
///   witness sits at or before its own subproblem — where it would win the
///   merge tie anyway — and keeps equal lengths alive against later-index
///   witnesses, so the DFS-first witness of the winning length survives;
/// * ties between equal-length witnesses break by subproblem DFS order —
///   exactly the order the sequential search discovers scenarios in.
///
/// Under a mid-search cutoff the *kind* of verdict (`Anytime`/`Exhausted`
/// and its [`Reason`]) matches the sequential one, but the partial witness
/// may differ — where the budget dies is inherently schedule-dependent. In
/// decision mode a witness found by any worker is reported even if an
/// earlier subproblem was cut off: a scenario in hand is strictly more
/// informative than the sequential `Anytime(false)`.
pub fn search_min_scenario_pooled(
    run: &Run,
    peer: PeerId,
    opts: &SearchOptions,
    gov: &Governor,
    pool: &Pool,
) -> Verdict<Option<EventSet>> {
    gov.guard(|| {
        if let Err(reason) = gov.check() {
            return cutoff_verdict(run, peer, opts, None, reason);
        }
        let target = run.view(peer);
        let restrict = cone_restriction(run, peer, opts);
        if pool.is_sequential() || run.len() < PAR_MIN_EVENTS {
            return search_sequential(run, peer, opts, &restrict, gov, &target);
        }
        search_parallel(run, peer, opts, &restrict, gov, &target, pool)
    })
}

/// The sequential oracle path (also the body of every pool-of-one search).
fn search_sequential(
    run: &Run,
    peer: PeerId,
    opts: &SearchOptions,
    restrict: &Option<EventSet>,
    gov: &Governor,
    target: &RunView,
) -> Verdict<Option<EventSet>> {
    let mut ctx = Ctx::sequential(run, target, opts, restrict, gov, empty_subrun(run));
    let mut chosen = Vec::new();
    ctx.dfs(0, 0, &mut chosen);
    match ctx.stopped {
        None => Verdict::Done(ctx.best),
        Some(reason) => cutoff_verdict(run, peer, opts, ctx.best, reason),
    }
}

/// A branch of the decision tree frozen at the spawn depth, ready to hand
/// to a worker: the replayed subrun, the observations matched so far, and
/// the chosen positions.
struct Prefix {
    sub: Run,
    matched: usize,
    chosen: Vec<usize>,
}

/// Cross-worker coordination state of one parallel search.
struct ParShared {
    /// Best `(length, subproblem index)` pair found by any worker, packed
    /// so the numeric CAS-min is the lexicographic minimum (optimize mode).
    best: SharedMin,
    /// Smallest subproblem index holding a witness (decision mode).
    first_hit: FirstHit,
}

/// Packs a witness length and the subproblem index that found it into one
/// CAS-min word: length in the high 32 bits, index in the low 32, so the
/// numeric minimum is the lexicographic `(length, index)` minimum — the
/// exact preference order of the index-ordered merge.
fn pack(len: usize, index: usize) -> u64 {
    debug_assert!(len < u32::MAX as usize && index <= u32::MAX as usize);
    ((len as u64) << 32) | index as u64
}

/// Sentinel subproblem index for the greedy seed: lexicographically after
/// every real subproblem, so equal-length witnesses stay alive everywhere.
const SEED_INDEX: usize = u32::MAX as usize;

#[allow(clippy::too_many_arguments)]
fn search_parallel(
    run: &Run,
    peer: PeerId,
    opts: &SearchOptions,
    restrict: &Option<EventSet>,
    gov: &Governor,
    target: &RunView,
    pool: &Pool,
) -> Verdict<Option<EventSet>> {
    // Phase 1: expand the same exclude-first decision tree sequentially
    // down to the spawn depth, collecting the live branches in DFS order.
    let depth = spawn_depth(pool.threads(), run.len());
    let mut expander = Ctx::sequential(run, target, opts, restrict, gov, empty_subrun(run));
    expander.spawn_depth = depth;
    let mut chosen = Vec::new();
    expander.dfs(0, 0, &mut chosen);
    if let Some(reason) = expander.stopped {
        return cutoff_verdict(run, peer, opts, None, reason);
    }
    debug_assert!(expander.best.is_none(), "no scenario completes above depth");
    let prefixes = std::mem::take(&mut expander.prefixes);
    if prefixes.is_empty() {
        // Every branch died before the spawn depth: exhaustively no
        // scenario, same as the sequential search concluding Done(None).
        return Verdict::Done(None);
    }

    // Phase 2: workers solve the subproblems under the shared incumbent.
    // On the unrestricted optimization problem the incumbent is seeded with
    // the greedy 1-minimal length (polynomial): free pruning for every
    // worker before the first real witness lands, and candidates longer
    // than a valid scenario can never win the merge, so the answer is
    // unchanged. Under an `allowed` restriction the greedy witness is not
    // a candidate (the restricted minimum may be longer), and in decision
    // mode the contract is "DFS-first scenario under max_len", which a
    // length seed would re-filter — no seed in either case.
    let seed = if opts.allowed.is_none() && !opts.first_found {
        pack(
            crate::minimal::one_minimal_scenario(run, peer).len(),
            SEED_INDEX,
        )
    } else {
        u64::MAX
    };
    let shared = ParShared {
        best: SharedMin::new(seed),
        first_hit: FirstHit::new(),
    };
    let outs = pool.run(prefixes, |idx, p: Prefix| {
        let mut ctx = Ctx::sequential(run, target, opts, restrict, gov, p.sub);
        ctx.shared = Some(&shared);
        ctx.my_index = idx;
        let mut chosen = p.chosen;
        ctx.dfs(depth, p.matched, &mut chosen);
        (ctx.best, ctx.stopped)
    });

    // Phase 3: index-ordered merge.
    if opts.first_found {
        // The earliest subproblem holding a witness is the sequential
        // answer; a witness is definitive even past a cutoff.
        if let Some(w) = outs.iter().find_map(|(best, _)| best.clone()) {
            return Verdict::Done(Some(w));
        }
        return match outs.into_iter().find_map(|(_, stopped)| stopped) {
            None => Verdict::Done(None),
            Some(reason) => cutoff_verdict(run, peer, opts, None, reason),
        };
    }
    let mut best: Option<EventSet> = None;
    for (b, _) in &outs {
        let Some(b) = b else { continue };
        // Strictly-shorter replacement: at equal lengths the earlier
        // subproblem (the one sequential DFS reaches first) keeps the tie.
        if best.as_ref().is_none_or(|cur| b.len() < cur.len()) {
            best = Some(b.clone());
        }
    }
    match outs.into_iter().find_map(|(_, stopped)| stopped) {
        None => Verdict::Done(best),
        Some(reason) => cutoff_verdict(run, peer, opts, best, reason),
    }
}

/// Spawn depth: enough levels for a few subproblems per worker (≤ 2^d
/// branches), capped below the run length so workers always have a tree
/// left to search.
fn spawn_depth(threads: usize, run_len: usize) -> usize {
    let want = (threads * 4).max(2) as u64;
    let bits = (u64::BITS - (want - 1).leading_zeros()) as usize;
    bits.min(run_len - 1)
}

/// Builds the anytime verdict for a cut-off search: prefers the DFS
/// incumbent, falls back to greedy grace work (polynomial, ungoverned) when
/// the search was unrestricted, and brackets the minimum between the number
/// of observations (each needs at least one event) and the witness length.
fn cutoff_verdict(
    run: &Run,
    peer: PeerId,
    opts: &SearchOptions,
    best: Option<EventSet>,
    reason: Reason,
) -> Verdict<Option<EventSet>> {
    let witness = best.or_else(|| {
        // Greedy 1-minimal extraction only answers the unrestricted
        // optimization problem: under an `allowed` restriction the full run
        // is not a candidate, and in decision mode the caller has already
        // taken its own greedy shortcut.
        if opts.allowed.is_none() && !opts.first_found {
            let greedy = crate::minimal::one_minimal_scenario(run, peer);
            (greedy.len() <= opts.max_len.unwrap_or(run.len())).then_some(greedy)
        } else {
            None
        }
    });
    match witness {
        Some(w) => {
            let bound = Bound {
                reason,
                lower: Some(run.view(peer).steps.len() as u64),
                upper: Some(w.len() as u64),
            };
            Verdict::Anytime(Some(w), bound)
        }
        None => Verdict::Exhausted(reason),
    }
}

/// Decision variant: does a scenario with at most `n` events exist?
///
/// Starts with a polynomial greedy quick-accept (a 1-minimal scenario of
/// length `≤ n` settles the question positively without any search). On a
/// governor cutoff the verdict is `Anytime(false, bound)`: no qualifying
/// scenario was found, and `bound` records how far the search got — the
/// observation-count lower bound and the greedy upper bound on the true
/// minimum length.
pub fn exists_scenario_at_most(run: &Run, peer: PeerId, n: usize, gov: &Governor) -> Verdict<bool> {
    exists_scenario_at_most_pooled(run, peer, n, gov, Pool::global())
}

/// [`exists_scenario_at_most`] on an explicit [`Pool`] (see
/// [`search_min_scenario_pooled`] for the parallel contract).
pub fn exists_scenario_at_most_pooled(
    run: &Run,
    peer: PeerId,
    n: usize,
    gov: &Governor,
    pool: &Pool,
) -> Verdict<bool> {
    gov.guard(|| {
        let greedy = crate::minimal::one_minimal_scenario(run, peer);
        if greedy.len() <= n {
            return Verdict::Done(true);
        }
        let cut = |reason| {
            Verdict::Anytime(
                false,
                Bound {
                    reason,
                    lower: Some(run.view(peer).steps.len() as u64),
                    upper: Some(greedy.len() as u64),
                },
            )
        };
        if let Err(reason) = gov.check() {
            return cut(reason);
        }
        let opts = SearchOptions {
            max_len: Some(n),
            first_found: true,
            ..Default::default()
        };
        match search_min_scenario_pooled(run, peer, &opts, gov, pool) {
            Verdict::Done(Some(_)) | Verdict::Anytime(Some(_), _) => Verdict::Done(true),
            Verdict::Done(None) => Verdict::Done(false),
            Verdict::Anytime(None, b) => cut(b.reason),
            Verdict::Exhausted(reason) => cut(reason),
        }
    })
}

struct Ctx<'a> {
    run: &'a Run,
    target: &'a RunView,
    allowed: Option<EventSet>,
    max_len: usize,
    first_found: bool,
    gov: &'a Governor,
    best: Option<EventSet>,
    stopped: Option<Reason>,
    /// Depth at which the expansion phase freezes branches into [`Prefix`]es
    /// instead of recursing (`usize::MAX`: never — plain search).
    spawn_depth: usize,
    /// Branches collected by the expansion phase, in DFS order.
    prefixes: Vec<Prefix>,
    /// Cross-worker incumbent state (parallel workers only).
    shared: Option<&'a ParShared>,
    /// This worker's subproblem index (DFS order of its prefix).
    my_index: usize,
    /// The replayed subrun of the current branch: the events chosen so far.
    /// An include branch pushes its event and pops it on return.
    sub: Run,
}

impl<'a> Ctx<'a> {
    /// A search context replaying from `sub` (the empty subrun, or a
    /// spawned branch's prefix).
    fn sequential(
        run: &'a Run,
        target: &'a RunView,
        opts: &SearchOptions,
        restrict: &Option<EventSet>,
        gov: &'a Governor,
        sub: Run,
    ) -> Self {
        Ctx {
            run,
            target,
            allowed: restrict.clone(),
            max_len: opts.max_len.unwrap_or(run.len()),
            first_found: opts.first_found,
            gov,
            best: None,
            stopped: None,
            spawn_depth: usize::MAX,
            prefixes: Vec::new(),
            shared: None,
            my_index: 0,
            sub,
        }
    }

    /// Current upper bound on useful lengths. The local incumbent prunes to
    /// strictly-shorter (`len − 1`). The cross-worker incumbent carries the
    /// *subproblem index* of its witness alongside the length: a witness in
    /// a subproblem at or before this worker's wins the index-ordered merge
    /// over any equal-length witness found here, so this worker can prune
    /// to `len − 1` too; a witness in a *later* subproblem keeps the tie
    /// open and equal lengths must survive (prune only to `len`) — which is
    /// exactly the sequential tie-break.
    fn bound(&self) -> usize {
        let mut b = match &self.best {
            Some(s) => s.len().saturating_sub(1).min(self.max_len),
            None => self.max_len,
        };
        if let Some(shared) = self.shared {
            let g = shared.best.get();
            if g != u64::MAX {
                let (len, idx) = ((g >> 32) as usize, (g & u32::MAX as u64) as usize);
                b = b.min(if idx <= self.my_index {
                    len.saturating_sub(1)
                } else {
                    len
                });
            }
        }
        b
    }

    fn done(&self) -> bool {
        if !self.first_found {
            return false;
        }
        if self.best.is_some() {
            return true;
        }
        // An earlier subproblem already holds a witness: the index-ordered
        // merge will never read this worker's answer, so stop early.
        self.shared
            .is_some_and(|s| s.first_hit.beats(self.my_index))
    }

    /// Records a completed scenario, publishing it to the cross-worker
    /// incumbent when running as a parallel worker.
    fn record(&mut self, set: EventSet) {
        if let Some(shared) = self.shared {
            shared.best.relax(pack(set.len(), self.my_index));
            if self.first_found {
                shared.first_hit.offer(self.my_index);
            }
        }
        self.best = Some(set);
    }

    /// DFS over positions. `matched` counts the target steps the replayed
    /// subrun has already produced; `chosen` holds its original positions.
    fn dfs(&mut self, i: usize, matched: usize, chosen: &mut Vec<usize>) {
        if self.done() || self.stopped.is_some() {
            return;
        }
        // Expansion phase: freeze this branch for a worker. Before the tick,
        // so every spawned node is charged exactly once — by its worker.
        if i == self.spawn_depth {
            self.prefixes.push(Prefix {
                sub: self.sub.clone(),
                matched,
                chosen: chosen.clone(),
            });
            return;
        }
        if let Err(reason) = self.gov.tick() {
            self.stopped = Some(reason);
            return;
        }
        let remaining_steps = self.target.steps.len() - matched;
        // Lower bound: each missing observation needs at least one event.
        if chosen.len() + remaining_steps > self.bound() {
            return;
        }
        if i == self.run.len() {
            if remaining_steps == 0 {
                let set = EventSet::from_iter(self.run.len(), chosen.iter().copied());
                let better = match &self.best {
                    Some(b) => set.len() < b.len(),
                    None => true,
                };
                if better {
                    self.record(set);
                }
            }
            return;
        }
        // Not enough events left to produce the missing observations?
        if self.run.len() - i < remaining_steps {
            return;
        }
        // Branch 1: exclude event i (bias toward short scenarios).
        self.dfs(i + 1, matched, chosen);
        if self.done() || self.stopped.is_some() {
            return;
        }
        // Branch 2: include event i (if allowed and within bound).
        if let Some(allowed) = &self.allowed {
            if !allowed.contains(i) {
                return;
            }
        }
        if chosen.len() + 1 > self.bound() {
            return;
        }
        if self.sub.push(self.run.event(i).clone()).is_err() {
            return;
        }
        if let Some(matched) = match_step(&self.sub, self.target, matched) {
            chosen.push(i);
            self.dfs(i + 1, matched, chosen);
            chosen.pop();
        }
        self.sub.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::is_scenario;
    use cwf_engine::{Bindings, Event};
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    /// Theorem 3.3's reduction instance for V = {v1, v2, v3},
    /// c1 = {v1, v2}, c2 = {v2, v3}: the minimum hitting set is {v2}, so the
    /// minimum scenario has 1 + 2 + 1 = 4 events.
    fn hitting_run() -> Run {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { V1(K); V2(K); V3(K); C1(K); C2(K); OK(K); }
                peers {
                    q sees V1(*), V2(*), V3(*), C1(*), C2(*), OK(*);
                    p sees OK(*);
                }
                rules {
                    a1 @ q: +V1(0) :- ;
                    a2 @ q: +V2(0) :- ;
                    a3 @ q: +V3(0) :- ;
                    b11 @ q: +C1(0) :- V1(0);
                    b12 @ q: +C1(0) :- V2(0);
                    b22 @ q: +C2(0) :- V2(0);
                    b23 @ q: +C2(0) :- V3(0);
                    ok @ q: +OK(0) :- C1(0), C2(0);
                }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(Arc::clone(&spec));
        // The trivial run: all (a) rules, one (b) rule per c_j, then ok.
        for n in ["a1", "a2", "a3", "b11", "b22", "ok"] {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        run
    }

    #[test]
    fn finds_the_minimum_scenario() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        let gov = Governor::unlimited();
        let res = search_min_scenario(&run, p, &SearchOptions::default(), &gov);
        assert!(res.is_done(), "unlimited governor completes: {res:?}");
        let found = res.found().cloned().expect("a scenario exists");
        // Minimum hitting set {v2} ⇒ a2 + one b-per-clause + ok = 4 events.
        // But the run's own (b) events b11/b22 depend on v1/v2: with only a2,
        // b11 (body V1) cannot fire — so the minimum within THIS run's
        // events is {a1, a2, b11, b22, ok}? No: b22 only needs V2, b11 needs
        // V1. The run only contains b11 for c1, so a1 must stay. Minimum is
        // {a1, b11, b22, ok} + a2 for b22? b22 needs V2 ⇒ a2 too. Hence 5?
        // Let's just assert the invariant: it is a scenario and no shorter
        // scenario exists.
        assert!(is_scenario(&run, p, &found));
        for shorter in 0..found.len() {
            assert_eq!(
                exists_scenario_at_most(&run, p, shorter, &Governor::unlimited()),
                Verdict::Done(false),
                "no scenario of length {shorter}"
            );
        }
        assert_eq!(found.len(), 5, "a1, a2, b11, b22, ok");
        // The search tree is pinned: a replay that accepted or matched
        // differently would visit a different number of nodes.
        assert_eq!(gov.nodes_used(), 36);
    }

    #[test]
    fn decision_variant_matches_hitting_set_structure() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        // Pinned node counts: the greedy quick-accept settles n ≥ 5 without
        // a search node; n = 4 searches the whole decision tree.
        for (n, exists, nodes) in [(5, true, 0), (4, false, 57), (6, true, 0)] {
            let gov = Governor::unlimited();
            assert_eq!(
                exists_scenario_at_most(&run, p, n, &gov),
                Verdict::Done(exists)
            );
            assert_eq!(gov.nodes_used(), nodes, "nodes at n = {n}");
        }
    }

    #[test]
    fn allowed_set_restricts_the_search() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        // Restricting to events {a1, b11, ok} loses C2 ⇒ no scenario.
        let opts = SearchOptions {
            allowed: Some(EventSet::from_iter(run.len(), [0, 3, 5])),
            ..Default::default()
        };
        let gov = Governor::unlimited();
        assert_eq!(
            search_min_scenario(&run, p, &opts, &gov),
            Verdict::Done(None)
        );
        assert_eq!(gov.nodes_used(), 16);
    }

    #[test]
    fn budget_exhaustion_yields_greedy_anytime_answer() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        let gov = Governor::with_nodes(3);
        let res = search_min_scenario(&run, p, &SearchOptions::default(), &gov);
        // Three nodes cannot finish, but the greedy grace answer is a real
        // scenario bracketing the minimum from above.
        let Verdict::Anytime(Some(witness), bound) = res else {
            panic!("expected an anytime answer, got {res:?}");
        };
        assert_eq!(bound.reason, Reason::Nodes);
        assert!(is_scenario(&run, p, &witness));
        assert_eq!(bound.upper, Some(witness.len() as u64));
        assert!(bound.lower.unwrap() <= bound.upper.unwrap());
    }

    #[test]
    fn cross_thread_cancellation_stops_the_search() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        let gov = Governor::unlimited();
        let token = gov.cancel_token();
        // Cancel from another thread before the search starts: the entry
        // check sees the sticky flag and no search node is ever expanded.
        std::thread::spawn(move || token.cancel()).join().unwrap();
        let res = search_min_scenario(&run, p, &SearchOptions::default(), &gov);
        let Verdict::Anytime(Some(witness), bound) = res else {
            panic!("expected a greedy anytime answer, got {res:?}");
        };
        assert_eq!(bound.reason, Reason::Cancelled);
        assert!(is_scenario(&run, p, &witness));
        assert_eq!(gov.nodes_used(), 0, "cancellation preempted the search");
    }

    #[test]
    fn zero_deadline_cuts_off_without_panicking() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        let gov = Governor::with_deadline(std::time::Duration::ZERO);
        let res = exists_scenario_at_most(&run, p, 0, &gov);
        let Verdict::Anytime(false, bound) = res else {
            panic!("expected a bounded refusal, got {res:?}");
        };
        assert_eq!(bound.reason, Reason::Deadline);
        assert!(
            bound.upper.is_some(),
            "greedy upper bound survives the cutoff"
        );
    }

    #[test]
    fn restricted_budget_exhaustion_has_no_witness() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        // Under an `allowed` restriction there is no greedy fallback: a
        // cut-off search is plain exhaustion.
        let opts = SearchOptions {
            allowed: Some(EventSet::full(run.len())),
            ..Default::default()
        };
        assert_eq!(
            search_min_scenario(&run, p, &opts, &Governor::with_nodes(3)),
            Verdict::Exhausted(Reason::Nodes)
        );
    }

    #[test]
    fn empty_view_needs_empty_scenario() {
        let run = hitting_run();
        // q as observer of an all-q run: the whole run is the only scenario
        // (every event is visible at q).
        let q = run.spec().collab().peer("q").unwrap();
        let gov = Governor::unlimited();
        let res = search_min_scenario(&run, q, &SearchOptions::default(), &gov);
        assert_eq!(res.found().unwrap().len(), run.len());
        assert_eq!(gov.nodes_used(), 13);
    }

    #[test]
    fn own_events_must_match_exactly() {
        // A run where p itself acts: the scenario must reproduce p's own
        // events verbatim.
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { A(K); B(K); }
                peers { p sees A(*); q sees A(*), B(*); }
                rules {
                    mine @ p: +A(0) :- ;
                    other @ q: +B(0) :- ;
                }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(Arc::clone(&spec));
        for n in ["other", "mine"] {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        let p = spec.collab().peer("p").unwrap();
        let gov = Governor::unlimited();
        let res = search_min_scenario(&run, p, &SearchOptions::default(), &gov);
        // B is invisible to p, so the minimum scenario is just p's event.
        assert_eq!(res.found().unwrap().to_vec(), vec![1]);
        assert_eq!(gov.nodes_used(), 4);
    }
}
