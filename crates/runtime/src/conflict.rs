//! Post-mortem conflict analysis on recorded traces.
//!
//! In the paper's model every object is internally serialised, so two
//! operations on the *same* object are never concurrent.  The bugs causality
//! tracking helps find are one level up: two causally *concurrent* operations
//! from different threads touching objects that the application intends to
//! keep consistent with each other (an invariant spanning several objects).
//! A classic example is a transfer between two account objects racing with an
//! audit that reads both — each individual access is serialised, but the pair
//! is not atomic.
//!
//! [`ConflictAnalyzer`] takes a recorded [`Computation`], a set of object
//! *groups* (objects related by an invariant), and reports every pair of
//! concurrent cross-thread operations within the same group where at least
//! one side mutates.  Concurrency is decided with the optimal mixed vector
//! clock produced by the offline optimizer — exercising the paper's algorithm
//! end-to-end on traces from real executions.

use std::collections::HashMap;

use mvc_core::{replay, OfflineOptimizer, TimestampingEngine};
use mvc_trace::{Computation, EventId, ObjectId};

/// A pair of concurrent, conflicting operations within one object group.
///
/// Pairs order lexicographically by `(group, first, second)` — the derived
/// order — which is also exactly the order [`ConflictAnalyzer::analyze`]
/// emits, so reports are deterministic across runs and sortable for
/// cross-implementation comparison (conformance oracle 8 relies on both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ConflictPair {
    /// The index of the object group the pair belongs to.
    pub group: usize,
    /// The earlier-recorded event of the pair.
    pub first: EventId,
    /// The later-recorded event of the pair.
    pub second: EventId,
}

/// Detects concurrent conflicting accesses within declared object groups.
#[derive(Debug, Clone, Default)]
pub struct ConflictAnalyzer {
    groups: Vec<Vec<ObjectId>>,
}

impl ConflictAnalyzer {
    /// Creates an analyzer with no groups (no conflicts will be reported).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a group of objects related by an application invariant, returning
    /// the group's index.
    ///
    /// Duplicate objects within the group are dropped — membership counts
    /// once, so a repeated object cannot double-bucket its events and
    /// duplicate reported pairs.
    pub fn add_group(&mut self, objects: impl IntoIterator<Item = ObjectId>) -> usize {
        let mut deduped: Vec<ObjectId> = Vec::new();
        for o in objects {
            if !deduped.contains(&o) {
                deduped.push(o);
            }
        }
        self.groups.push(deduped);
        self.groups.len() - 1
    }

    /// Creates an analyzer from explicit groups (each deduplicated like
    /// [`add_group`](Self::add_group)).
    pub fn with_groups(groups: impl IntoIterator<Item = Vec<ObjectId>>) -> Self {
        let mut analyzer = Self::new();
        for g in groups {
            analyzer.add_group(g);
        }
        analyzer
    }

    /// The declared groups.
    pub fn groups(&self) -> &[Vec<ObjectId>] {
        &self.groups
    }

    /// Analyses a recorded computation and returns every conflict pair,
    /// sorted in the derived `(group, first, second)` order — the output is
    /// deterministic across runs.
    ///
    /// A pair is reported when the two events are in the same group, were
    /// performed by different threads, are causally concurrent under the
    /// optimal mixed vector clock, and at least one of them is a mutation
    /// ([`OpKind::conflicts_with`](mvc_trace::OpKind::conflicts_with)).
    pub fn analyze(&self, computation: &Computation) -> Vec<ConflictPair> {
        if computation.is_empty() || self.groups.is_empty() {
            return Vec::new();
        }
        // One offline solve serves every group: the plan depends only on the
        // computation, not on the groups, so it must stay outside the group
        // loop.
        let plan = OfflineOptimizer::new().plan_for_computation(computation);
        let mut engine = TimestampingEngine::with_components(plan.components().clone());
        let stamps = replay(&mut engine, computation)
            .expect("the optimal plan covers every event")
            .timestamps;

        // Map each object to the groups it belongs to.
        let mut object_groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for (gi, group) in self.groups.iter().enumerate() {
            for o in group {
                object_groups.entry(o.index()).or_default().push(gi);
            }
        }

        // Bucket events per group.
        let mut events_per_group: Vec<Vec<EventId>> = vec![Vec::new(); self.groups.len()];
        for e in computation.events() {
            if let Some(groups) = object_groups.get(&e.object.index()) {
                for &gi in groups {
                    events_per_group[gi].push(e.id);
                }
            }
        }

        let mut conflicts = Vec::new();
        for (gi, events) in events_per_group.iter().enumerate() {
            for (i, &a) in events.iter().enumerate() {
                for &b in &events[i + 1..] {
                    let ea = computation.event(a);
                    let eb = computation.event(b);
                    if ea.thread == eb.thread {
                        continue;
                    }
                    if !ea.kind.conflicts_with(eb.kind) {
                        continue;
                    }
                    let cmp = stamps[a.index()].compare(&stamps[b.index()]);
                    if cmp.is_concurrent() {
                        conflicts.push(ConflictPair {
                            group: gi,
                            first: a,
                            second: b,
                        });
                    }
                }
            }
        }
        conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_trace::{OpKind, ThreadId};

    fn record(c: &mut Computation, ops: &[(usize, usize, OpKind)]) {
        for &(t, o, k) in ops {
            c.record_op(ThreadId(t), ObjectId(o), k);
        }
    }

    #[test]
    fn empty_inputs_produce_no_conflicts() {
        let analyzer = ConflictAnalyzer::new();
        assert!(analyzer.analyze(&Computation::new()).is_empty());
        let mut c = Computation::new();
        c.record(ThreadId(0), ObjectId(0));
        assert!(analyzer.analyze(&c).is_empty(), "no groups declared");
        assert!(analyzer.groups().is_empty());
    }

    #[test]
    fn concurrent_writes_in_same_group_detected() {
        // Thread 0 writes account A while thread 1 writes account B; nothing
        // orders them, and A+B form an invariant group.
        let mut c = Computation::new();
        record(&mut c, &[(0, 0, OpKind::Write), (1, 1, OpKind::Write)]);
        let mut analyzer = ConflictAnalyzer::new();
        let g = analyzer.add_group([ObjectId(0), ObjectId(1)]);
        let conflicts = analyzer.analyze(&c);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].group, g);
        assert_eq!(conflicts[0].first, EventId(0));
        assert_eq!(conflicts[0].second, EventId(1));
    }

    #[test]
    fn ordered_operations_are_not_conflicts() {
        // Thread 1 only writes B after reading A (which thread 0 wrote), so the
        // operations are causally ordered through object A.
        let mut c = Computation::new();
        record(
            &mut c,
            &[
                (0, 0, OpKind::Write),
                (1, 0, OpKind::Read),
                (1, 1, OpKind::Write),
            ],
        );
        let analyzer = ConflictAnalyzer::with_groups([vec![ObjectId(0), ObjectId(1)]]);
        assert!(analyzer.analyze(&c).is_empty());
    }

    #[test]
    fn concurrent_reads_are_not_conflicts() {
        let mut c = Computation::new();
        record(&mut c, &[(0, 0, OpKind::Read), (1, 1, OpKind::Read)]);
        let analyzer = ConflictAnalyzer::with_groups([vec![ObjectId(0), ObjectId(1)]]);
        assert!(analyzer.analyze(&c).is_empty());
    }

    #[test]
    fn same_thread_operations_are_not_conflicts() {
        let mut c = Computation::new();
        record(&mut c, &[(0, 0, OpKind::Write), (0, 1, OpKind::Write)]);
        let analyzer = ConflictAnalyzer::with_groups([vec![ObjectId(0), ObjectId(1)]]);
        assert!(analyzer.analyze(&c).is_empty());
    }

    #[test]
    fn objects_outside_groups_are_ignored() {
        let mut c = Computation::new();
        record(&mut c, &[(0, 5, OpKind::Write), (1, 6, OpKind::Write)]);
        let analyzer = ConflictAnalyzer::with_groups([vec![ObjectId(0), ObjectId(1)]]);
        assert!(analyzer.analyze(&c).is_empty());
    }

    #[test]
    fn duplicate_objects_in_a_group_do_not_duplicate_pairs() {
        // Regression: a repeated object used to bucket its events once per
        // occurrence, so every pair involving it was reported twice.
        let mut c = Computation::new();
        record(&mut c, &[(0, 0, OpKind::Write), (1, 1, OpKind::Write)]);
        let mut analyzer = ConflictAnalyzer::new();
        let g = analyzer.add_group([ObjectId(0), ObjectId(1), ObjectId(0), ObjectId(1)]);
        assert_eq!(analyzer.groups()[g], vec![ObjectId(0), ObjectId(1)]);
        assert_eq!(analyzer.analyze(&c).len(), 1);
        let via_with = ConflictAnalyzer::with_groups([vec![ObjectId(0), ObjectId(0), ObjectId(1)]]);
        assert_eq!(via_with.analyze(&c).len(), 1, "with_groups dedupes too");
    }

    #[test]
    fn analyze_output_is_sorted_and_deterministic() {
        // Four threads, overlapping groups, plenty of concurrent writes.
        let mut c = Computation::new();
        record(
            &mut c,
            &[
                (0, 0, OpKind::Write),
                (1, 1, OpKind::Write),
                (2, 2, OpKind::Write),
                (3, 3, OpKind::Write),
                (0, 2, OpKind::Write),
                (1, 3, OpKind::Write),
            ],
        );
        let analyzer = ConflictAnalyzer::with_groups([
            vec![ObjectId(0), ObjectId(1)],
            vec![ObjectId(2), ObjectId(3)],
            vec![ObjectId(1), ObjectId(2)],
        ]);
        let first = analyzer.analyze(&c);
        assert!(!first.is_empty());
        let mut sorted = first.clone();
        sorted.sort();
        assert_eq!(first, sorted, "emitted order is the derived pair order");
        assert_eq!(first, analyzer.analyze(&c), "runs are identical");
    }

    #[test]
    fn multiple_groups_are_reported_independently() {
        let mut c = Computation::new();
        record(
            &mut c,
            &[
                (0, 0, OpKind::Write),
                (1, 1, OpKind::Write), // concurrent with the first, group 0
                (2, 2, OpKind::Write),
                (3, 3, OpKind::Write), // concurrent with the third, group 1
            ],
        );
        let analyzer = ConflictAnalyzer::with_groups([
            vec![ObjectId(0), ObjectId(1)],
            vec![ObjectId(2), ObjectId(3)],
        ]);
        let conflicts = analyzer.analyze(&c);
        let groups: Vec<_> = conflicts.iter().map(|p| p.group).collect();
        assert!(groups.contains(&0));
        assert!(groups.contains(&1));
    }
}
