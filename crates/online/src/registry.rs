//! Name-based construction of online mechanisms.
//!
//! The evaluation harness, the `mvc_eval` binary, the benchmarks and the
//! conformance suite all need to sweep over "every mechanism the paper
//! evaluates" without hard-coding concrete types in each place.
//! [`MechanismRegistry`] is that single construction point: it resolves a
//! stable name (`"popularity"`, `"adaptive"`, …) to a boxed
//! [`OnlineMechanism`], carrying the one knob a mechanism needs — the RNG
//! seed for [`Random`] — so callers configure once and build by name.

use std::fmt;

use crate::mechanism::{Adaptive, Naive, OnlineMechanism, Popularity, Random};

/// Error returned when a mechanism name is not in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownMechanismError {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownMechanismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown mechanism '{}' (known: {})",
            self.name,
            MechanismRegistry::names().join(", ")
        )
    }
}

impl std::error::Error for UnknownMechanismError {}

/// Factory for the paper's online mechanisms, resolved by name.
///
/// It reproduces the paper's evaluation: Adaptive is built with the Section V
/// crossover thresholds ([`Adaptive::with_paper_thresholds`]: density 0.2,
/// 70 active nodes, naive side = threads), and Random draws from seed 0
/// unless [`seed`](Self::seed) says otherwise.
///
/// ```
/// use mvc_online::{simulate_final_size, MechanismRegistry};
///
/// let registry = MechanismRegistry::new().seed(42);
/// let mut adaptive = registry.from_name("adaptive").unwrap();
/// let size = simulate_final_size(adaptive.as_mut(), &[(0, 0), (1, 0), (2, 0)]);
/// assert_eq!(size, 1, "one hub object covers the whole star");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismRegistry {
    seed: u64,
}

impl Default for MechanismRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MechanismRegistry {
    /// Creates a registry with seed 0.
    pub fn new() -> Self {
        Self { seed: 0 }
    }

    /// Sets the seed used by seeded mechanisms (currently only `"random"`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The canonical names this registry resolves, in the order the paper
    /// introduces the mechanisms.
    ///
    /// `"naive"` is additionally accepted as an alias for `"naive-threads"`
    /// (the figures label the thread-side baseline plainly "naive").
    pub fn names() -> &'static [&'static str] {
        &[
            "naive-threads",
            "naive-objects",
            "random",
            "popularity",
            "adaptive",
        ]
    }

    /// Builds the mechanism registered under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownMechanismError`] when the name is not one of
    /// [`MechanismRegistry::names`] (or the `"naive"` alias).
    pub fn from_name(&self, name: &str) -> Result<Box<dyn OnlineMechanism>, UnknownMechanismError> {
        match name {
            "naive" | "naive-threads" => Ok(Box::new(Naive::threads())),
            "naive-objects" => Ok(Box::new(Naive::objects())),
            "random" => Ok(Box::new(Random::seeded(self.seed))),
            "popularity" => Ok(Box::new(Popularity::new())),
            "adaptive" => Ok(Box::new(Adaptive::with_paper_thresholds())),
            _ => Err(UnknownMechanismError {
                name: name.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_graph::BipartiteGraph;
    use mvc_trace::{ObjectId, ThreadId};

    #[test]
    fn every_registered_name_resolves_to_its_own_name() {
        let registry = MechanismRegistry::new();
        for &name in MechanismRegistry::names() {
            let mechanism = registry.from_name(name).unwrap();
            assert_eq!(mechanism.name(), name, "registry name mismatch");
        }
    }

    #[test]
    fn naive_alias_resolves_to_thread_side() {
        let m = MechanismRegistry::new().from_name("naive").unwrap();
        assert_eq!(m.name(), "naive-threads");
    }

    #[test]
    fn unknown_name_is_reported_with_candidates() {
        let err = MechanismRegistry::new().from_name("optimal").err().unwrap();
        assert_eq!(err.name, "optimal");
        let msg = err.to_string();
        assert!(msg.contains("optimal") && msg.contains("popularity"));
    }

    #[test]
    fn boxed_mechanisms_are_usable_through_the_trait() {
        let g = BipartiteGraph::from_edges(3, 3, &[(0, 0)]);
        for name in MechanismRegistry::names() {
            let mut mechanism = MechanismRegistry::new().from_name(name).unwrap();
            let c = mechanism.choose(&g, ThreadId(0), ObjectId(0));
            assert!(
                c == mvc_clock::Component::Thread(ThreadId(0))
                    || c == mvc_clock::Component::Object(ObjectId(0)),
                "{} chose an endpoint outside the event",
                mechanism.name()
            );
        }
    }

    #[test]
    fn registry_seed_controls_random() {
        let g = BipartiteGraph::from_edges(4, 4, &[(1, 2)]);
        let draws = |seed: u64| {
            let mut m = MechanismRegistry::new()
                .seed(seed)
                .from_name("random")
                .unwrap();
            (0..16)
                .map(|_| m.choose(&g, ThreadId(1), ObjectId(2)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(5), draws(5));
    }
}
