//! Figure drivers: one function per figure of the paper's evaluation, plus
//! the registry sweep over synthetic workload families (including the
//! adversarial star stream).

use mvc_core::{replay, OfflineOptimizer};
use mvc_graph::{GraphScenario, RandomGraphBuilder};
use mvc_online::{
    CompetitiveReport, CompetitiveTracker, MechanismRegistry, OnlineTimestamper,
    UnknownMechanismError,
};
use mvc_trace::{WorkloadBuilder, WorkloadKind};

use crate::runner::{average_size, AlgorithmKind, DataPoint, SweepConfig};

/// One line of a figure: an algorithm (and scenario) with its measured
/// points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Display name, e.g. `"popularity (nonuniform)"`.
    pub name: String,
    /// Measured points, in x order.
    pub points: Vec<DataPoint>,
}

#[cfg(test)]
impl Series {
    /// The mean size at the given x value, if that x was measured.
    fn mean_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.mean_size)
    }
}

/// A complete reproduced figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Identifier, e.g. `"fig4"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the swept x axis.
    pub x_label: String,
    /// Label of the y axis (always a clock size here).
    pub y_label: String,
    /// The measured series.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Looks up a series by name.
    #[cfg(test)]
    fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The x values of the first series (all series share the same sweep).
    pub fn x_values(&self) -> Vec<f64> {
        self.series
            .first()
            .map(|s| s.points.iter().map(|p| p.x).collect())
            .unwrap_or_default()
    }
}

/// Densities swept by the density figures (Figures 4 and 6).
const DENSITY_SWEEP: &[f64] = &[0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7, 0.9];

/// Node counts per side swept by the size figures (Figures 5 and 7).
const NODE_SWEEP: &[usize] = &[10, 20, 30, 40, 50, 70, 90, 110, 130, 150];

/// Density used by the node-count figures (matches the paper).
const FIXED_DENSITY: f64 = 0.05;

/// Nodes per side used by the density figures (matches the paper).
const FIXED_NODES: usize = 50;

fn scenario_label(scenario: GraphScenario) -> &'static str {
    scenario.name()
}

fn density_sweep_series(
    algorithms: &[AlgorithmKind],
    scenarios: &[GraphScenario],
    trials: usize,
) -> Vec<Series> {
    let mut series = Vec::new();
    for &scenario in scenarios {
        for alg in algorithms {
            let points = DENSITY_SWEEP
                .iter()
                .map(|&density| {
                    let cfg = SweepConfig {
                        threads: FIXED_NODES,
                        objects: FIXED_NODES,
                        density,
                        scenario,
                        trials,
                    };
                    average_size(&cfg, alg, density)
                })
                .collect();
            series.push(Series {
                name: format!("{} ({})", alg.name(), scenario_label(scenario)),
                points,
            });
        }
    }
    series
}

fn node_sweep_series(
    algorithms: &[AlgorithmKind],
    scenarios: &[GraphScenario],
    trials: usize,
) -> Vec<Series> {
    let mut series = Vec::new();
    for &scenario in scenarios {
        for alg in algorithms {
            let points = NODE_SWEEP
                .iter()
                .map(|&nodes| {
                    let cfg = SweepConfig {
                        threads: nodes,
                        objects: nodes,
                        density: FIXED_DENSITY,
                        scenario,
                        trials,
                    };
                    average_size(&cfg, alg, nodes as f64)
                })
                .collect();
            series.push(Series {
                name: format!("{} ({})", alg.name(), scenario_label(scenario)),
                points,
            });
        }
    }
    series
}

/// Figure 4: final clock size of the three online mechanisms as graph density
/// increases (50 threads + 50 objects, Uniform and Nonuniform scenarios).
pub fn fig4(trials: usize) -> FigureData {
    FigureData {
        id: "fig4".into(),
        title: "Vector size vs. graph density (online mechanisms, 50+50 nodes)".into(),
        x_label: "graph density".into(),
        y_label: "final vector clock size".into(),
        series: density_sweep_series(
            &[
                AlgorithmKind::NaiveThreads,
                AlgorithmKind::online("random"),
                AlgorithmKind::online("popularity"),
            ],
            &[GraphScenario::Uniform, GraphScenario::default_nonuniform()],
            trials,
        ),
    }
}

/// Figure 5: final clock size of the three online mechanisms as the number of
/// nodes per side increases (density 0.05).
pub fn fig5(trials: usize) -> FigureData {
    FigureData {
        id: "fig5".into(),
        title: "Vector size vs. number of nodes (online mechanisms, density 0.05)".into(),
        x_label: "nodes per side".into(),
        y_label: "final vector clock size".into(),
        series: node_sweep_series(
            &[
                AlgorithmKind::NaiveThreads,
                AlgorithmKind::online("random"),
                AlgorithmKind::online("popularity"),
            ],
            &[GraphScenario::Uniform, GraphScenario::default_nonuniform()],
            trials,
        ),
    }
}

/// Figure 6: offline optimal vs. online Popularity vs. Naive as graph density
/// increases (50 threads + 50 objects, Uniform scenario).
pub fn fig6(trials: usize) -> FigureData {
    FigureData {
        id: "fig6".into(),
        title: "Offline optimal vs. online mechanisms vs. density (50+50 nodes)".into(),
        x_label: "graph density".into(),
        y_label: "final vector clock size".into(),
        series: density_sweep_series(
            &[
                AlgorithmKind::OfflineOptimal,
                AlgorithmKind::online("popularity"),
                AlgorithmKind::NaiveThreads,
            ],
            &[GraphScenario::Uniform],
            trials,
        ),
    }
}

/// Figure 7: offline optimal vs. online Popularity vs. Naive as the number of
/// nodes increases (density 0.05, Uniform scenario).
pub fn fig7(trials: usize) -> FigureData {
    FigureData {
        id: "fig7".into(),
        title: "Offline optimal vs. online mechanisms vs. node count (density 0.05)".into(),
        x_label: "nodes per side".into(),
        y_label: "final vector clock size".into(),
        series: node_sweep_series(
            &[
                AlgorithmKind::OfflineOptimal,
                AlgorithmKind::online("popularity"),
                AlgorithmKind::NaiveThreads,
            ],
            &[GraphScenario::Uniform],
            trials,
        ),
    }
}

/// Extension experiment: the Adaptive hybrid of Section V's conclusion
/// compared against its two ingredients over the node sweep, on the
/// Nonuniform scenario where Popularity shines.
pub fn adaptive_ablation(trials: usize) -> FigureData {
    FigureData {
        id: "adaptive".into(),
        title: "Adaptive hybrid vs. Popularity vs. Naive (density 0.05, nonuniform)".into(),
        x_label: "nodes per side".into(),
        y_label: "final vector clock size".into(),
        series: node_sweep_series(
            &[
                AlgorithmKind::online("adaptive"),
                AlgorithmKind::online("popularity"),
                AlgorithmKind::NaiveThreads,
            ],
            &[GraphScenario::default_nonuniform()],
            trials,
        ),
    }
}

/// Operations generated per side-node in the registry workload sweep; enough
/// for the round-robin star to reach every thread several times.
const SWEEP_OPS_PER_NODE: usize = 4;

/// Sweeps registry mechanisms (by name) over a synthetic workload family,
/// driving each through the **full** unified timestamping pipeline — a
/// `Box<dyn OnlineMechanism>` inside an [`OnlineTimestamper`], with the
/// final size taken from the [`TimestampReport`](mvc_core::TimestampReport)
/// — rather than the decision-only simulation the graph figures use.  An
/// `offline-optimal` reference series over the same computations is appended.
///
/// The x axis is the thread count per side, 10 to 150 as in Figures 5 and 7.
///
/// # Errors
///
/// Returns [`UnknownMechanismError`] (before measuring anything) when a name
/// is not in the [`MechanismRegistry`].
pub fn registry_sweep(
    mechanisms: &[String],
    kind: WorkloadKind,
    trials: usize,
) -> Result<FigureData, UnknownMechanismError> {
    assert!(trials > 0, "at least one trial is required");
    let registry = MechanismRegistry::new();
    for name in mechanisms {
        registry.from_name(name)?;
    }

    let measure = |sizes: &[usize], nodes: usize| DataPoint {
        x: nodes as f64,
        mean_size: sizes.iter().sum::<usize>() as f64 / sizes.len() as f64,
        min_size: *sizes.iter().min().expect("trials > 0"),
        max_size: *sizes.iter().max().expect("trials > 0"),
    };

    // One series per requested mechanism plus the offline-optimal reference;
    // each (nodes, trial) computation is generated once and shared by all of
    // them, so every series really measures the same computations.
    let offline_index = mechanisms.len();
    let mut sizes = vec![vec![Vec::with_capacity(trials); NODE_SWEEP.len()]; mechanisms.len() + 1];
    for (node_index, &nodes) in NODE_SWEEP.iter().enumerate() {
        for trial in 0..trials {
            let c = WorkloadBuilder::new(nodes, nodes)
                .operations(nodes * SWEEP_OPS_PER_NODE)
                .kind(kind)
                .seed(trial as u64)
                .build();
            for (mechanism_index, name) in mechanisms.iter().enumerate() {
                let mechanism = registry
                    .clone()
                    .seed(crate::runner::mechanism_seed(trial as u64))
                    .from_name(name)
                    .expect("validated above");
                let mut timestamper = OnlineTimestamper::new(mechanism);
                let run = replay(&mut timestamper, &c)
                    .expect("registry mechanisms honor the endpoint contract");
                sizes[mechanism_index][node_index].push(run.report.clock_size());
            }
            sizes[offline_index][node_index].push(
                OfflineOptimizer::new()
                    .plan_for_computation(&c)
                    .clock_size(),
            );
        }
    }

    let series_names = mechanisms
        .iter()
        .cloned()
        .chain(std::iter::once("offline-optimal".to_owned()));
    let series = series_names
        .zip(sizes)
        .map(|(name, per_node)| Series {
            name,
            points: per_node
                .iter()
                .zip(NODE_SWEEP)
                .map(|(sizes, &nodes)| measure(sizes, nodes))
                .collect(),
        })
        .collect();

    Ok(FigureData {
        id: format!("sweep-{}", kind.name()),
        title: format!(
            "Registry mechanisms on the {} workload (full pipeline)",
            kind.name()
        ),
        x_label: "threads per side".into(),
        y_label: "final vector clock size".into(),
        series,
    })
}

/// Number of evenly spaced prefixes sampled by [`competitive_trajectory`].
const TRAJECTORY_SAMPLES: usize = 24;

/// Competitive-trajectory experiment: the *per-reveal* view behind the
/// paper's Figures 6/7 gap.  Each named registry mechanism replays the same
/// seeded reveal streams through a [`CompetitiveTracker`], and the figure
/// reports the online clock size after every revealed edge next to an
/// `offline-optimal` series — the optimum of the revealed prefix, maintained
/// incrementally by [`mvc_graph::IncrementalOptimum`] (its module states the
/// cost per edge) rather than recomputed from scratch, which is what makes
/// sweeping whole trajectories affordable.
///
/// The x axis is the number of revealed edges, sampled at up to
/// `TRAJECTORY_SAMPLES` (24) evenly spaced prefixes of the shortest stream
/// across trials; values are averaged over `config.trials` seeds.
///
/// # Errors
///
/// Returns [`UnknownMechanismError`] (before measuring anything) when a name
/// is not in the [`MechanismRegistry`].
///
/// # Panics
///
/// Panics when `mechanisms` is empty or `config.trials` is zero.
pub fn competitive_trajectory(
    mechanisms: &[String],
    config: &SweepConfig,
) -> Result<FigureData, UnknownMechanismError> {
    assert!(!mechanisms.is_empty(), "at least one mechanism is required");
    assert!(config.trials > 0, "at least one trial is required");
    let registry = MechanismRegistry::new();
    for name in mechanisms {
        registry.from_name(name)?;
    }

    // One tracked run per (mechanism, trial); each per-trial stream is
    // generated once and shared by every mechanism, so the offline series
    // (identical across mechanisms by construction) is taken from the first
    // mechanism's reports.
    let mut reports: Vec<Vec<CompetitiveReport>> = mechanisms
        .iter()
        .map(|_| Vec::with_capacity(config.trials))
        .collect();
    for trial in 0..config.trials {
        let (_, stream) = RandomGraphBuilder::new(config.threads, config.objects)
            .density(config.density)
            .scenario(config.scenario)
            .seed(trial as u64)
            .build_edge_stream();
        for (per_trial, name) in reports.iter_mut().zip(mechanisms) {
            let mechanism = registry
                .clone()
                .seed(crate::runner::mechanism_seed(trial as u64))
                .from_name(name)
                .expect("validated above");
            per_trial.push(CompetitiveTracker::new(mechanism).run(&stream));
        }
    }

    let min_len = reports[0]
        .iter()
        .map(|r| r.trajectory.len())
        .min()
        .unwrap_or(0);
    // Ceiling division keeps the sample count at (or just under) the cap;
    // the final prefix is always included.
    let stride = min_len.div_ceil(TRAJECTORY_SAMPLES).max(1);
    let sampled: Vec<usize> = (1..=min_len)
        .filter(|i| i % stride == 0 || *i == min_len)
        .collect();

    let aggregate = |values: &dyn Fn(&CompetitiveReport, usize) -> usize,
                     per_trial: &[CompetitiveReport]| {
        sampled
            .iter()
            .map(|&edges| {
                let sizes: Vec<usize> = per_trial.iter().map(|r| values(r, edges - 1)).collect();
                DataPoint {
                    x: edges as f64,
                    mean_size: sizes.iter().sum::<usize>() as f64 / sizes.len() as f64,
                    min_size: *sizes.iter().min().expect("trials > 0"),
                    max_size: *sizes.iter().max().expect("trials > 0"),
                }
            })
            .collect::<Vec<_>>()
    };

    let mut series: Vec<Series> = mechanisms
        .iter()
        .zip(&reports)
        .map(|(name, per_trial)| Series {
            name: name.clone(),
            points: aggregate(&|r, i| r.trajectory[i].online_size, per_trial),
        })
        .collect();
    series.push(Series {
        name: "offline-optimal".into(),
        points: aggregate(&|r, i| r.trajectory[i].offline_optimum, &reports[0]),
    });

    Ok(FigureData {
        id: "trajectory".into(),
        title: format!(
            "Competitive trajectory ({}+{} nodes, density {}, {})",
            config.threads,
            config.objects,
            config.density,
            config.scenario.name()
        ),
        x_label: "revealed edges".into(),
        y_label: "clock size after reveal".into(),
        series,
    })
}

/// The adversarial lower-bound sweep: every registry mechanism on the
/// single-hub [`WorkloadKind::Star`] stream, where naive-threads degenerates
/// to one component per thread while the optimum stays at 1.
pub fn star_sweep(trials: usize) -> FigureData {
    let names: Vec<String> = MechanismRegistry::names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    registry_sweep(&names, WorkloadKind::Star { hubs: 1 }, trials)
        .expect("registry names are always valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    // Keep trials tiny in unit tests; the binary uses more.
    const T: usize = 3;

    #[test]
    fn fig4_has_six_series_over_the_density_sweep() {
        let f = fig4(T);
        assert_eq!(f.series.len(), 6);
        assert_eq!(f.x_values(), DENSITY_SWEEP.to_vec());
        assert!(f.series_named("naive (uniform)").is_some());
        assert!(f.series_named("popularity (nonuniform)").is_some());
        assert!(f.series_named("does-not-exist").is_none());
        assert_eq!(f.id, "fig4");
    }

    #[test]
    fn fig4_shape_low_density_favors_popularity_high_density_favors_naive() {
        let f = fig4(5);
        let naive = f.series_named("naive (uniform)").unwrap();
        let pop = f.series_named("popularity (uniform)").unwrap();
        // Low density: popularity clearly below naive.
        assert!(pop.mean_at(0.01).unwrap() < naive.mean_at(0.01).unwrap());
        // High density: naive no worse than popularity (the crossover).
        assert!(naive.mean_at(0.9).unwrap() <= pop.mean_at(0.9).unwrap());
    }

    #[test]
    fn fig6_offline_is_lower_envelope() {
        let f = fig6(T);
        let offline = f.series_named("offline-optimal (uniform)").unwrap();
        let pop = f.series_named("popularity (uniform)").unwrap();
        let naive = f.series_named("naive (uniform)").unwrap();
        for (i, x) in DENSITY_SWEEP.iter().enumerate() {
            assert!(
                offline.points[i].mean_size <= pop.mean_at(*x).unwrap() + 1e-9,
                "offline above popularity at density {x}"
            );
            assert!(
                offline.points[i].mean_size <= naive.mean_at(*x).unwrap() + 1e-9,
                "offline above naive at density {x}"
            );
        }
    }

    #[test]
    fn fig7_node_sweep_is_monotone_for_naive() {
        let f = fig7(T);
        let naive = f.series_named("naive (uniform)").unwrap();
        for w in naive.points.windows(2) {
            assert!(
                w[0].mean_size <= w[1].mean_size + 1e-9,
                "naive size should not shrink as nodes grow"
            );
        }
        assert_eq!(
            f.x_values(),
            NODE_SWEEP.iter().map(|&n| n as f64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn adaptive_never_worse_than_both_ingredients_everywhere() {
        // The hybrid should track the better of its two ingredients up to a
        // small margin (it cannot beat both at once, but it must not blow up).
        let f = adaptive_ablation(3);
        let adaptive = f.series_named("adaptive (nonuniform)").unwrap();
        let naive = f.series_named("naive (nonuniform)").unwrap();
        for (a, n) in adaptive.points.iter().zip(naive.points.iter()) {
            assert!(
                a.mean_size <= n.mean_size * 1.5 + 5.0,
                "adaptive {} far above naive {} at x={}",
                a.mean_size,
                n.mean_size,
                a.x
            );
        }
    }

    #[test]
    fn star_sweep_shows_the_lower_bound_gap() {
        let f = star_sweep(2);
        assert_eq!(f.id, "sweep-star");
        let naive = f.series_named("naive-threads").unwrap();
        let popularity = f.series_named("popularity").unwrap();
        let adaptive = f.series_named("adaptive").unwrap();
        let offline = f.series_named("offline-optimal").unwrap();
        for (i, &nodes) in NODE_SWEEP.iter().enumerate() {
            assert_eq!(
                offline.points[i].mean_size, 1.0,
                "one hub covers the whole star"
            );
            assert_eq!(
                naive.points[i].mean_size, nodes as f64,
                "naive-threads pays one component per thread"
            );
            assert!(
                popularity.points[i].mean_size <= 2.0,
                "popularity must converge on the hub"
            );
            assert!(adaptive.points[i].mean_size <= 2.0);
        }
    }

    #[test]
    fn trajectory_keeps_online_above_offline_at_every_prefix() {
        let cfg = SweepConfig {
            threads: 20,
            objects: 20,
            density: 0.1,
            scenario: GraphScenario::default_nonuniform(),
            trials: 3,
        };
        let names = vec!["popularity".to_string(), "naive-threads".to_string()];
        let f = competitive_trajectory(&names, &cfg).unwrap();
        assert_eq!(f.id, "trajectory");
        assert_eq!(f.series.len(), 3, "two mechanisms + offline reference");
        let offline = f.series_named("offline-optimal").unwrap();
        assert!(!offline.points.is_empty());
        // The optimum of a growing revealed graph can only grow.
        for w in offline.points.windows(2) {
            assert!(w[0].mean_size <= w[1].mean_size + 1e-9);
            assert!(w[0].x < w[1].x, "sampled prefixes are strictly ordered");
        }
        for name in &names {
            let s = f.series_named(name).unwrap();
            for (p, o) in s.points.iter().zip(&offline.points) {
                assert_eq!(p.x, o.x, "all series share the sampled prefixes");
                assert!(
                    p.mean_size + 1e-9 >= o.mean_size,
                    "{name} dipped below the offline optimum at x={}",
                    p.x
                );
            }
        }
    }

    #[test]
    fn trajectory_rejects_unknown_mechanisms() {
        let cfg = SweepConfig::fifty_by_fifty(0.1, GraphScenario::Uniform, 1);
        let err = competitive_trajectory(&["warp-drive".to_string()], &cfg)
            .err()
            .unwrap();
        assert_eq!(err.name, "warp-drive");
    }

    #[test]
    fn registry_sweep_rejects_unknown_names_before_measuring() {
        let err = registry_sweep(&["warp-drive".to_string()], WorkloadKind::Uniform, 1)
            .err()
            .unwrap();
        assert_eq!(err.name, "warp-drive");
    }

    #[test]
    fn registry_sweep_works_on_any_workload_family() {
        let names = vec!["popularity".to_string()];
        let f = registry_sweep(&names, WorkloadKind::Uniform, 1).unwrap();
        assert_eq!(f.id, "sweep-uniform");
        assert_eq!(f.series.len(), 2, "requested mechanism + offline reference");
        let pop = f.series_named("popularity").unwrap();
        let offline = f.series_named("offline-optimal").unwrap();
        for (p, o) in pop.points.iter().zip(offline.points.iter()) {
            assert!(p.mean_size >= o.mean_size, "online below offline optimum");
        }
    }
}
