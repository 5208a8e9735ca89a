//! Adversary power measurements for the weakener case study.
//!
//! Three measurement modes, in decreasing strength:
//!
//! 1. [`exact_worst_atomic`] / [`exact_worst_fused`] — exact game values by
//!    exhaustive expectimax. The atomic game is exact outright; the fused
//!    game gives a certified **lower bound** on the unrestricted strong
//!    adversary (every fused schedule is realizable unfused);
//! 2. [`certain_win_unfused`] — the Boolean sure-win check on the full
//!    (unfused) game, used to certify `Prob[bad] = 1` for plain ABD;
//! 3. [`oblivious_estimate`] — Monte Carlo frequency under uniformly random
//!    scheduling, showing how far a *non*-adversarial environment is from
//!    the worst case.

use blunt_abd::scenarios::{weakener_abd, weakener_abd_fused, weakener_atomic};
use blunt_abd::system::{AbdEvent, AbdSystem};
use blunt_core::ratio::Ratio;
use blunt_programs::weakener::is_bad;
use blunt_sim::explore::{
    sure_win, worst_case_prob, ExploreBudget, ExploreError, ExploreStats, Pv, SearchTrace, Solver,
};
use blunt_sim::kernel::RunError;
use blunt_sim::montecarlo::{estimate, Estimate};
use blunt_sim::rng::Tape;
use blunt_sim::sched::RandomScheduler;

/// Exact `Prob[P(O_a) → B]` for the weakener over atomic registers
/// (expected: exactly 1/2, Appendix A.1).
///
/// # Errors
///
/// Returns [`ExploreError::BudgetExceeded`] if the budget runs out (the
/// atomic game is small; the default budget is ample).
pub fn exact_worst_atomic(budget: &ExploreBudget) -> Result<(Ratio, ExploreStats), ExploreError> {
    let out = blunt_obs::timed("adversary.search.atomic", || {
        worst_case_prob(&weakener_atomic(), &is_bad, budget)
    });
    if let Ok((_, stats)) = &out {
        stats.publish("adversary.search");
    }
    out
}

/// Exact worst-case bad probability on the **fused** `ABD^k` game — a
/// certified lower bound on the unrestricted adversary's power (expected:
/// 1 for `k = 1`, 5/8 for `k = 2`).
///
/// # Errors
///
/// Returns [`ExploreError::BudgetExceeded`] if the budget runs out.
pub fn exact_worst_fused(
    k: u32,
    budget: &ExploreBudget,
) -> Result<(Ratio, ExploreStats), ExploreError> {
    let out = blunt_obs::timed("adversary.search.fused", || {
        worst_case_prob(&weakener_abd_fused(k), &is_bad, budget)
    });
    if let Ok((_, stats)) = &out {
        stats.publish("adversary.search");
    }
    out
}

/// Whether the unrestricted adversary can force the bad outcome surely
/// against `ABD^k` (expected: `true` for `k = 1`, Appendix A.2; `false`
/// for `k ≥ 2` — the content of the blunting theorem on this program).
///
/// # Errors
///
/// Returns [`ExploreError::BudgetExceeded`] if the budget runs out — the
/// `k = 1` check needs on the order of 10⁷ states.
pub fn certain_win_unfused(
    k: u32,
    budget: &ExploreBudget,
) -> Result<(bool, ExploreStats), ExploreError> {
    let out = blunt_obs::timed("adversary.search.sure_win", || {
        sure_win(&weakener_abd(k), &is_bad, budget)
    });
    if let Ok((_, stats)) = &out {
        stats.publish("adversary.search");
    }
    out
}

/// Labels an [`AbdEvent`] the way Figure 1 narrates it: `Prog(p0)` for a
/// program step, `Deliver(p0→p2: Update(…))` for a delivery — the envelope is
/// read out of the *pre*-step network state, which is exactly what the
/// explainability renderers need.
#[must_use]
pub fn abd_label(sys: &AbdSystem, ev: &AbdEvent) -> String {
    match ev {
        AbdEvent::Prog(pid) => format!("Prog({pid})"),
        AbdEvent::Obj(slot) => {
            let env = sys.layer().net().peek(*slot);
            format!("Deliver({}→{}: {})", env.src, env.dst, env.msg)
        }
    }
}

fn solve_traced(
    sys: &AbdSystem,
    budget: &ExploreBudget,
    max_nodes: usize,
    timer: &str,
) -> Result<(Ratio, ExploreStats, SearchTrace), ExploreError> {
    let mut solver = Solver::new(&is_bad, *budget)
        .with_labeler(abd_label)
        .record_tree(max_nodes);
    let p = blunt_obs::timed(timer, || solver.solve(sys))?;
    let stats = solver.stats();
    stats.publish("adversary.search");
    Ok((
        p,
        stats,
        solver.take_tree().expect("tree recording was enabled"),
    ))
}

/// [`exact_worst_atomic`] with the adversary's decisions recorded: also
/// returns the (possibly truncated) expectimax game tree, whose edges are
/// labeled by [`abd_label`].
///
/// # Errors
///
/// Returns [`ExploreError::BudgetExceeded`] if the budget runs out.
pub fn exact_worst_atomic_traced(
    budget: &ExploreBudget,
    max_nodes: usize,
) -> Result<(Ratio, ExploreStats, SearchTrace), ExploreError> {
    solve_traced(
        &weakener_atomic(),
        budget,
        max_nodes,
        "adversary.search.atomic",
    )
}

/// [`exact_worst_fused`] with the adversary's decisions recorded (see
/// [`exact_worst_atomic_traced`]).
///
/// # Errors
///
/// Returns [`ExploreError::BudgetExceeded`] if the budget runs out.
pub fn exact_worst_fused_traced(
    k: u32,
    budget: &ExploreBudget,
    max_nodes: usize,
) -> Result<(Ratio, ExploreStats, SearchTrace), ExploreError> {
    solve_traced(
        &weakener_abd_fused(k),
        budget,
        max_nodes,
        "adversary.search.fused",
    )
}

/// The principal variation of the weakener-over-atomic game: the worst-case
/// schedule itself, with the coin resolved by `coins`.
///
/// # Errors
///
/// Returns [`ExploreError::BudgetExceeded`] if the budget runs out, or
/// [`ExploreError::StepLimit`] past `max_steps`.
pub fn atomic_principal_variation(
    coins: Vec<usize>,
    budget: &ExploreBudget,
    max_steps: usize,
) -> Result<Pv, ExploreError> {
    let mut solver = Solver::new(&is_bad, *budget).with_labeler(abd_label);
    solver.principal_variation(&weakener_atomic(), &mut Tape::new(coins), max_steps)
}

/// The principal variation of the fused `ABD^k` game — the expectimax
/// adversary's own Figure-1-style schedule, cross-checkable against the
/// scripted [`crate::fig1`] adversary.
///
/// # Errors
///
/// Returns [`ExploreError::BudgetExceeded`] if the budget runs out, or
/// [`ExploreError::StepLimit`] past `max_steps`.
pub fn fused_principal_variation(
    k: u32,
    coins: Vec<usize>,
    budget: &ExploreBudget,
    max_steps: usize,
) -> Result<Pv, ExploreError> {
    let mut solver = Solver::new(&is_bad, *budget).with_labeler(abd_label);
    solver.principal_variation(&weakener_abd_fused(k), &mut Tape::new(coins), max_steps)
}

/// Monte Carlo estimate of the bad-outcome frequency for `ABD^k` under
/// uniformly random scheduling.
///
/// # Errors
///
/// Propagates kernel [`RunError`]s (none are expected for these systems).
pub fn oblivious_estimate(k: u32, trials: usize, seed: u64) -> Result<Estimate, RunError> {
    estimate(
        || weakener_abd(k),
        RandomScheduler::new,
        is_bad,
        trials,
        seed,
        200_000,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_game_value_is_half() {
        let (p, _) = exact_worst_atomic(&ExploreBudget::default()).unwrap();
        assert_eq!(p, Ratio::new(1, 2));
    }

    #[test]
    #[ignore = "≈15 s release / minutes debug: exact fused k = 1 value; run with --ignored"]
    fn fused_k1_value_is_one() {
        // The fused game already contains the Figure 1 attack.
        let (p, stats) = exact_worst_fused(1, &ExploreBudget::with_max_states(5_000_000)).unwrap();
        assert_eq!(p, Ratio::ONE);
        assert!(stats.states > 100_000);
    }

    #[test]
    #[ignore = "about a minute: the ABD² headline (exact 5/8); run with --ignored"]
    fn fused_k2_value_is_five_eighths() {
        let (p, _) = exact_worst_fused(2, &ExploreBudget::with_max_states(20_000_000)).unwrap();
        assert_eq!(p, Ratio::new(5, 8));
    }

    #[test]
    #[ignore = "several minutes: exhaustive sure-win proof on the unfused game"]
    fn unfused_k1_certain_win() {
        let (w, _) = certain_win_unfused(1, &ExploreBudget::with_max_states(50_000_000)).unwrap();
        assert!(w);
    }

    #[test]
    fn atomic_traced_solve_matches_and_labels_the_tree() {
        let (p, stats, tree) =
            exact_worst_atomic_traced(&ExploreBudget::default(), 100_000).unwrap();
        assert_eq!(p, Ratio::new(1, 2));
        assert!(stats.states > 0);
        let root = tree.root().expect("root recorded");
        assert_eq!(root.value, Ratio::new(1, 2));
        // Every recorded edge label is an ABD narration: a program step or a
        // concrete delivery.
        let mut labels = 0usize;
        for node in tree.nodes() {
            if node.kind != blunt_sim::explore::SearchNodeKind::Adversary {
                continue;
            }
            for edge in &node.edges {
                assert!(
                    edge.label.starts_with("Prog(") || edge.label.starts_with("Deliver("),
                    "unexpected label {:?}",
                    edge.label
                );
                labels += 1;
            }
        }
        assert!(labels > 0, "the atomic game records labeled edges");
    }

    #[test]
    fn atomic_principal_variation_reaches_an_outcome() {
        for coin in 0..2usize {
            let pv =
                atomic_principal_variation(vec![coin], &ExploreBudget::default(), 10_000).unwrap();
            assert_eq!(pv.value, Ratio::new(1, 2), "game value is coin-independent");
            assert!(!pv.steps.is_empty());
            assert!(pv
                .schedule()
                .iter()
                .all(|l| l.starts_with("Prog(") || l.starts_with("Deliver(")));
        }
        // The game value 1/2 means the adversary's fate rests on the coin:
        // exactly one of the two resolutions ends bad.
        let bad_count = (0..2usize)
            .filter(|&coin| {
                let pv = atomic_principal_variation(vec![coin], &ExploreBudget::default(), 10_000)
                    .unwrap();
                is_bad(&pv.outcome)
            })
            .count();
        assert_eq!(bad_count, 1);
    }

    #[test]
    #[ignore = "≈15 s release: traced fused k = 1 — the PV agrees with the Figure 1 script"]
    fn fused_k1_traced_pv_forces_nontermination_like_fig1() {
        let budget = ExploreBudget::with_max_states(5_000_000);
        let (p, _, tree) = exact_worst_fused_traced(1, &budget, 10_000).unwrap();
        assert_eq!(p, Ratio::ONE);
        assert_eq!(tree.root().unwrap().value, Ratio::ONE);
        // Semantic agreement with the scripted fig1 adversary: whatever the
        // coin says, the expectimax schedule also drives the weakener into
        // the bad (nonterminating) outcome — the defining property of the
        // Figure 1 attack.
        for coin in 0..2usize {
            let pv = fused_principal_variation(1, vec![coin], &budget, 10_000).unwrap();
            assert_eq!(pv.value, Ratio::ONE);
            assert!(
                is_bad(&pv.outcome),
                "coin {coin}: expectimax PV must force the bad outcome, like fig1_script({coin})"
            );
        }
    }

    #[test]
    #[ignore = "about a minute: traced ABD² headline — PV value is exactly 5/8"]
    fn fused_k2_traced_pv_value_is_five_eighths() {
        let budget = ExploreBudget::with_max_states(20_000_000);
        let (p, _, tree) = exact_worst_fused_traced(2, &budget, 10_000).unwrap();
        assert_eq!(p, Ratio::new(5, 8));
        assert_eq!(tree.root().unwrap().value, Ratio::new(5, 8));
    }

    #[test]
    fn oblivious_environment_is_far_from_the_worst_case() {
        // Under random scheduling the weakener over ABD almost always
        // terminates — the 100% nontermination of Figure 1 is genuinely
        // adversarial, not typical.
        let est = oblivious_estimate(1, 400, 42).unwrap();
        assert!(
            est.mean() < 0.55,
            "random scheduling should not approach the adversarial value 1 (got {})",
            est.mean()
        );
    }
}
