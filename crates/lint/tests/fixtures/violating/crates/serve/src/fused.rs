//! Planted EP008 violations in a fused-executor shape: the designated
//! steady-state step materializes scratch buffers per call instead of
//! reusing the arena the planner sized.

/// Allocation-free at steady state (EP008).
pub fn step_fused(weights: &[f32], acts: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; acts.len()];
    let staged: Vec<f32> = acts.iter().map(|a| a * 2.0).collect();
    for (o, (w, a)) in out.iter_mut().zip(weights.iter().zip(&staged)) {
        *o = w * a;
    }
    out
}

/// Not designated: plan construction is a cold path, so the same
/// allocations draw no diagnostic here.
pub fn plan_cold(rows: usize, cols: usize) -> Vec<f32> {
    vec![0.0f32; rows * cols]
}
