//! The sanctioned fused-executor shape: the designated steady-state step
//! works entirely in caller-provided arena slices, so it is allocation
//! free once the plan's buffers exist.

/// Designated hot fn: multiply-accumulate into a preplanned arena slice.
///
/// Allocation-free at steady state (EP008).
pub fn step_fused(weights: &[f32], acts: &[f32], out: &mut [f32]) -> f32 {
    let mut peak = 0.0f32;
    for (o, (w, a)) in out.iter_mut().zip(weights.iter().zip(acts)) {
        *o = w * a;
        peak = peak.max(*o);
    }
    peak
}
