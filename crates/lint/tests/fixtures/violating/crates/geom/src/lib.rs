//! Fixture source: the float compare below must trip EP002, and the
//! waiver on `midpoint` excuses nothing, so it must trip EP000.

pub mod guard;

pub fn centroid(xs: &[f32]) -> f32 {
    let sum = xs.iter().sum::<f32>();
    if sum == 0.5 {
        return 0.0;
    }
    sum / xs.len() as f32
}

/// A stale waiver: nothing in this fn compares floats.
// waive EP002: stale waiver kept on purpose so the fixture exercises EP000
pub fn midpoint(a: f32, b: f32) -> f32 {
    0.5 * (a + b)
}

#[cfg(test)]
mod tests {
    #[test]
    fn float_eq_here_is_fine() {
        assert!(super::centroid(&[1.0, 3.0]) == 2.0);
    }
}
