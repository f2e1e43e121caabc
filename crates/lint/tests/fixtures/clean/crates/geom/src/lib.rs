//! Fixture source: the exact float compare inside the test module is
//! out of EP002's scope, and the one in `is_origin` carries a waiver.

pub mod guard;

pub fn centroid(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f32>() / xs.len() as f32
}

/// Exact test for the origin sentinel.
// waive EP002: the sentinel is stored as an exact 0.0, never computed
pub fn is_origin(x: f32) -> bool {
    x == 0.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn float_eq_is_fine_here() {
        assert!(super::centroid(&[2.0]) == 2.0);
    }
}
