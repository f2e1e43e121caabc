//! Fixture source: the exact float compare lives inside a test module,
//! which EP002 must skip.

pub mod guard;

pub fn centroid(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f32>() / xs.len() as f32
}

#[cfg(test)]
mod tests {
    #[test]
    fn float_eq_is_fine_here() {
        assert!(super::centroid(&[2.0]) == 2.0);
    }
}
