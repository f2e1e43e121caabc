//! Fixture source: the float compare below must trip EP002.

pub mod guard;

pub fn centroid(xs: &[f32]) -> f32 {
    let sum = xs.iter().sum::<f32>();
    if sum == 0.5 {
        return 0.0;
    }
    sum / xs.len() as f32
}

#[cfg(test)]
mod tests {
    #[test]
    fn float_eq_here_is_fine() {
        assert!(super::centroid(&[1.0, 3.0]) == 2.0);
    }
}
