//! Planted EP008 violations: heap allocations inside a function whose
//! doc marks it steady-state allocation-free.

/// Allocation-free at steady state (EP008).
pub fn record_hot(name: &str) -> String {
    let key = format!("span.{name}");
    let copy = key.clone();
    copy
}

/// Not designated: the same allocations are fine here.
pub fn render_cold(name: &str) -> String {
    format!("cold.{name}")
}
