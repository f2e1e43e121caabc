//! The fixture tree's lock order: declaration order is the rank.

pub enum Lock {
    /// Taken first.
    Low,
    /// Taken only while holding nothing later than `Low`.
    High,
}
