//! The fixture tree's lock order. `Ghost` ranks no `.lock()` anywhere,
//! so EP006 reports it.

pub enum Lock {
    Low,
    High,
    Ghost,
}
