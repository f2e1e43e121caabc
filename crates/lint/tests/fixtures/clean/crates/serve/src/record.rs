//! The sanctioned steady-state shapes for a designated hot function:
//! buffers routed through the scratch pool are exempt, and allocation-free
//! arithmetic is trivially fine.

pub struct Recorder {
    scratch: Vec<u32>,
}

impl Recorder {
    /// Designated hot fn: the only allocation-shaped call goes through
    /// the scratch pool, which EP008 exempts.
    ///
    /// Allocation-free at steady state (EP008).
    pub fn record_hot(&mut self, xs: &[u32]) -> u64 {
        let buf = self.scratch.to_vec();
        let mut total = 0u64;
        for (slot, x) in buf.iter().zip(xs) {
            total += u64::from(slot + x);
        }
        total
    }
}
