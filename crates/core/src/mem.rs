//! Byte-accounting conventions behind the engine's `accounted_bytes()`
//! impls and the `mem.*` gauges.
//!
//! Every stateful subsystem reports its **owned heap bytes** — the
//! allocations reachable behind the struct, *excluding*
//! `size_of::<Self>()` itself, which whatever container holds the value
//! accounts for (a `Vec` spine via [`vec_capacity_bytes`], a map node
//! via [`map_entry_bytes`]). The helpers here keep those conventions
//! identical across crates, so per-subsystem totals can be summed into
//! one ledger without double counting.
//!
//! The numbers are an *estimate with a contract*: deterministic
//! (identical across runs and hosts — no pointers, no
//! allocator introspection) and honest about what they cover (owned
//! heap blocks, not allocator slack or code). `fig_memory`'s CI gate
//! checks the estimate explains ≥ 70 % of measured peak RSS, so the
//! accounting cannot quietly rot.

/// Owned bytes behind a slice view: length × element size. The
/// conservative, spine-only form — `Vec`-aware call sites should use
/// [`vec_capacity_bytes`], which also counts unused capacity (the
/// allocation is what RSS sees).
pub fn vec_bytes<T>(v: &[T]) -> u64 {
    std::mem::size_of_val(v) as u64
}

/// Owned heap bytes behind a `Vec`, counting its full capacity.
pub fn vec_capacity_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

/// Estimated owned bytes of one `HashMap`/`BTreeMap` entry of the given
/// key/value sizes: the payload plus a fixed per-entry node overhead
/// (hash/branch bookkeeping), so map-heavy subsystems are not silently
/// undercounted. The constant is deliberately deterministic — a modeling
/// convention, not an allocator measurement.
pub fn map_entry_bytes(key_bytes: usize, value_bytes: usize) -> u64 {
    (key_bytes + value_bytes + MAP_ENTRY_OVERHEAD) as u64
}

/// Fixed per-entry overhead convention for hash/tree map accounting.
pub const MAP_ENTRY_OVERHEAD: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_helpers() {
        let v: Vec<u64> = Vec::with_capacity(10);
        assert_eq!(vec_capacity_bytes(&v), 80);
        assert_eq!(vec_bytes(&v), 0); // empty slice view
        let w = vec![1u64, 2, 3];
        assert_eq!(vec_bytes(&w), 24);
        assert_eq!(map_entry_bytes(8, 8), 32);
    }
}
