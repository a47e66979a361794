//! Clean twin: one name is called from a sibling module, one only
//! from the benchmark's sources (a caller root), one is not `pub`, and
//! one is re-exported and called through the re-export.

pub mod shelf;

pub use shelf::stocked;

pub mod helper {
    pub fn shared() -> u32 {
        1
    }
}

pub fn used() -> u32 {
    helper::shared()
}

pub fn inert_but_benchmarked() -> u32 {
    0
}

pub(crate) fn internal() -> u32 {
    used()
}

#[cfg(test)]
mod tests {
    pub fn test_only_helper() {}
}
