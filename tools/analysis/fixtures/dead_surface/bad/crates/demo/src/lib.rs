//! Seeded violations: `orphan` is called by its own unit test and by
//! nothing that ships; `Unreferenced` by nothing at all; `reexported`
//! by nothing but the re-export below; and `island_a` / `island_b`
//! name only each other, so neither module is reached.

pub mod island_a;
pub mod island_b;
pub mod shelf;

pub use shelf::{
    reexported,
    stocked,
};

pub fn used() -> u32 {
    1
}

pub fn orphan() -> u32 {
    2
}

pub struct Unreferenced;

#[cfg(test)]
mod tests {
    #[test]
    fn orphan_is_two() {
        assert_eq!(super::orphan(), 2);
    }
}
