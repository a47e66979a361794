//! Seeded violation: `orphan` is called by its own unit test and by
//! nothing that ships; `Unreferenced` by nothing at all.

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
