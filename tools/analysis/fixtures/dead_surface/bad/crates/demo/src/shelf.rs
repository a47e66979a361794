pub fn stocked() -> u32 {
    3
}

pub fn reexported() -> u32 {
    4
}
