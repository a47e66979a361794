pub fn stocked() -> u32 {
    3
}
