fn main() {
    println!(
        "{}",
        demo::used() + demo::inert_but_benchmarked() + demo::stocked()
    );
}
