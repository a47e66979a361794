fn main() {
    println!("{}", demo::used() + demo::stocked());
}
