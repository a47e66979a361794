fn main() {
    println!("{}", demo::used());
}
