pub struct Ping(pub Option<Box<crate::island_b::Pong>>);
