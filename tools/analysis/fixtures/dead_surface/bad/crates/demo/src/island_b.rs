pub struct Pong(pub crate::island_a::Ping);
