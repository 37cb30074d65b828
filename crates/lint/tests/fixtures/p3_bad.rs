//! P3 fixture: protocol code reaching the network, a thread and a file.
//! rejected-by: clippy::disallowed_types std::net::TcpStream
//! rejected-by: clippy::disallowed_methods std::thread::spawn
//! rejected-by: clippy::disallowed_methods std::fs::read
pub fn broadcast(buf: &[u8]) -> usize {
    let _ = std::net::TcpStream::connect("127.0.0.1:1");
    let _ = std::thread::spawn(|| ());
    let _ = std::fs::read("state");
    buf.len()
}
