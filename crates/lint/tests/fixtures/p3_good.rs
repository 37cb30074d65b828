//! P3 fixture (clean): the same shape, sans io — messages go to an
//! in-memory queue the simulation owns.
pub fn broadcast(queue: &mut Vec<Vec<u8>>, buf: &[u8]) -> usize {
    queue.push(buf.to_vec());
    buf.len()
}
