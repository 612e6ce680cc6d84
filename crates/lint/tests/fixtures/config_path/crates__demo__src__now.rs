//! What `renamed.rs` is called now: hot-path code nobody is looking at.

pub fn unchecked(x: Option<u32>) -> u32 {
    x.unwrap()
}
