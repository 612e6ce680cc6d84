//! What `renamed.rs` is called now: code nobody is looking at.

pub fn unchecked(x: Option<u32>) -> u32 {
    x.unwrap()
}
