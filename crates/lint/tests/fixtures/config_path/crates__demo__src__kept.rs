//! The file the first entry names: still here, still checked.

pub fn checked(x: Option<u32>) -> u32 {
    x.unwrap()
}
