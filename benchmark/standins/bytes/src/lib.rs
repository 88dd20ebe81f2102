//! Offline stand-in for `bytes`: [`Bytes`], an immutable byte buffer
//! whose clones share one allocation.

#![forbid(unsafe_code)]

use std::sync::Arc;

/// A cheaply cloneable, immutable run of bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes(Arc::from(Vec::new()))
    }

    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes(Arc::from(data))
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"{}\"", self.escape_ascii())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        Bytes(Arc::from(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_bytes() {
        let b = Bytes::copy_from_slice(b"hello world");
        assert_eq!(b.len(), 11);
        let c = b.clone();
        assert_eq!(&c[..], b"hello world");
        assert!(std::ptr::eq(b.as_ptr(), c.as_ptr()), "no copy on clone");
        assert_eq!(Bytes::from(vec![1, 2]), Bytes::copy_from_slice(&[1, 2]));
        assert!(Bytes::new().is_empty());
        assert_eq!(format!("{:?}", Bytes::copy_from_slice(b"a\n")), "b\"a\\n\"");
    }
}
