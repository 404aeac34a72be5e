//! Shared response bodies and a reusable buffer pool.
//!
//! The hot path of the paper's render pool produces one page body per
//! request. Two allocation habits make that path expensive:
//!
//! 1. every render grows a fresh `String`/`Vec` from zero, and
//! 2. every consumer (response cache, writer, HEAD handler) that wants the
//!    body after the render copies it.
//!
//! This module removes both. A [`BufferPool`] recycles body-sized
//! buffers across requests so renders start with warm capacity, and a
//! [`Body`] is an `Arc`-shared, immutable view of the finished bytes —
//! cloning a `Body` bumps a reference count instead of copying the
//! page. When the last `Body` handle (or an unfrozen [`PooledBuf`])
//! drops, the underlying buffer returns to its pool for the next
//! request.

use staged_sync::atomic::{AtomicU64, Ordering};
use staged_sync::{OrderedMutex, Rank};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

/// Default capacity handed out for a fresh (pool-miss) buffer.
const DEFAULT_BUF_CAPACITY: usize = 8 * 1024;

/// Rank of the buffer-pool free list (DESIGN.md §10): below the queue
/// state lock, above every subsystem that may render into a pooled
/// buffer while holding its own locks.
const POOL_RANK: Rank = Rank::new(310);

/// A pool of reusable byte buffers for response bodies.
///
/// `get` hands out a [`PooledBuf`]; dropping it (or the last [`Body`]
/// frozen from it) returns the buffer — cleared but with its capacity
/// intact — so the next render starts with a warm allocation.
///
/// # Examples
///
/// ```
/// use staged_http::BufferPool;
///
/// let pool = BufferPool::new(4, 1 << 20);
/// let mut buf = pool.get();
/// buf.extend_from_slice(b"<html>hello</html>");
/// let body = buf.freeze();
/// assert_eq!(&body[..], b"<html>hello</html>");
/// drop(body); // buffer returns to the pool
/// assert_eq!(pool.pooled(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BufferPool {
    shared: Arc<PoolShared>,
}

#[derive(Debug)]
struct PoolShared {
    bufs: OrderedMutex<Vec<Vec<u8>>>,
    /// Buffers kept when idle; extras are freed on return.
    max_pooled: usize,
    /// Buffers that grew beyond this are freed rather than pooled, so a
    /// single huge page cannot pin memory forever.
    max_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PoolShared {
    // lint: hot_path — runs on every body drop; only moves the buffer
    // back onto the free list.
    fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > self.max_capacity {
            return;
        }
        buf.clear();
        let mut bufs = self.bufs.lock();
        if bufs.len() < self.max_pooled {
            bufs.push(buf);
        }
    }
    // lint: end_hot_path
}

impl BufferPool {
    /// Creates a pool keeping at most `max_pooled` idle buffers, none
    /// larger than `max_capacity` bytes.
    pub fn new(max_pooled: usize, max_capacity: usize) -> Self {
        BufferPool {
            shared: Arc::new(PoolShared {
                bufs: OrderedMutex::new(POOL_RANK, "http.body.buffer_pool", Vec::new()),
                max_pooled,
                max_capacity,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// The process-wide pool used by the servers' render and static
    /// stages. Sized for a render pool's worth of concurrent bodies.
    pub fn global() -> &'static BufferPool {
        static GLOBAL: OnceLock<BufferPool> = OnceLock::new();
        GLOBAL.get_or_init(|| BufferPool::new(64, 4 << 20))
    }

    /// Takes a cleared buffer from the pool, or allocates one.
    // lint: hot_path — one checkout per rendered page; the pool-miss
    // branch is the only allocation.
    pub fn get(&self) -> PooledBuf {
        let recycled = self.shared.bufs.lock().pop();
        let buf = match recycled {
            Some(buf) => {
                self.shared.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(DEFAULT_BUF_CAPACITY)
            }
        };
        PooledBuf {
            buf,
            pool: Some(Arc::clone(&self.shared)),
        }
    }
    // lint: end_hot_path

    /// Number of idle buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.shared.bufs.lock().len()
    }

    /// `get` calls served by a recycled buffer.
    pub fn hits(&self) -> u64 {
        self.shared.hits.load(Ordering::Relaxed) // lint: allow(relaxed)
    }

    /// `get` calls that had to allocate.
    pub fn misses(&self) -> u64 {
        self.shared.misses.load(Ordering::Relaxed) // lint: allow(relaxed)
    }
}

/// A mutable buffer checked out of a [`BufferPool`].
///
/// Dereferences to `Vec<u8>` for writing; [`PooledBuf::freeze`] turns
/// the accumulated bytes into an immutable shared [`Body`] without
/// copying. Dropping an unfrozen buffer returns it to its pool.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Option<Arc<PoolShared>>,
}

impl PooledBuf {
    /// Freezes the buffer into an immutable, cheaply cloneable [`Body`].
    /// The bytes move — nothing is copied — and the allocation returns
    /// to the pool when the last `Body` handle drops.
    // lint: hot_path — the page bytes must move, never copy; the one
    // `Arc::new` is the body's shared handle.
    pub fn freeze(mut self) -> Body {
        Body {
            inner: Arc::new(BodyInner {
                data: std::mem::take(&mut self.buf),
                pool: self.pool.take(),
            }),
        }
    }
    // lint: end_hot_path
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.buf));
        }
    }
}

/// An immutable response body shared by reference count.
///
/// Cloning a `Body` is a pointer copy: the render stage, the
/// response cache, and the connection writer can all hold the same
/// page without duplicating it. Construct one from any byte source
/// (`Vec<u8>`, `String`, `&str`, `&[u8]`) or zero-copy from a pooled
/// render buffer via [`PooledBuf::freeze`].
///
/// # Examples
///
/// ```
/// use staged_http::Body;
///
/// let body: Body = "<p>hi</p>".into();
/// let cached = body.clone(); // refcount bump, no copy
/// assert_eq!(&body[..], cached.as_slice());
/// assert_eq!(body.handle_count(), 2);
/// ```
#[derive(Clone)]
pub struct Body {
    inner: Arc<BodyInner>,
}

struct BodyInner {
    data: Vec<u8>,
    pool: Option<Arc<PoolShared>>,
}

impl Drop for BodyInner {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.data));
        }
    }
}

impl Body {
    /// The shared empty body (e.g. redirects, 304s).
    pub fn empty() -> Body {
        static EMPTY: OnceLock<Body> = OnceLock::new();
        EMPTY
            .get_or_init(|| Body {
                inner: Arc::new(BodyInner {
                    data: Vec::new(),
                    pool: None,
                }),
            })
            .clone()
    }

    /// The body bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.inner.data
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.inner.data.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.data.is_empty()
    }

    /// Number of live handles to this allocation (for tests asserting
    /// that sharing did not copy).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

impl Default for Body {
    fn default() -> Self {
        Body::empty()
    }
}

impl Deref for Body {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner.data
    }
}

impl AsRef<[u8]> for Body {
    fn as_ref(&self) -> &[u8] {
        &self.inner.data
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.inner.data == other.inner.data
    }
}

impl Eq for Body {}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Body({} bytes)", self.len())
    }
}

impl From<Vec<u8>> for Body {
    fn from(data: Vec<u8>) -> Body {
        Body {
            inner: Arc::new(BodyInner { data, pool: None }),
        }
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body::from(s.into_bytes())
    }
}

impl From<&str> for Body {
    fn from(s: &str) -> Body {
        Body::from(s.as_bytes().to_vec())
    }
}

impl From<&[u8]> for Body {
    fn from(b: &[u8]) -> Body {
        Body::from(b.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for Body {
    fn from(b: &[u8; N]) -> Body {
        Body::from(b.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_moves_bytes_without_copy() {
        let pool = BufferPool::new(2, 1 << 20);
        let mut buf = pool.get();
        buf.extend_from_slice(b"page");
        let ptr = buf.as_ptr();
        let body = buf.freeze();
        assert_eq!(body.as_ptr(), ptr, "freeze must not reallocate");
        assert_eq!(&body[..], b"page");
    }

    #[test]
    fn last_handle_returns_buffer_to_pool() {
        let pool = BufferPool::new(2, 1 << 20);
        let mut buf = pool.get();
        buf.extend_from_slice(b"x");
        let body = buf.freeze();
        let second = body.clone();
        drop(body);
        assert_eq!(pool.pooled(), 0, "live handle must keep the buffer");
        drop(second);
        assert_eq!(pool.pooled(), 1);
        // The recycled buffer comes back cleared, capacity intact.
        let again = pool.get();
        assert!(again.is_empty());
        assert!(again.capacity() > 0);
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn unfrozen_buffer_returns_on_drop() {
        let pool = BufferPool::new(2, 1 << 20);
        drop(pool.get());
        assert_eq!(pool.pooled(), 1);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let pool = BufferPool::new(2, 16);
        let mut buf = pool.get();
        buf.extend_from_slice(&[0u8; 64]);
        drop(buf);
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn pool_keeps_at_most_max_pooled() {
        let pool = BufferPool::new(1, 1 << 20);
        let a = pool.get();
        let b = pool.get();
        drop(a);
        drop(b);
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn body_conversions_and_equality() {
        let a: Body = "abc".into();
        let b: Body = b"abc".into();
        let c: Body = Vec::from(*b"abc").into();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Body::empty().is_empty());
        assert_eq!(format!("{a:?}"), "Body(3 bytes)");
    }
}
