//! The engine snapshot byte format: a versioned, hand-rolled binary
//! encoding used by `ClusterSimulation::checkpoint` / `resume`.
//!
//! The build environment's `serde` is a marker-trait stub, so snapshots
//! are encoded by hand. The layout is defined **once**: every snapshotted
//! engine type has a single `visit_state(&mut self, v: &mut impl
//! StateVisitor)` that lists its fields by name, in layout order. Three
//! visitors walk those schemas:
//!
//! * [`ByteWriter`] encodes the visited fields;
//! * [`ByteReader`] decodes into them, checking every length prefix
//!   against the bytes that remain before anything is allocated;
//! * the divergence diff in `deflate-cluster`'s `bisect` module walks two
//!   snapshots at once and names the first field whose bits differ.
//!
//! Where decoding is not the mirror image of encoding — state the layout
//! leaves out and the restoring side rebuilds, such as indexes and queues
//! — the schema does the rebuilding itself when
//! [`StateVisitor::restoring`] says values came from bytes. The format
//! contract:
//!
//! * Every snapshot starts with [`SNAPSHOT_MAGIC`] and a `u32`
//!   [`SNAPSHOT_VERSION`]. Readers reject other magics and versions —
//!   there is no cross-version migration; a version bump invalidates old
//!   snapshots (and the golden byte digests pinned in
//!   `tests/checkpoint_restore.rs` must be updated with it).
//! * All integers are little-endian fixed width; `usize` travels as
//!   `u64`; `f64` travels as its IEEE-754 bit pattern (`to_bits`), so
//!   values round-trip bit-exactly, including `-0.0` and infinities.
//! * Collections are length-prefixed (`u64` count). Hash maps are
//!   serialized sorted by key, and heaps in their pop order, so snapshot
//!   bytes never depend on hash iteration order or heap layout.
//! * No wall-clock or host-dependent value may be written: two
//!   snapshots of the same run at the same event boundary must be
//!   byte-identical across machines and across time.

use crate::resources::{ResourceKind, ResourceVector};
use crate::vm::{Priority, VmClass, VmSpec};
use std::error::Error;
use std::fmt;

/// First bytes of every snapshot: "DFL" + format generation.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"DFLS";

/// Current snapshot format version. Bump on ANY byte-format change —
/// the golden digest test will force the bump by failing otherwise.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// Version found in the snapshot header.
        found: u32,
        /// Version this build reads ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The buffer ended before the decoder was done.
    Truncated,
    /// The bytes decoded but described an impossible state (bad
    /// discriminant, count overflow, state inconsistent with the
    /// restoring simulation's configuration).
    Corrupt(String),
    /// Decoding finished with bytes left over.
    TrailingBytes(usize),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "snapshot does not start with the DFLS magic"),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} is not the supported version {expected}"
            ),
            CheckpointError::Truncated => write!(f, "snapshot ends mid-field"),
            CheckpointError::Corrupt(what) => write!(f, "snapshot is corrupt: {what}"),
            CheckpointError::TrailingBytes(n) => {
                write!(f, "snapshot has {n} unconsumed trailing bytes")
            }
        }
    }
}

impl Error for CheckpointError {}

/// Convenience alias for decode results.
pub type CheckpointResult<T> = std::result::Result<T, CheckpointError>;

/// Append-only encoder for the snapshot byte format.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer (no header).
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// A writer primed with the snapshot header (magic + version).
    pub fn with_header() -> Self {
        let mut w = ByteWriter::new();
        w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        w
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Write a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64` (collection counts, indices).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Write raw bytes without a length prefix (sub-encoders that carry
    /// their own structure).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor-based decoder for the snapshot byte format.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over raw bytes (no header check).
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// A reader that has validated the snapshot header (magic +
    /// version) and is positioned after it.
    pub fn with_header(buf: &'a [u8]) -> CheckpointResult<Self> {
        let mut r = ByteReader::new(buf);
        let magic = r.take(SNAPSHOT_MAGIC.len())?;
        if magic != SNAPSHOT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        Ok(r)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> CheckpointResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> CheckpointResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool; any byte other than 0/1 is corrupt.
    pub fn get_bool(&mut self) -> CheckpointResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CheckpointError::Corrupt(format!(
                "bool byte {other} is neither 0 nor 1"
            ))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> CheckpointResult<u32> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> CheckpointResult<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Read a `usize` written by [`ByteWriter::put_usize`].
    pub fn get_usize(&mut self) -> CheckpointResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| CheckpointError::Corrupt(format!("count {v} overflows usize")))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> CheckpointResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> CheckpointResult<String> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Corrupt("string is not UTF-8".into()))
    }

    /// Assert every byte was consumed.
    pub fn finish(self) -> CheckpointResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::TrailingBytes(self.remaining()))
        }
    }
}

/// One pass over an engine type's snapshotted fields.
///
/// A snapshotted type implements `visit_state(&mut self, v: &mut impl
/// StateVisitor) -> CheckpointResult<()>` by visiting each field by
/// name, in layout order; that one method is the type's snapshot schema.
/// Every primitive takes the field by `&mut`: an encoding visitor reads
/// it, a decoding visitor overwrites it. Names are `&'static str` and the
/// encoder and decoder ignore them, so walking a schema never formats a
/// string; only the divergence diff turns them into dotted paths.
pub trait StateVisitor {
    /// `true` when visited values come *from* snapshot bytes. A schema
    /// then validates what it decoded and rebuilds the state the layout
    /// leaves out (indexes, queues, clamped views).
    fn restoring(&self) -> bool;

    /// Visit one byte.
    fn u8(&mut self, name: &'static str, v: &mut u8) -> CheckpointResult<()>;

    /// Visit a bool (one byte, 0 or 1).
    fn bool(&mut self, name: &'static str, v: &mut bool) -> CheckpointResult<()>;

    /// Visit a little-endian `u32`.
    fn u32(&mut self, name: &'static str, v: &mut u32) -> CheckpointResult<()>;

    /// Visit a little-endian `u64`.
    fn u64(&mut self, name: &'static str, v: &mut u64) -> CheckpointResult<()>;

    /// Visit an `f64` as its exact bit pattern.
    fn f64(&mut self, name: &'static str, v: &mut f64) -> CheckpointResult<()>;

    /// Visit a collection's length prefix (a `u64`). `min_item_bytes` is
    /// the smallest encoding of one item: a decoder rejects a length whose
    /// items could not fit in the bytes that remain, so no later
    /// allocation is sized by an impossible count.
    fn len(
        &mut self,
        name: &'static str,
        n: &mut usize,
        min_item_bytes: usize,
    ) -> CheckpointResult<()>;

    /// Open a nested scope — a struct field, or item `index` of the
    /// collection `name` — closed by [`leave`](Self::leave). Only the
    /// divergence diff tracks scopes.
    fn enter(&mut self, _name: &'static str, _index: Option<usize>) {}

    /// Close the scope opened by the matching [`enter`](Self::enter).
    fn leave(&mut self) {}

    /// Visit a `usize` as a `u64`.
    fn usize(&mut self, name: &'static str, v: &mut usize) -> CheckpointResult<()> {
        let mut wide = *v as u64;
        self.u64(name, &mut wide)?;
        *v = usize::try_from(wide)
            .map_err(|_| CheckpointError::Corrupt(format!("count {wide} overflows usize")))?;
        Ok(())
    }

    /// Visit the fields `visit` lists inside the scope `name`.
    fn scope(
        &mut self,
        name: &'static str,
        visit: impl FnOnce(&mut Self) -> CheckpointResult<()>,
    ) -> CheckpointResult<()>
    where
        Self: Sized,
    {
        self.enter(name, None);
        visit(self)?;
        self.leave();
        Ok(())
    }

    /// Visit item `index` of the collection `name`.
    fn item(
        &mut self,
        name: &'static str,
        index: usize,
        visit: impl FnOnce(&mut Self) -> CheckpointResult<()>,
    ) -> CheckpointResult<()>
    where
        Self: Sized,
    {
        self.enter(name, Some(index));
        visit(self)?;
        self.leave();
        Ok(())
    }

    /// Visit a length-prefixed vector. A decoder resizes `items` to the
    /// decoded length (new items start as `T::default()`) before `visit`
    /// fills each one.
    fn seq<T: Default>(
        &mut self,
        name: &'static str,
        items: &mut Vec<T>,
        min_item_bytes: usize,
        mut visit: impl FnMut(&mut Self, &mut T) -> CheckpointResult<()>,
    ) -> CheckpointResult<()>
    where
        Self: Sized,
    {
        let mut n = items.len();
        self.len(name, &mut n, min_item_bytes)?;
        items.reserve_exact(n.saturating_sub(items.len()));
        items.resize_with(n, T::default);
        for (i, item) in items.iter_mut().enumerate() {
            self.item(name, i, |v| visit(v, item))?;
        }
        Ok(())
    }

    /// Visit a length-prefixed vector of `f64`s.
    fn f64s(&mut self, name: &'static str, vs: &mut Vec<f64>) -> CheckpointResult<()>
    where
        Self: Sized,
    {
        self.seq(name, vs, 8, |v, x| v.f64("", x))
    }

    /// Visit a [`ResourceVector`] as its four components in
    /// [`ResourceKind::ALL`] order.
    fn resources(&mut self, name: &'static str, r: &mut ResourceVector) -> CheckpointResult<()>
    where
        Self: Sized,
    {
        self.scope(name, |v| {
            for kind in ResourceKind::ALL {
                v.f64(kind.name(), &mut r[kind])?;
            }
            Ok(())
        })
    }

    /// Visit a full [`VmSpec`]. `Priority::new` clamps, but any priority
    /// that was *stored* in a spec is already inside the clamp range, so
    /// the round-trip is bit-exact.
    fn vm_spec(&mut self, name: &'static str, spec: &mut VmSpec) -> CheckpointResult<()>
    where
        Self: Sized,
    {
        const CLASSES: [VmClass; 3] = [
            VmClass::Interactive,
            VmClass::DelayInsensitive,
            VmClass::Unknown,
        ];
        self.scope(name, |v| {
            v.u64("id", &mut spec.id.0)?;
            let mut class = tag_of(&CLASSES, spec.class);
            v.u8("class", &mut class)?;
            spec.class = from_tag(&CLASSES, class, "VmClass")?;
            v.resources("max_allocation", &mut spec.max_allocation)?;
            v.resources("min_allocation", &mut spec.min_allocation)?;
            let mut priority = spec.priority.value();
            v.f64("priority", &mut priority)?;
            spec.priority = Priority::new(priority);
            v.bool("deflatable", &mut spec.deflatable)
        })
    }
}

/// The discriminant of `value` in a schema's variant table.
///
/// # Panics
///
/// Panics when `value` is missing from `table` — a schema bug, not a
/// property of any input.
pub fn tag_of<T: PartialEq + fmt::Debug>(table: &[T], value: T) -> u8 {
    let tag = table
        .iter()
        .position(|v| *v == value)
        .unwrap_or_else(|| panic!("{value:?} missing from its snapshot tag table"));
    tag as u8
}

/// The variant a decoded discriminant names in a schema's variant table;
/// [`CheckpointError::Corrupt`] for a tag outside it.
pub fn from_tag<T: Copy>(table: &[T], tag: u8, what: &str) -> CheckpointResult<T> {
    table
        .get(tag as usize)
        .copied()
        .ok_or_else(|| CheckpointError::Corrupt(format!("unknown {what} discriminant {tag}")))
}

/// The encoding visitor.
impl StateVisitor for ByteWriter {
    fn restoring(&self) -> bool {
        false
    }

    fn u8(&mut self, _: &'static str, v: &mut u8) -> CheckpointResult<()> {
        self.put_u8(*v);
        Ok(())
    }

    fn bool(&mut self, _: &'static str, v: &mut bool) -> CheckpointResult<()> {
        self.put_bool(*v);
        Ok(())
    }

    fn u32(&mut self, _: &'static str, v: &mut u32) -> CheckpointResult<()> {
        self.put_u32(*v);
        Ok(())
    }

    fn u64(&mut self, _: &'static str, v: &mut u64) -> CheckpointResult<()> {
        self.put_u64(*v);
        Ok(())
    }

    fn f64(&mut self, _: &'static str, v: &mut f64) -> CheckpointResult<()> {
        self.put_f64(*v);
        Ok(())
    }

    fn len(&mut self, _: &'static str, n: &mut usize, _: usize) -> CheckpointResult<()> {
        self.put_usize(*n);
        Ok(())
    }
}

/// The decoding visitor.
impl StateVisitor for ByteReader<'_> {
    fn restoring(&self) -> bool {
        true
    }

    fn u8(&mut self, _: &'static str, v: &mut u8) -> CheckpointResult<()> {
        *v = self.get_u8()?;
        Ok(())
    }

    fn bool(&mut self, _: &'static str, v: &mut bool) -> CheckpointResult<()> {
        *v = self.get_bool()?;
        Ok(())
    }

    fn u32(&mut self, _: &'static str, v: &mut u32) -> CheckpointResult<()> {
        *v = self.get_u32()?;
        Ok(())
    }

    fn u64(&mut self, _: &'static str, v: &mut u64) -> CheckpointResult<()> {
        *v = self.get_u64()?;
        Ok(())
    }

    fn f64(&mut self, _: &'static str, v: &mut f64) -> CheckpointResult<()> {
        *v = self.get_f64()?;
        Ok(())
    }

    fn len(
        &mut self,
        _: &'static str,
        n: &mut usize,
        min_item_bytes: usize,
    ) -> CheckpointResult<()> {
        let len = self.get_usize()?;
        if len > self.remaining() / min_item_bytes.max(1) {
            return Err(CheckpointError::Truncated);
        }
        *n = len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(12345);
        w.put_f64(-0.0);
        w.put_f64(f64::INFINITY);
        w.put_f64(1.0 / 3.0);
        w.put_str("héllo");
        w.f64s("xs", &mut vec![1.5, f64::NEG_INFINITY]).unwrap();
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_usize().unwrap(), 12345);
        let neg_zero = r.get_f64().unwrap();
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits(), "-0.0 exact");
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert_eq!(r.get_f64().unwrap().to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(r.get_str().unwrap(), "héllo");
        let mut vs = Vec::new();
        r.f64s("xs", &mut vs).unwrap();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0], 1.5);
        assert_eq!(vs[1], f64::NEG_INFINITY);
        r.finish().unwrap();
    }

    #[test]
    fn header_round_trip_and_rejections() {
        let bytes = ByteWriter::with_header().into_bytes();
        let r = ByteReader::with_header(&bytes).unwrap();
        r.finish().unwrap();

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            ByteReader::with_header(&bad).unwrap_err(),
            CheckpointError::BadMagic
        );

        // Wrong version.
        let mut w = ByteWriter::new();
        w.put_bytes(&SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION + 1);
        let newer = w.into_bytes();
        assert_eq!(
            ByteReader::with_header(&newer).unwrap_err(),
            CheckpointError::VersionMismatch {
                found: SNAPSHOT_VERSION + 1,
                expected: SNAPSHOT_VERSION,
            }
        );

        // Truncated header.
        assert_eq!(
            ByteReader::with_header(&bytes[..3]).unwrap_err(),
            CheckpointError::Truncated
        );
    }

    #[test]
    fn truncation_and_trailing_detected() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(r.get_u64().unwrap_err(), CheckpointError::Truncated);

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 42);
        assert_eq!(r.finish().unwrap_err(), CheckpointError::TrailingBytes(4));
    }

    #[test]
    fn vm_spec_round_trips_bit_exactly() {
        use crate::vm::{VmClass, VmId, VmSpec};
        let mut spec = VmSpec::deflatable(
            VmId(99),
            VmClass::DelayInsensitive,
            ResourceVector::new(4000.0, 8192.0, 100.0, 1000.0),
        )
        .with_priority(Priority::new(0.4))
        .with_priority_derived_min();
        let mut odd = ResourceVector::new(-0.0, f64::INFINITY, 1.0 / 3.0, 0.1);
        let mut w = ByteWriter::new();
        w.vm_spec("spec", &mut spec).unwrap();
        w.resources("odd", &mut odd).unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut decoded = VmSpec::default();
        r.vm_spec("spec", &mut decoded).unwrap();
        assert_eq!(decoded, spec);
        let mut v = ResourceVector::default();
        r.resources("odd", &mut v).unwrap();
        assert_eq!(v[ResourceKind::Cpu].to_bits(), (-0.0f64).to_bits());
        assert_eq!(v[ResourceKind::Memory], f64::INFINITY);
        r.finish().unwrap();

        // An unknown class discriminant is corrupt, not a panic.
        let mut bad = bytes.clone();
        bad[8] = 9;
        assert!(matches!(
            ByteReader::new(&bad).vm_spec("spec", &mut decoded),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn impossible_lengths_are_rejected_before_allocating() {
        let mut w = ByteWriter::new();
        w.put_usize(usize::MAX / 2);
        w.put_f64(1.0);
        let bytes = w.into_bytes();
        let mut vs = Vec::new();
        assert_eq!(
            ByteReader::new(&bytes).f64s("xs", &mut vs).unwrap_err(),
            CheckpointError::Truncated
        );
        assert!(vs.capacity() == 0, "nothing may be allocated");
        // A length that fits is accepted.
        let mut w = ByteWriter::new();
        w.f64s("xs", &mut vec![2.5]).unwrap();
        ByteReader::new(&w.into_bytes())
            .f64s("xs", &mut vs)
            .unwrap();
        assert_eq!(vs, [2.5]);
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut w = ByteWriter::new();
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_bool().unwrap_err(),
            CheckpointError::Corrupt(_)
        ));
    }
}
