//! The on-disk container format for LAN index artifacts.
//!
//! Every build artifact the workspace can persist — graph database with
//! cached signatures, proximity-graph adjacency, trained weight matrices,
//! quantized code books — is written into one file laid out as:
//!
//! ```text
//! superblock   magic "LANSTOR\0" · format version · section count
//! table        per section: name · absolute offset · length · FNV-1a64
//! table sum    FNV-1a64 over the encoded table itself
//! sections     payload bytes, each section 64-byte aligned, zero padded
//! ```
//!
//! Offsets are relative to the file start and no section references
//! another by address, so the file is relocatable: it can be copied, or
//! read anywhere in one aligned `read_exact`.
//!
//! The reader loads the whole file into an 8-byte-aligned buffer and hands
//! out borrowed [`Dec`] cursors per section. Bulk numeric payloads
//! (`u32`/`f32`/`u64`/... slabs) are decoded **zero-copy**: the cursor
//! aligns to an 8-byte boundary before each slab, and because every
//! section starts 64-byte aligned within an 8-byte-aligned buffer, the
//! slab cast is a plain (checked) pointer reinterpretation, not a copy.
//!
//! Integrity is layered: magic and version first, then the table checksum
//! (rejects a corrupted directory before any offset is trusted), then a
//! per-section checksum verified lazily on first access (rejects payload
//! corruption), and finally the consumer's own semantic validation via
//! [`StoreError::Corrupt`]. Every failure is a typed [`StoreError`] —
//! never a panic, never silent truncation.
//!
//! The format is little-endian on disk; the zero-copy read path therefore
//! requires a little-endian target (checked at compile time below), which
//! covers every platform the workspace builds for.

use std::fmt;
use std::path::Path;

#[cfg(target_endian = "big")]
compile_error!("lan-store's zero-copy load path requires a little-endian target");

/// File magic, first 8 bytes of every store file.
pub const MAGIC: [u8; 8] = *b"LANSTOR\0";

/// Current container format version. Bump on any layout change; readers
/// reject other versions with [`StoreError::BadVersion`] (see DESIGN.md's
/// compat policy: the format is versioned, not self-migrating). Version 2
/// added the ground-truth metric to the dataset spec.
pub const FORMAT_VERSION: u32 = 2;

/// Section payload alignment within the file (and, because the read
/// buffer is 8-byte aligned, within memory after a load).
pub const SECTION_ALIGN: usize = 64;

/// Typed failures of the store layer. Consumers add context by wrapping
/// semantic failures in [`StoreError::Corrupt`].
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure (open, read, write, rename).
    Io(String),
    /// The file does not start with [`MAGIC`] — not a store file.
    BadMagic,
    /// The file is a store file of an unsupported format version.
    BadVersion { found: u32, expected: u32 },
    /// The file ends before the advertised superblock, table, or section.
    Truncated { what: String },
    /// A checksum mismatch: the named section (or the section table
    /// itself) does not hash to its recorded value.
    BadChecksum { section: String },
    /// A section the consumer requires is absent.
    MissingSection { name: String },
    /// The bytes decoded, but the content violates a semantic invariant
    /// (shape mismatch, out-of-range id, inconsistent lengths, ...).
    Corrupt { what: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::BadMagic => write!(f, "not a LAN store file (bad magic)"),
            StoreError::BadVersion { found, expected } => {
                write!(
                    f,
                    "unsupported store format version {found} (expected {expected})"
                )
            }
            StoreError::Truncated { what } => write!(f, "truncated store file: {what}"),
            StoreError::BadChecksum { section } => {
                write!(f, "checksum mismatch in section '{section}'")
            }
            StoreError::MissingSection { name } => write!(f, "missing section '{name}'"),
            StoreError::Corrupt { what } => write!(f, "corrupt store content: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// Shorthand for a semantic-validation failure.
    pub fn corrupt(what: impl Into<String>) -> StoreError {
        StoreError::Corrupt { what: what.into() }
    }
}

/// FNV-1a 64-bit over a byte slice — the container's checksum. Chosen for
/// being dependency-free, branch-free, and fast enough to verify hundreds
/// of megabytes at load without showing up next to the I/O itself; this
/// is corruption detection, not cryptography.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn align_up(x: usize, a: usize) -> usize {
    x.div_ceil(a) * a
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// An append-only little-endian section encoder.
///
/// Scalar puts write their LE byte representation; slab puts align to an
/// 8-byte boundary first (zero padding) so the matching [`Dec`] slab reads
/// can reinterpret in place without copying.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

macro_rules! enc_scalar {
    ($fn_name:ident, $ty:ty) => {
        pub fn $fn_name(&mut self, v: $ty) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    };
}

macro_rules! enc_slab {
    ($fn_name:ident, $ty:ty) => {
        /// Writes `v.len()` as `u64`, pads to 8-byte alignment, then the
        /// elements' LE bytes.
        pub fn $fn_name(&mut self, v: &[$ty]) {
            self.put_u64(v.len() as u64);
            self.align8();
            // LE target: the in-memory representation is the wire format,
            // so the slab is one memcpy.
            let bytes = unsafe {
                std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v))
            };
            self.buf.extend_from_slice(bytes);
        }
    };
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    enc_scalar!(put_u8, u8);
    enc_scalar!(put_u16, u16);
    enc_scalar!(put_u32, u32);
    enc_scalar!(put_u64, u64);
    enc_scalar!(put_f32, f32);
    enc_scalar!(put_f64, f64);

    /// `usize` always travels as `u64` (the format is host-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Length-prefixed UTF-8.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    enc_slab!(put_u16_slice, u16);
    enc_slab!(put_u32_slice, u32);
    enc_slab!(put_u64_slice, u64);
    enc_slab!(put_f32_slice, f32);
    enc_slab!(put_f64_slice, f64);
    enc_slab!(put_u8_slice, u8);

    fn align8(&mut self) {
        let target = align_up(self.buf.len(), 8);
        self.buf.resize(target, 0);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Accumulates named sections and writes the container file.
#[derive(Default)]
pub struct Writer {
    sections: Vec<(String, Vec<u8>)>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends a finished section. Names must be unique within a file.
    pub fn add_section(&mut self, name: &str, enc: Enc) {
        assert!(
            !self.sections.iter().any(|(n, _)| n == name),
            "duplicate section name '{name}'"
        );
        self.sections.push((name.to_string(), enc.into_bytes()));
    }

    /// Serializes the container to bytes (superblock + table + table
    /// checksum + aligned payloads).
    pub fn to_bytes(&self) -> Vec<u8> {
        // Superblock.
        let mut head = Vec::new();
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        head.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());

        // The table needs the payload offsets, which depend on the table's
        // own length — resolved in two passes over a fixed-width layout.
        let table_len: usize = self
            .sections
            .iter()
            .map(|(n, _)| 4 + n.len() + 8 + 8 + 8)
            .sum();
        // Superblock + table + table checksum, then the first payload.
        let payload_base = align_up(head.len() + table_len + 8, SECTION_ALIGN);

        let mut table = Vec::with_capacity(table_len);
        let mut offset = payload_base;
        for (name, bytes) in &self.sections {
            table.extend_from_slice(&(name.len() as u32).to_le_bytes());
            table.extend_from_slice(name.as_bytes());
            table.extend_from_slice(&(offset as u64).to_le_bytes());
            table.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            table.extend_from_slice(&fnv1a64(bytes).to_le_bytes());
            offset = align_up(offset + bytes.len(), SECTION_ALIGN);
        }
        debug_assert_eq!(table.len(), table_len);

        let mut out = head;
        out.extend_from_slice(&table);
        out.extend_from_slice(&fnv1a64(&table).to_le_bytes());
        for (_, bytes) in &self.sections {
            out.resize(align_up(out.len(), SECTION_ALIGN), 0);
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Writes the container to `path` atomically (tmp file + rename), so a
    /// crash mid-save never leaves a half-written store behind.
    pub fn write(&self, path: &Path) -> Result<u64, StoreError> {
        let bytes = self.to_bytes();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| StoreError::Io(format!("create {}: {e}", dir.display())))?;
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)
            .map_err(|e| StoreError::Io(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| StoreError::Io(format!("rename to {}: {e}", path.display())))?;
        Ok(bytes.len() as u64)
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// The whole file in an 8-byte-aligned allocation, so in-place slab casts
/// at 8-aligned offsets are valid.
struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    fn with_len(len: usize) -> Self {
        AlignedBuf {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    fn from_bytes(bytes: &[u8]) -> Self {
        let mut buf = AlignedBuf::with_len(bytes.len());
        buf.as_mut_bytes()[..bytes.len()].copy_from_slice(bytes);
        buf
    }

    fn as_bytes(&self) -> &[u8] {
        // Sound: u64 words fully initialize their bytes; len <= words*8.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }

    fn as_mut_bytes(&mut self) -> &mut [u8] {
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
    }
}

struct SectionEntry {
    name: String,
    offset: usize,
    len: usize,
    checksum: u64,
}

/// A loaded store file: the validated section directory over one aligned
/// buffer. Section payloads are checksum-verified on first access.
pub struct Archive {
    buf: AlignedBuf,
    sections: Vec<SectionEntry>,
}

impl Archive {
    /// Opens and validates a store file: one metadata read, one aligned
    /// `read_exact` of the whole file, then magic / version / table
    /// checksum / bounds checks.
    pub fn open(path: &Path) -> Result<Archive, StoreError> {
        use std::io::Read;
        let mut file = std::fs::File::open(path)
            .map_err(|e| StoreError::Io(format!("open {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| StoreError::Io(format!("stat {}: {e}", path.display())))?
            .len() as usize;
        let mut buf = AlignedBuf::with_len(len);
        file.read_exact(buf.as_mut_bytes())
            .map_err(|e| StoreError::Io(format!("read {}: {e}", path.display())))?;
        Archive::from_aligned(buf)
    }

    /// Builds an archive from in-memory bytes (tests, corruption probes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Archive, StoreError> {
        Archive::from_aligned(AlignedBuf::from_bytes(bytes))
    }

    fn from_aligned(buf: AlignedBuf) -> Result<Archive, StoreError> {
        let b = buf.as_bytes();
        let need = |n: usize, what: &str| -> Result<(), StoreError> {
            if b.len() < n {
                Err(StoreError::Truncated {
                    what: format!("{what} needs {n} bytes, file has {}", b.len()),
                })
            } else {
                Ok(())
            }
        };
        need(16, "superblock")?;
        if b[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes(b[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(StoreError::BadVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let count = u32::from_le_bytes(b[12..16].try_into().unwrap()) as usize;

        let table_start = 16;
        let mut pos = table_start;
        // `count` is untrusted: reserve no more entries than the bytes after
        // the superblock can hold (a 4-byte name length and 24 bytes each),
        // so a hostile count reaches the `Truncated` check below instead of
        // asking the allocator for gigabytes.
        let mut sections = Vec::with_capacity(count.min((b.len() - table_start) / 28));
        for i in 0..count {
            need(pos + 4, "section table entry")?;
            let name_len = u32::from_le_bytes(b[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            need(pos + name_len + 24, "section table entry")?;
            let name = std::str::from_utf8(&b[pos..pos + name_len])
                .map_err(|_| StoreError::corrupt(format!("section {i} name is not UTF-8")))?
                .to_string();
            pos += name_len;
            let offset = u64::from_le_bytes(b[pos..pos + 8].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(b[pos + 8..pos + 16].try_into().unwrap()) as usize;
            let checksum = u64::from_le_bytes(b[pos + 16..pos + 24].try_into().unwrap());
            pos += 24;
            sections.push(SectionEntry {
                name,
                offset,
                len,
                checksum,
            });
        }
        need(pos + 8, "table checksum")?;
        let table_sum = u64::from_le_bytes(b[pos..pos + 8].try_into().unwrap());
        if fnv1a64(&b[table_start..pos]) != table_sum {
            return Err(StoreError::BadChecksum {
                section: "<section table>".to_string(),
            });
        }
        for s in &sections {
            if s.offset % SECTION_ALIGN != 0 {
                return Err(StoreError::corrupt(format!(
                    "section '{}' offset {} is not {SECTION_ALIGN}-byte aligned",
                    s.name, s.offset
                )));
            }
            let end = s.offset.checked_add(s.len).ok_or_else(|| {
                StoreError::corrupt(format!("section '{}' offset+len overflows", s.name))
            })?;
            need(end, &format!("section '{}'", s.name))?;
        }
        Ok(Archive { buf, sections })
    }

    /// Section names in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|s| s.name.as_str())
    }

    pub fn has_section(&self, name: &str) -> bool {
        self.sections.iter().any(|s| s.name == name)
    }

    /// Total file size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.buf.len
    }

    /// A borrowed cursor over the named section, after verifying its
    /// checksum.
    pub fn section(&self, name: &str) -> Result<Dec<'_>, StoreError> {
        let s = self
            .sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| StoreError::MissingSection {
                name: name.to_string(),
            })?;
        let bytes = &self.buf.as_bytes()[s.offset..s.offset + s.len];
        if fnv1a64(bytes) != s.checksum {
            return Err(StoreError::BadChecksum {
                section: s.name.clone(),
            });
        }
        Ok(Dec {
            buf: bytes,
            pos: 0,
            section: &s.name,
        })
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over one section's payload. Slab reads return
/// borrowed, zero-copy slices into the archive buffer.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'a str,
}

macro_rules! dec_scalar {
    ($fn_name:ident, $ty:ty) => {
        pub fn $fn_name(&mut self) -> Result<$ty, StoreError> {
            const N: usize = std::mem::size_of::<$ty>();
            let b = self.take(N)?;
            Ok(<$ty>::from_le_bytes(b.try_into().unwrap()))
        }
    };
}

macro_rules! dec_slab {
    ($fn_name:ident, $ty:ty) => {
        /// Zero-copy slab read: length prefix, 8-byte alignment skip, then
        /// an in-place reinterpretation of the payload bytes.
        pub fn $fn_name(&mut self) -> Result<&'a [$ty], StoreError> {
            let len = self.get_u64()? as usize;
            self.align8()?;
            let byte_len = len
                .checked_mul(std::mem::size_of::<$ty>())
                .ok_or_else(|| self.err(concat!(stringify!($ty), " slab length overflows")))?;
            let bytes = self.take(byte_len)?;
            // Sound: `bytes` sits at an 8-aligned offset inside an 8-aligned
            // allocation (sections are 64-aligned, `align8` re-aligns the
            // cursor), covers exactly `len` elements, and `$ty` is a plain
            // little-endian numeric type on a little-endian target.
            debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<$ty>(), 0);
            Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const $ty, len) })
        }
    };
}

impl<'a> Dec<'a> {
    fn err(&self, what: &str) -> StoreError {
        StoreError::corrupt(format!("section '{}': {what}", self.section))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| StoreError::Truncated {
                what: format!("section '{}' read overflows", self.section),
            })?;
        if end > self.buf.len() {
            return Err(StoreError::Truncated {
                what: format!(
                    "section '{}' needs {end} bytes, has {}",
                    self.section,
                    self.buf.len()
                ),
            });
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn align8(&mut self) -> Result<(), StoreError> {
        let target = align_up(self.pos, 8);
        let _ = self.take(target - self.pos)?;
        Ok(())
    }

    dec_scalar!(get_u8, u8);
    dec_scalar!(get_u16, u16);
    dec_scalar!(get_u32, u32);
    dec_scalar!(get_u64, u64);
    dec_scalar!(get_f32, f32);
    dec_scalar!(get_f64, f64);

    pub fn get_usize(&mut self) -> Result<usize, StoreError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| self.err("u64 does not fit usize on this host"))
    }

    pub fn get_bool(&mut self) -> Result<bool, StoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.err(&format!("bool byte {other}"))),
        }
    }

    pub fn get_str(&mut self) -> Result<&'a str, StoreError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.err("string is not UTF-8"))
    }

    dec_slab!(get_u16_slice, u16);
    dec_slab!(get_u32_slice, u32);
    dec_slab!(get_u64_slice, u64);
    dec_slab!(get_f32_slice, f32);
    dec_slab!(get_f64_slice, f64);
    dec_slab!(get_u8_slice, u8);

    /// Bytes left unread in the section.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the section was fully consumed — catches encoder/decoder
    /// drift where trailing bytes would otherwise pass silently.
    pub fn expect_end(&self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(self.err(&format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_writer() -> Writer {
        let mut w = Writer::new();
        let mut a = Enc::new();
        a.put_u32(7);
        a.put_str("hello");
        a.put_u32_slice(&[1, 2, 3, u32::MAX]);
        a.put_f64(1.5);
        w.add_section("alpha", a);
        let mut b = Enc::new();
        b.put_f32_slice(&[0.25, -1.0]);
        b.put_u8_slice(&[9, 8, 7]);
        b.put_bool(true);
        w.add_section("beta", b);
        w
    }

    #[test]
    fn round_trip_all_types() {
        let bytes = sample_writer().to_bytes();
        let a = Archive::from_bytes(&bytes).unwrap();
        assert_eq!(a.section_names().collect::<Vec<_>>(), vec!["alpha", "beta"]);

        let mut d = a.section("alpha").unwrap();
        assert_eq!(d.get_u32().unwrap(), 7);
        assert_eq!(d.get_str().unwrap(), "hello");
        assert_eq!(d.get_u32_slice().unwrap(), &[1, 2, 3, u32::MAX]);
        assert_eq!(d.get_f64().unwrap(), 1.5);
        d.expect_end().unwrap();

        let mut d = a.section("beta").unwrap();
        assert_eq!(d.get_f32_slice().unwrap(), &[0.25, -1.0]);
        assert_eq!(d.get_u8_slice().unwrap(), &[9, 8, 7]);
        assert!(d.get_bool().unwrap());
        d.expect_end().unwrap();
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("lan_store_test");
        let path = dir.join("round_trip.lan");
        let written = sample_writer().write(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let a = Archive::open(&path).unwrap();
        assert_eq!(a.total_bytes() as u64, written);
        let mut d = a.section("alpha").unwrap();
        assert_eq!(d.get_u32().unwrap(), 7);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sections_are_aligned() {
        let bytes = sample_writer().to_bytes();
        let a = Archive::from_bytes(&bytes).unwrap();
        for s in &a.sections {
            assert_eq!(s.offset % SECTION_ALIGN, 0);
        }
        // Zero-copy slab alignment: the u32 slab pointer is 4-aligned.
        let mut d = a.section("alpha").unwrap();
        d.get_u32().unwrap();
        d.get_str().unwrap();
        let slab = d.get_u32_slice().unwrap();
        assert_eq!(slab.as_ptr() as usize % std::mem::align_of::<u32>(), 0);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_writer().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Archive::from_bytes(&bytes),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_is_typed() {
        // 1 is the previous format (no ground-truth metric in the spec).
        for version in [1u32, 99] {
            let mut bytes = sample_writer().to_bytes();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            match Archive::from_bytes(&bytes) {
                Err(StoreError::BadVersion { found, expected }) => {
                    assert_eq!(found, version);
                    assert_eq!(expected, FORMAT_VERSION);
                }
                other => panic!("expected BadVersion, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        // Chopping the file anywhere must yield a typed error (or, for
        // cuts inside the final padding only, still open) — never a panic.
        let bytes = sample_writer().to_bytes();
        for cut in 0..bytes.len() {
            match Archive::from_bytes(&bytes[..cut]) {
                Ok(a) => {
                    // Opening can only succeed if every section is intact.
                    for name in ["alpha", "beta"] {
                        a.section(name).unwrap();
                    }
                }
                Err(
                    StoreError::Truncated { .. }
                    | StoreError::BadMagic
                    | StoreError::BadChecksum { .. }
                    | StoreError::Corrupt { .. },
                ) => {}
                Err(other) => panic!("cut at {cut}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_section_count_is_truncated_not_an_abort() {
        // A bare superblock claiming u32::MAX sections: reserving them up
        // front would ask for ~206 GB and abort the process.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 16);
        assert!(matches!(
            Archive::from_bytes(&bytes),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn payload_corruption_fails_checksum() {
        let bytes = sample_writer().to_bytes();
        let a = Archive::from_bytes(&bytes).unwrap();
        let payload_off = a.sections[0].offset;
        drop(a);
        let mut corrupted = bytes.clone();
        corrupted[payload_off] ^= 0x01;
        let a = Archive::from_bytes(&corrupted).unwrap();
        match a.section("alpha") {
            Err(StoreError::BadChecksum { section }) => assert_eq!(section, "alpha"),
            other => panic!("expected BadChecksum, got {:?}", other.err()),
        }
        // The untouched section still verifies.
        a.section("beta").unwrap();
    }

    #[test]
    fn table_corruption_fails_table_checksum() {
        let bytes = sample_writer().to_bytes();
        // Flip a byte inside the table region (after the 16-byte
        // superblock, before the first 64-aligned payload).
        let mut corrupted = bytes.clone();
        corrupted[20] ^= 0x40;
        match Archive::from_bytes(&corrupted) {
            Err(StoreError::BadChecksum { section }) => assert_eq!(section, "<section table>"),
            // Some flips turn into bounds errors before the hash check.
            Err(StoreError::Truncated { .. } | StoreError::Corrupt { .. }) => {}
            other => panic!("expected a typed error, got {:?}", other.err()),
        }
    }

    #[test]
    fn missing_section_is_typed() {
        let bytes = sample_writer().to_bytes();
        let a = Archive::from_bytes(&bytes).unwrap();
        assert!(matches!(
            a.section("gamma"),
            Err(StoreError::MissingSection { .. })
        ));
        assert!(!a.has_section("gamma"));
        assert!(a.has_section("alpha"));
    }

    #[test]
    fn reads_past_section_end_are_typed() {
        let mut w = Writer::new();
        let mut e = Enc::new();
        e.put_u32(1);
        w.add_section("tiny", e);
        let a = Archive::from_bytes(&w.to_bytes()).unwrap();
        let mut d = a.section("tiny").unwrap();
        d.get_u32().unwrap();
        assert!(matches!(d.get_u64(), Err(StoreError::Truncated { .. })));
        // A slab whose length prefix lies about the payload is typed too.
        let mut e = Enc::new();
        e.put_u64(1 << 60); // absurd length, no payload
        let mut w = Writer::new();
        w.add_section("liar", e);
        let a = Archive::from_bytes(&w.to_bytes()).unwrap();
        let mut d = a.section("liar").unwrap();
        assert!(matches!(
            d.get_u32_slice(),
            Err(StoreError::Truncated { .. } | StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_file_and_empty_sections() {
        assert!(matches!(
            Archive::from_bytes(&[]),
            Err(StoreError::Truncated { .. })
        ));
        let mut w = Writer::new();
        w.add_section("empty", Enc::new());
        let a = Archive::from_bytes(&w.to_bytes()).unwrap();
        let d = a.section("empty").unwrap();
        assert_eq!(d.remaining(), 0);
        d.expect_end().unwrap();
    }

    #[test]
    fn fnv1a64_known_vectors() {
        // Reference values of the canonical FNV-1a 64 parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn error_display_is_descriptive() {
        let e = StoreError::BadVersion {
            found: 2,
            expected: 1,
        };
        assert!(e.to_string().contains("version 2"));
        assert!(StoreError::BadMagic.to_string().contains("magic"));
        assert!(StoreError::corrupt("x").to_string().contains("x"));
    }
}
