//! The chunked binary trace format (v2), dircc's one on-disk trace format.
//!
//! Replaying the paper's multi-million-reference workloads from disk wants
//! a format that (a) streams with memory bounded by a *chunk*, not the
//! trace, and (b) exploits the spatial locality every real address trace
//! has. Records are grouped into chunks, each chunk stores its minimum
//! address once as a *base*, and every record stores only the
//! LEB128-encoded delta from that base — so a chunk that stays inside a
//! few megabytes of address space pays 2–4 bytes per address instead of
//! up to 10.
//!
//! # On-disk layout
//!
//! ```text
//! magic    4 bytes  "DCCT"
//! version  1 byte   0x02
//! sections repeated:
//!   chunk:
//!     marker   u8      0x01
//!     records  u32 LE  number of records in the chunk (1..=MAX_CHUNK_RECORDS)
//!     bytes    u32 LE  payload length in bytes
//!     base     u64 LE  minimum address in the chunk
//!     payload  `bytes` bytes, per record:
//!       tag    u8      kind in bits 0-1, flags in bits 4-5, others 0
//!       cpu    LEB128
//!       pid    LEB128
//!       delta  LEB128  addr - base
//!   footer (exactly once, last):
//!     marker   u8      0x00
//!     total    u64 LE  total records across all chunks
//!     checksum u64 LE  FNV-1a 64 over every section byte before the footer
//! ```
//!
//! The checksum covers all chunk bytes (markers, chunk headers and
//! payloads) in file order; the footer itself is not checksummed. Bytes
//! after the footer are an error. An empty trace is header + footer.
//!
//! Version 1, a flat record-per-record format, is no longer read: its
//! header is rejected with a pointer to `dircc record`, which re-creates
//! any generated trace as v2 from its profile, length and seed.
//!
//! # Streaming
//!
//! [`ChunkedReader`] implements [`ChunkSource`]: it reads one on-disk
//! chunk's payload at a time (checksummed as it is read) and decodes it
//! lazily, at most one replay batch ([`BATCH_RECORDS`]) per call, into a
//! caller-supplied buffer. Resident trace memory is one chunk's encoded
//! payload plus one batch of records, however long the trace is, and the
//! payload buffer grows only as bytes arrive, so a chunk header that
//! claims more than the file holds costs no more than the file. The
//! engine's streaming replay consumes any `ChunkSource`; [`IterChunks`]
//! batches a fallible record iterator (an in-memory slice mapped through
//! `Ok`) so every source replays through one path.

use crate::record::{RecordFlags, TraceRecord};
use dircc_types::{AccessKind, Address, CpuId, ProcessId};
use std::io::{self, Read, Write};

/// Magic bytes at the start of a trace file.
const MAGIC: [u8; 4] = *b"DCCT";
/// Version byte of the retired flat format, recognized only to name it.
const VERSION_V1: u8 = 1;
/// Version byte of the chunked format.
pub const VERSION_V2: u8 = 2;
/// Default records per chunk: about half a MB of encoded payload, which
/// the reader holds while it decodes the chunk a batch at a time — small
/// enough to keep resident memory modest, large enough to amortize chunk
/// headers.
pub const DEFAULT_CHUNK_RECORDS: usize = 64 * 1024;
/// Upper bound on records per chunk (keeps the u32 payload-length field
/// sound: a record encodes to at most 31 bytes). The writer never exceeds
/// it, and the reader rejects a chunk header that claims more.
pub const MAX_CHUNK_RECORDS: usize = 1 << 26;
/// Records per replay batch: the most a [`ChunkedReader`] yields per
/// [`ChunkSource::next_chunk`] call, and the batch the engine interns,
/// splits and replays at a time. One batch's arrays stay comfortably
/// inside L1 alongside a protocol's working set.
pub const BATCH_RECORDS: usize = 4096;

const CHUNK_MARKER: u8 = 0x01;
const FOOTER_MARKER: u8 = 0x00;
/// Worst-case encoded record: tag + three 10-byte LEB128 fields.
const MAX_RECORD_BYTES: u64 = 31;
/// Best-case encoded record: tag + three 1-byte LEB128 fields.
const MIN_RECORD_BYTES: u64 = 4;
const TAG_KIND_MASK: u8 = 0x03;
const TAG_FLAGS_SHIFT: u32 = 4;
const TAG_KNOWN_MASK: u8 = 0x33;

fn kind_to_byte(k: AccessKind) -> u8 {
    match k {
        AccessKind::InstrFetch => 0,
        AccessKind::Read => 1,
        AccessKind::Write => 2,
    }
}

fn kind_from_byte(b: u8) -> Option<AccessKind> {
    match b {
        0 => Some(AccessKind::InstrFetch),
        1 => Some(AccessKind::Read),
        2 => Some(AccessKind::Write),
        _ => None,
    }
}

/// Writes `v` in the canonical (minimal-length) LEB128 encoding.
fn write_leb128(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 value.
///
/// The writer always emits the canonical minimal encoding; the reader is
/// permissive about redundant zero padding *within* the 10 bytes a u64 can
/// occupy, but rejects anything that cannot denote a u64: a 10th byte with
/// payload bits above bit 63 ("overflows u64") or with its continuation
/// bit still set ("continues past 10 bytes").
fn read_leb128<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut buf = [0u8; 1];
        r.read_exact(&mut buf)?;
        let byte = buf[0];
        if shift == 63 {
            // The 10th byte holds only bit 63: payload must be 0 or 1 and
            // the encoding cannot continue. Report the two failure modes
            // distinctly — a continuation bit here is a length violation,
            // not an overflow.
            if byte & 0x7f > 1 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "LEB128 value overflows u64",
                ));
            }
            if byte & 0x80 != 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "LEB128 encoding continues past 10 bytes",
                ));
            }
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// FNV-1a 64-bit running checksum.
#[derive(Debug, Clone, Copy)]
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn value(self) -> u64 {
        self.0
    }
}

/// A bounded-memory source of trace records, yielded a piece at a time.
///
/// Implementors fill a caller-supplied buffer so the caller controls the
/// allocation and can reuse it across pieces; nothing proportional to the
/// whole trace is ever resident. The trace reader ([`ChunkedReader`])
/// yields at most [`BATCH_RECORDS`] records per call, so the buffer stays
/// one replay batch whatever chunk size a file was written with; a
/// streaming replay decodes each piece once and replays it through every
/// protocol it drives.
pub trait ChunkSource {
    /// Replaces `buf`'s contents with the next piece of records. Returns
    /// `Ok(false)` (leaving `buf` empty) at end of stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and reports corrupt input as `InvalidData`.
    fn next_chunk(&mut self, buf: &mut Vec<TraceRecord>) -> io::Result<bool>;
}

impl<S: ChunkSource + ?Sized> ChunkSource for &mut S {
    fn next_chunk(&mut self, buf: &mut Vec<TraceRecord>) -> io::Result<bool> {
        (**self).next_chunk(buf)
    }
}

/// Streaming writer for the chunked v2 format.
///
/// Records are buffered and flushed a chunk at a time; [`finish`] writes
/// any partial final chunk plus the footer. An empty trace is valid.
///
/// [`finish`]: ChunkedWriter::finish
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    inner: W,
    header_written: bool,
    chunk: Vec<TraceRecord>,
    chunk_records: usize,
    payload: Vec<u8>,
    records: u64,
    chunks: u64,
    checksum: Fnv64,
}

impl<W: Write> ChunkedWriter<W> {
    /// Creates a writer with the default chunk size.
    pub fn new(inner: W) -> Self {
        ChunkedWriter::with_chunk_records(inner, DEFAULT_CHUNK_RECORDS)
    }

    /// Creates a writer flushing every `chunk_records` records.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_records` is 0 or above [`MAX_CHUNK_RECORDS`].
    pub fn with_chunk_records(inner: W, chunk_records: usize) -> Self {
        assert!(
            (1..=MAX_CHUNK_RECORDS).contains(&chunk_records),
            "chunk size must be in 1..={MAX_CHUNK_RECORDS}"
        );
        ChunkedWriter {
            inner,
            header_written: false,
            chunk: Vec::new(),
            chunk_records,
            payload: Vec::new(),
            records: 0,
            chunks: 0,
            checksum: Fnv64::new(),
        }
    }

    fn ensure_header(&mut self) -> io::Result<()> {
        if !self.header_written {
            self.inner.write_all(&MAGIC)?;
            self.inner.write_all(&[VERSION_V2])?;
            self.header_written = true;
        }
        Ok(())
    }

    /// Appends one record (buffered; flushed on chunk boundaries).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write(&mut self, r: &TraceRecord) -> io::Result<()> {
        self.chunk.push(*r);
        self.records += 1;
        if self.chunk.len() >= self.chunk_records {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends every record from an iterator.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_all<'a, I: IntoIterator<Item = &'a TraceRecord>>(
        &mut self,
        records: I,
    ) -> io::Result<()> {
        for r in records {
            self.write(r)?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.chunk.is_empty() {
            return Ok(());
        }
        self.ensure_header()?;
        let base = self.chunk.iter().map(|r| r.addr.raw()).min().unwrap_or(0);
        self.payload.clear();
        for r in &self.chunk {
            let tag = kind_to_byte(r.kind) | (r.flags.bits() << TAG_FLAGS_SHIFT);
            self.payload.push(tag);
            write_leb128(&mut self.payload, u64::from(r.cpu.raw()));
            write_leb128(&mut self.payload, u64::from(r.pid.raw()));
            write_leb128(&mut self.payload, r.addr.raw() - base);
        }
        let count = u32::try_from(self.chunk.len()).expect("chunk size bounded");
        let bytes = u32::try_from(self.payload.len()).expect("payload bounded by chunk size");
        let mut header = [0u8; 17];
        header[0] = CHUNK_MARKER;
        header[1..5].copy_from_slice(&count.to_le_bytes());
        header[5..9].copy_from_slice(&bytes.to_le_bytes());
        header[9..17].copy_from_slice(&base.to_le_bytes());
        self.checksum.update(&header);
        self.checksum.update(&self.payload);
        self.inner.write_all(&header)?;
        self.inner.write_all(&self.payload)?;
        self.chunk.clear();
        self.chunks += 1;
        Ok(())
    }

    /// Number of records written so far (including any still buffered).
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Number of chunks flushed so far.
    pub fn chunks_written(&self) -> u64 {
        self.chunks
    }

    /// Flushes the final partial chunk, writes the footer, and returns the
    /// underlying writer. Must be called; dropping the writer without it
    /// leaves a truncated file the reader will reject.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_chunk()?;
        self.ensure_header()?;
        let mut footer = [0u8; 17];
        footer[0] = FOOTER_MARKER;
        footer[1..9].copy_from_slice(&self.records.to_le_bytes());
        footer[9..17].copy_from_slice(&self.checksum.value().to_le_bytes());
        self.inner.write_all(&footer)?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming reader for the chunked v2 format.
///
/// Reads each on-disk chunk whole — framing checked, payload folded into
/// the checksum — and decodes it lazily: each [`ChunkSource::next_chunk`]
/// call decodes at most [`BATCH_RECORDS`] of the current chunk's records,
/// so the caller's buffer holds one replay batch however large the chunks
/// are. A truncated payload is reported before any of its records; a
/// malformed record when its batch is decoded. The footer's record count
/// and checksum are verified at the end.
#[derive(Debug)]
pub struct ChunkedReader<R: Read> {
    inner: R,
    /// The current chunk's encoded payload.
    payload: Vec<u8>,
    /// Offset in `payload` of the next record to decode.
    pos: usize,
    /// Records of the current chunk not yet decoded.
    pending: u32,
    /// The current chunk's base address.
    base: u64,
    records_read: u64,
    checksum: Fnv64,
    done: bool,
}

impl<R: Read> ChunkedReader<R> {
    /// Creates a reader, validating the header.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the magic or version is wrong (a flat v1
    /// trace is named as one, with a pointer to `dircc record`);
    /// propagates I/O errors.
    pub fn new(mut inner: R) -> io::Result<Self> {
        let mut header = [0u8; 5];
        inner.read_exact(&mut header)?;
        if header[..4] != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not a dircc binary trace"));
        }
        match header[4] {
            VERSION_V2 => Ok(ChunkedReader {
                inner,
                payload: Vec::new(),
                pos: 0,
                pending: 0,
                base: 0,
                records_read: 0,
                checksum: Fnv64::new(),
                done: false,
            }),
            VERSION_V1 => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "a flat v1 trace, a format dircc no longer reads; re-create it as chunked v2 \
                 with `dircc record --profile P --refs N --seed S`",
            )),
            v => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported trace version {v} (dircc reads chunked v2 only)"),
            )),
        }
    }

    /// Adapts the reader into a record-at-a-time iterator.
    pub fn records(self) -> Records<Self> {
        Records::new(self)
    }

    fn read_footer(&mut self) -> io::Result<()> {
        let mut footer = [0u8; 16];
        self.inner.read_exact(&mut footer).map_err(truncated)?;
        let total = u64::from_le_bytes(footer[..8].try_into().unwrap());
        let checksum = u64::from_le_bytes(footer[8..].try_into().unwrap());
        if total != self.records_read {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("footer claims {total} records, stream held {}", self.records_read),
            ));
        }
        if checksum != self.checksum.value() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trace checksum mismatch (corrupted file?)",
            ));
        }
        let mut trailing = [0u8; 1];
        if read_one(&mut self.inner, &mut trailing)?.is_some() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "trailing bytes after footer"));
        }
        self.done = true;
        Ok(())
    }

    /// Reads the next chunk's header and whole payload; its records are
    /// decoded later, a batch at a time, by [`Self::decode_batch`].
    fn read_chunk(&mut self) -> io::Result<()> {
        let mut header = [0u8; 16];
        self.inner.read_exact(&mut header).map_err(truncated)?;
        let count = u32::from_le_bytes(header[..4].try_into().unwrap());
        let bytes = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let base = u64::from_le_bytes(header[8..].try_into().unwrap());
        if count == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty chunk"));
        }
        if count as usize > MAX_CHUNK_RECORDS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("chunk claims {count} records, more than the {MAX_CHUNK_RECORDS} allowed"),
            ));
        }
        let (count64, bytes64) = (u64::from(count), u64::from(bytes));
        if bytes64 < count64 * MIN_RECORD_BYTES || bytes64 > count64 * MAX_RECORD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("chunk length {bytes} inconsistent with {count} records"),
            ));
        }
        self.checksum.update(&[CHUNK_MARKER]);
        self.checksum.update(&header);
        // Grow the buffer only as payload bytes arrive: the header's length
        // is unchecked until then, and a file that ends early must not cost
        // the memory its header claims.
        self.payload.clear();
        (&mut self.inner).take(bytes64).read_to_end(&mut self.payload)?;
        if self.payload.len() as u64 != bytes64 {
            return Err(truncated(io::ErrorKind::UnexpectedEof.into()));
        }
        self.checksum.update(&self.payload);
        self.pos = 0;
        self.pending = count;
        self.base = base;
        self.records_read += count64;
        Ok(())
    }

    /// Decodes the current chunk's next batch of records into `buf`.
    fn decode_batch(&mut self, buf: &mut Vec<TraceRecord>) -> io::Result<()> {
        let n = self.pending.min(BATCH_RECORDS as u32);
        let mut cursor = &self.payload[self.pos..];
        buf.reserve(n as usize);
        for _ in 0..n {
            buf.push(decode_record(&mut cursor, self.base)?);
        }
        self.pos = self.payload.len() - cursor.len();
        self.pending -= n;
        if self.pending == 0 && !cursor.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "chunk payload longer than its records",
            ));
        }
        Ok(())
    }
}

fn truncated(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        io::Error::new(io::ErrorKind::UnexpectedEof, "trace truncated mid-section (no footer)")
    } else {
        e
    }
}

/// Reads one byte, retrying `Interrupted`; `None` at EOF.
fn read_one<R: Read>(r: &mut R, buf: &mut [u8; 1]) -> io::Result<Option<u8>> {
    loop {
        match r.read(buf) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(buf[0])),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

fn decode_record(cursor: &mut &[u8], base: u64) -> io::Result<TraceRecord> {
    let mut tag_buf = [0u8; 1];
    cursor.read_exact(&mut tag_buf).map_err(truncated)?;
    let tag = tag_buf[0];
    if tag & !TAG_KNOWN_MASK != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown bits in record tag {tag:#04x}"),
        ));
    }
    let kind = kind_from_byte(tag & TAG_KIND_MASK)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad access kind in tag"))?;
    // The flag bits are masked to exactly the defined set by TAG_KNOWN_MASK.
    let flags = RecordFlags::from_bits(tag >> TAG_FLAGS_SHIFT);
    let cpu = field_u16(cursor, "cpu")?;
    let pid = field_u16(cursor, "pid")?;
    let delta = read_leb128(cursor).map_err(truncated)?;
    let addr = base
        .checked_add(delta)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "address delta overflows u64"))?;
    Ok(TraceRecord {
        cpu: CpuId::new(cpu),
        pid: ProcessId::new(pid),
        kind,
        addr: Address::new(addr),
        flags,
    })
}

fn field_u16(cursor: &mut &[u8], name: &str) -> io::Result<u16> {
    let v = read_leb128(cursor).map_err(truncated)?;
    u16::try_from(v).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, format!("{name} id {v} overflows u16"))
    })
}

impl<R: Read> ChunkSource for ChunkedReader<R> {
    fn next_chunk(&mut self, buf: &mut Vec<TraceRecord>) -> io::Result<bool> {
        buf.clear();
        if self.pending == 0 {
            if self.done {
                return Ok(false);
            }
            let mut marker = [0u8; 1];
            match read_one(&mut self.inner, &mut marker)? {
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "trace ends without a footer (truncated?)",
                    ))
                }
                Some(CHUNK_MARKER) => self.read_chunk()?,
                Some(FOOTER_MARKER) => {
                    self.read_footer()?;
                    return Ok(false);
                }
                Some(m) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad section marker {m:#04x}"),
                    ))
                }
            }
        }
        self.decode_batch(buf)?;
        Ok(true)
    }
}

/// Batches a fallible record iterator (e.g. an in-memory slice mapped
/// through `Ok`) into fixed-size chunks.
#[derive(Debug)]
pub struct IterChunks<I> {
    iter: I,
    chunk_records: usize,
    done: bool,
}

impl<I: Iterator<Item = io::Result<TraceRecord>>> IterChunks<I> {
    /// Creates a source yielding `chunk_records` records per chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_records` is 0.
    pub fn new(iter: I, chunk_records: usize) -> Self {
        assert!(chunk_records > 0, "chunk size must be positive");
        IterChunks { iter, chunk_records, done: false }
    }
}

impl<I: Iterator<Item = io::Result<TraceRecord>>> ChunkSource for IterChunks<I> {
    fn next_chunk(&mut self, buf: &mut Vec<TraceRecord>) -> io::Result<bool> {
        buf.clear();
        if self.done {
            return Ok(false);
        }
        while buf.len() < self.chunk_records {
            match self.iter.next() {
                Some(Ok(r)) => buf.push(r),
                Some(Err(e)) => {
                    self.done = true;
                    return Err(e);
                }
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        Ok(!buf.is_empty())
    }
}

/// Opens a trace file: [`ChunkedReader::new`], under the name the CLI and
/// benchmarks open files by.
///
/// # Errors
///
/// As [`ChunkedReader::new`]: `InvalidData` for a bad magic or any version
/// but 2 (a flat v1 trace is named as one); propagates I/O errors.
pub fn open_trace<R: Read>(inner: R) -> io::Result<ChunkedReader<R>> {
    ChunkedReader::new(inner)
}

/// Record-at-a-time iterator over any [`ChunkSource`], buffering one piece.
///
/// After an error the iterator fuses: the error is yielded once, then the
/// stream ends.
#[derive(Debug)]
pub struct Records<S> {
    source: S,
    buf: Vec<TraceRecord>,
    pos: usize,
    failed: bool,
}

impl<S: ChunkSource> Records<S> {
    /// Wraps a chunk source.
    pub fn new(source: S) -> Self {
        Records { source, buf: Vec::new(), pos: 0, failed: false }
    }
}

impl<S: ChunkSource> Iterator for Records<S> {
    type Item = io::Result<TraceRecord>;

    fn next(&mut self) -> Option<io::Result<TraceRecord>> {
        if self.failed {
            return None;
        }
        loop {
            if self.pos < self.buf.len() {
                let r = self.buf[self.pos];
                self.pos += 1;
                return Some(Ok(r));
            }
            self.pos = 0;
            match self.source.next_chunk(&mut self.buf) {
                Ok(true) => continue,
                Ok(false) => return None,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Profile};

    fn trace(n: u64) -> Vec<TraceRecord> {
        Generator::new(Profile::pops().with_total_refs(n), 11).collect()
    }

    fn encode(records: &[TraceRecord], chunk: usize) -> Vec<u8> {
        let mut w = ChunkedWriter::with_chunk_records(Vec::new(), chunk);
        w.write_all(records).unwrap();
        w.finish().unwrap()
    }

    fn decode(bytes: &[u8]) -> io::Result<Vec<TraceRecord>> {
        ChunkedReader::new(bytes)?.records().collect()
    }

    #[test]
    fn v2_round_trips_across_chunk_sizes() {
        let records = trace(10_000);
        for chunk in [1, 7, 997, 4096, 100_000] {
            let bytes = encode(&records, chunk);
            assert_eq!(decode(&bytes).unwrap(), records, "chunk size {chunk}");
        }
    }

    #[test]
    fn v2_is_denser_than_v1() {
        // The retired flat v1 layout spent a 5-byte header, then per record
        // 6 fixed bytes (flags, kind, cpu u16, pid u16) plus the LEB128
        // address.
        let records = trace(50_000);
        let v2 = encode(&records, DEFAULT_CHUNK_RECORDS);
        let mut addr = Vec::new();
        let v1_len = 5 + records
            .iter()
            .map(|r| {
                addr.clear();
                write_leb128(&mut addr, r.addr.raw());
                6 + addr.len()
            })
            .sum::<usize>();
        assert!(
            v2.len() < v1_len,
            "delta+varint should beat flat encoding: v2={} v1={v1_len}",
            v2.len()
        );
    }

    #[test]
    fn empty_v2_trace_round_trips() {
        let bytes = encode(&[], 16);
        assert_eq!(bytes.len(), 5 + 17, "header + footer only");
        assert_eq!(decode(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn reader_memory_is_bounded_by_chunk_size() {
        let records = trace(20_000);
        let bytes = encode(&records, 512);
        let mut reader = ChunkedReader::new(&bytes[..]).unwrap();
        let mut buf = Vec::new();
        let mut total = 0usize;
        while reader.next_chunk(&mut buf).unwrap() {
            total += buf.len();
            assert!(buf.len() <= 512, "chunk holds at most the chunk size");
        }
        assert_eq!(total, records.len());
        // The reusable buffer never grew past one chunk (plus Vec headroom).
        assert!(buf.capacity() < 2 * 512, "capacity {} not bounded", buf.capacity());

        // Default-size chunks, larger than a replay batch, still yield one
        // batch per call through `open_trace`, so the buffer stays
        // batch-sized.
        let records = trace(DEFAULT_CHUNK_RECORDS as u64 + 5_000);
        let bytes = encode(&records, DEFAULT_CHUNK_RECORDS);
        let mut reader = open_trace(&bytes[..]).unwrap();
        let mut got = Vec::with_capacity(records.len());
        while reader.next_chunk(&mut buf).unwrap() {
            assert!(buf.len() <= BATCH_RECORDS, "{} records in one call", buf.len());
            assert!(
                buf.capacity() < 2 * BATCH_RECORDS,
                "capacity {} not bounded by the batch",
                buf.capacity()
            );
            got.extend_from_slice(&buf);
        }
        assert_eq!(got, records);
    }

    /// A v2 header and one chunk header claiming `count` records in `bytes`
    /// payload bytes, with no payload: 22 bytes in all.
    fn chunk_header_only(count: u32, bytes: u32) -> Vec<u8> {
        let mut file = b"DCCT\x02\x01".to_vec();
        file.extend_from_slice(&count.to_le_bytes());
        file.extend_from_slice(&bytes.to_le_bytes());
        file.extend_from_slice(&0u64.to_le_bytes());
        file
    }

    #[test]
    fn hostile_chunk_headers_allocate_nothing_the_file_lacks() {
        // A chunk of the largest legal count, claiming 2 GB of payload the
        // file does not hold: the read fails as truncated, and the payload
        // buffer never grew toward the claimed size.
        let file = chunk_header_only(MAX_CHUNK_RECORDS as u32, 2_000_000_000);
        assert_eq!(file.len(), 22);
        let mut reader = ChunkedReader::new(&file[..]).unwrap();
        let err = reader.next_chunk(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "got {err}");
        assert!(
            reader.payload.capacity() < 1 << 20,
            "payload buffer grew to {} bytes",
            reader.payload.capacity()
        );

        // One record more than a chunk may hold is rejected on its header.
        let over = MAX_CHUNK_RECORDS as u32 + 1;
        let err = decode(&chunk_header_only(over, 4 * over)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("more than the 67108864 allowed"), "got {err}");
    }

    #[test]
    fn extreme_addresses_round_trip() {
        let mk = |addr: u64| {
            TraceRecord::new(CpuId::new(0), ProcessId::new(0), AccessKind::Read, Address::new(addr))
        };
        let records = vec![mk(u64::MAX), mk(0), mk(u64::MAX - 1), mk(1)];
        for chunk in [1, 2, 4] {
            let bytes = encode(&records, chunk);
            assert_eq!(decode(&bytes).unwrap(), records, "chunk size {chunk}");
        }
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        // Small chunks, and a chunk larger than a replay batch (decoded
        // over two calls) followed by a short one. The large case uses
        // 4-byte records to keep the file, and the quadratic cost of
        // cutting it everywhere, small.
        let big = BATCH_RECORDS + 50;
        let dense: Vec<TraceRecord> = (0..big as u64 + 50)
            .map(|i| {
                let cpu = (i % 4) as u16;
                let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
                TraceRecord::new(CpuId::new(cpu), ProcessId::new(cpu), kind, Address::new(i % 128))
            })
            .collect();
        for (records, chunk) in [(trace(100), 32), (dense, big)] {
            let bytes = encode(&records, chunk);
            // Any strict prefix (past the 5-byte header) must fail: either
            // UnexpectedEof mid-section or a missing footer. Never a clean
            // read.
            for cut in 5..bytes.len() {
                let result = decode(&bytes[..cut]);
                assert!(result.is_err(), "cut at {cut} of {} decoded cleanly", bytes.len());
            }
        }
    }

    #[test]
    fn corruption_is_detected_by_the_checksum() {
        // Small chunks, and one chunk of three replay batches, whose later
        // batches are decoded only after earlier ones were handed out.
        for (n, chunk) in [(500, 128), (3 * BATCH_RECORDS as u64, 3 * BATCH_RECORDS)] {
            let bytes = encode(&trace(n), chunk);
            // Flip one payload bit at several points; every flip must fail
            // decode (framing checks may fire first, checksum is the
            // backstop).
            for at in [bytes.len() / 4, bytes.len() / 2, bytes.len() * 3 / 4] {
                let mut corrupt = bytes.clone();
                corrupt[at] ^= 0x40;
                assert!(
                    decode(&corrupt).is_err(),
                    "bit flip at {at} of {} undetected",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn footer_record_count_mismatch_rejected() {
        let records = trace(50);
        let mut bytes = encode(&records, 16);
        let n = bytes.len();
        // The footer's total sits in the 8 bytes after the marker.
        bytes[n - 16] ^= 0x01;
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("footer claims"), "got {err}");
    }

    #[test]
    fn trailing_bytes_after_footer_rejected() {
        let mut bytes = encode(&trace(10), 4);
        bytes.push(0xaa);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing bytes"), "got {err}");
    }

    /// A flat v1 file: its 5-byte header, then one record (flags, kind, cpu
    /// u16 LE, pid u16 LE, LEB128 address).
    const FLAT_V1: &[u8] = b"DCCT\x01\x00\x01\x00\x00\x00\x00\x40";

    fn assert_v1_hint(err: &io::Error) {
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("flat v1"), "names the format: {msg}");
        assert!(msg.contains("dircc record"), "hint should name the converter: {msg}");
    }

    #[test]
    fn v1_trace_rejected_by_v2_reader_with_hint() {
        assert_v1_hint(&ChunkedReader::new(FLAT_V1).unwrap_err());
    }

    #[test]
    fn open_trace_reads_v2_and_rejects_v1() {
        let records = trace(1_000);
        let v2 = encode(&records, 128);
        let got: Vec<_> =
            open_trace(&v2[..]).unwrap().records().collect::<io::Result<_>>().unwrap();
        assert_eq!(got, records);
        assert_v1_hint(&open_trace(FLAT_V1).unwrap_err());
    }

    #[test]
    fn bad_magic_and_unknown_version_rejected() {
        assert_eq!(
            ChunkedReader::new(&b"NOPE\x02"[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(open_trace(&b"NOPE\x02"[..]).unwrap_err().kind(), io::ErrorKind::InvalidData);
        let err = open_trace(&b"DCCT\x63"[..]).unwrap_err();
        assert!(err.to_string().contains("chunked v2 only"), "got {err}");
    }

    #[test]
    fn iter_chunks_yield_an_in_memory_slice_in_order() {
        let records = trace(1_000);
        let mut source = IterChunks::new(records.iter().copied().map(Ok), 64);
        let mut buf = Vec::new();
        let mut got = Vec::new();
        let mut chunks = 0;
        while source.next_chunk(&mut buf).unwrap() {
            chunks += 1;
            got.extend_from_slice(&buf);
        }
        assert_eq!(got, records);
        assert_eq!(chunks, 1_000usize.div_ceil(64), "full chunks, then one short tail");
        assert!(!source.next_chunk(&mut buf).unwrap(), "exhausted sources stay exhausted");
    }

    #[test]
    fn unknown_tag_bits_rejected() {
        let mut bytes = encode(&trace(1), 1);
        // First record's tag byte sits right after the 5-byte file header
        // and 17-byte chunk header.
        bytes[22] |= 0x40;
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A reader that yields one byte at a time, interposing a spurious
    /// `Interrupted` error before every byte — what a signal-heavy
    /// environment can do to a real file descriptor.
    struct Interrupting<'a> {
        data: &'a [u8],
        ready: bool,
    }

    impl Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            self.ready = false;
            if self.data.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[0];
            self.data = &self.data[1..];
            Ok(1)
        }
    }

    #[test]
    fn interrupted_reads_are_retried_not_fatal() {
        // Every read of the header, the section markers, the chunk headers
        // and payloads, the footer and the trailing-byte probe must retry
        // `Interrupted` rather than surface it (or mistake it for EOF).
        let records = trace(200);
        let bytes = encode(&records, 64);
        let reader = ChunkedReader::new(Interrupting { data: &bytes, ready: false }).unwrap();
        let got: Vec<_> = reader.records().collect::<io::Result<_>>().unwrap();
        assert_eq!(got, records);
    }

    #[test]
    fn leb128_extremes() {
        for v in [0u64, 1, 127, 128, u64::MAX] {
            let mut buf = Vec::new();
            write_leb128(&mut buf, v);
            assert_eq!(read_leb128(&mut &buf[..]).unwrap(), v);
        }
    }

    #[test]
    fn leb128_round_trips_every_shift_boundary() {
        // Values straddling each 7-bit group boundary: 2^(7k) - 1 and
        // 2^(7k), where the encoded length changes.
        for k in 1..10u32 {
            let boundary = 1u64 << (7 * k);
            for v in [boundary - 1, boundary, u64::MAX >> 1, (u64::MAX >> 1) + 1] {
                let mut buf = Vec::new();
                write_leb128(&mut buf, v);
                assert!(buf.len() <= 10);
                assert_eq!(read_leb128(&mut &buf[..]).unwrap(), v, "value {v:#x}");
            }
        }
        // Canonical u64::MAX is exactly 10 bytes, last byte 0x01.
        let mut buf = Vec::new();
        write_leb128(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        assert_eq!(buf[9], 0x01);
        // Canonical 0 is a single zero byte.
        let mut buf = Vec::new();
        write_leb128(&mut buf, 0);
        assert_eq!(buf, [0x00]);
    }

    #[test]
    fn leb128_overflow_rejected() {
        // 10th byte with payload above bit 63: a true overflow.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x02);
        let err = read_leb128(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("overflows"), "got {err}");
    }

    #[test]
    fn leb128_overlong_continuation_rejected_distinctly() {
        // A continuation bit on the 10th byte is a length violation and
        // must not be misreported as an overflow — even for the padding
        // byte 0x80 whose payload is zero.
        for tenth in [0x80u8, 0x81] {
            let mut buf = vec![0x80u8; 9];
            buf.push(tenth);
            buf.push(0x00);
            let err = read_leb128(&mut &buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("continues past 10 bytes"), "got {err}");
        }
    }

    #[test]
    fn leb128_accepts_redundant_padding_within_bounds() {
        // Permissive decode: zero padding inside the 10-byte window is
        // decodable even though the writer never emits it.
        assert_eq!(read_leb128(&mut &[0x80u8, 0x00][..]).unwrap(), 0);
        assert_eq!(read_leb128(&mut &[0xc0u8, 0x00][..]).unwrap(), 0x40);
    }
}
