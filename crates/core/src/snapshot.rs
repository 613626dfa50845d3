//! Crash-safe snapshot codec: the versioned, checksummed envelope and the
//! little-endian binary writer/reader every snapshottable component in
//! this workspace serializes through.
//!
//! # Why a hand-rolled binary codec
//!
//! The resume contract is **bit-exactness**: a clock restored from a
//! snapshot must continue producing the *same bits* as the uninterrupted
//! run (the fleet digests are FNV folds over every output's bit pattern,
//! so even a 1-ulp wobble is a test failure). Floats are therefore stored
//! as raw `to_bits()` words — NaN sentinels (`prev_tfc`, `pe_ema`, frozen
//! `rho`, …) and signed zeros round-trip exactly, which no decimal text
//! encoding guarantees. The format is append-only per version and has no
//! self-description overhead, so per-clock checkpointing inside fleet
//! replay stays cheap (one `Vec<u8>` write, no allocation-per-field
//! `Value` tree like the serde shim's).
//!
//! # Envelope
//!
//! ```text
//!   offset  size  field
//!   0       4     magic  b"TSNP"
//!   4       2     format version (little-endian u16, currently 2)
//!   6       1     payload kind (what component the payload encodes)
//!   7       8     payload length (little-endian u64)
//!   15      n     payload (component-defined, written via SnapshotWriter)
//!   15+n    8     word checksum over bytes [0, 15+n)
//! ```
//!
//! The checksum reads bytes `[0, 15+n)` as little-endian `u64` words,
//! zero-padding the last one, and folds each word into a running hash:
//! `h ← h ⊕ w`, `h ← h ⊕ (h ≫ 32)`, `h ← h·prime` (the odd 64-bit FNV
//! prime). One dependent multiply per 8 bytes instead of per byte.
//! Format v1 used byte-serial FNV-1a-64; v2 is the word checksum, and a
//! v1 blob is refused with [`SnapshotError::VersionMismatch`].
//!
//! [`open_envelope`] validates in this order: truncation (total and
//! declared payload length), magic, version, checksum, kind — the
//! version comes before the checksum because it says which checksum the
//! blob carries. Every corrupted, truncated or foreign blob yields a
//! typed [`SnapshotError`], never a panic and never a silently-wrong
//! restore. The checksum detects *every* single-bit flip
//! deterministically. For a fixed word each of the three steps is a
//! bijection of `h` (xor with a constant, an xorshift, a multiply by an
//! odd number), and the xor is also injective in the word. So two word
//! sequences of equal length that differ in one word share `h` before
//! that word, differ after it, and stay different through every later
//! step. Zero-padding cannot hide a flip: the header fixes the length,
//! and a flip in the length field is a truncation. Restores additionally
//! re-validate semantic invariants (config validation, ring geometry,
//! enum tags), returning [`SnapshotError::Invalid`] on anything a flipped
//! bit could sneak past the structural checks.
//!
//! Failure handling is **restore-or-degrade**: callers fall back to a
//! cold start on any error (the fleet engines re-enter the lifecycle
//! machine at `Unsynced`), trading warm state for a guaranteed-correct
//! clock.

use std::fmt;

/// Envelope magic bytes.
pub const MAGIC: [u8; 4] = *b"TSNP";

/// Current snapshot format version.
pub const FORMAT_VERSION: u16 = 2;

/// Payload kinds (one per snapshottable root component).
pub mod kind {
    /// A [`crate::TscNtpClock`].
    pub const CLOCK: u8 = 1;
    /// A `tsc_quorum::QuorumClock`.
    pub const QUORUM: u8 = 2;
    /// A `tsc_fleet::LifecycleClient`.
    pub const LIFECYCLE: u8 = 3;
    /// A fleet replay checkpoint (component state + replay sidecar:
    /// digest, progress counters, sim re-drive script).
    pub const CHECKPOINT: u8 = 4;
}

/// Envelope header length in bytes (magic + version + kind + payload len).
const HEADER_LEN: usize = 4 + 2 + 1 + 8;

/// Checksum trailer length in bytes.
const TRAILER_LEN: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One word of the checksum. Each step is a bijection of `h`, which is
/// what makes every single-bit flip detectable (see the module docs).
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    let h = h ^ word;
    (h ^ (h >> 32)).wrapping_mul(FNV_PRIME)
}

/// The envelope checksum: [`mix`] over `bytes` as little-endian `u64`
/// words, the last one zero-padded.
fn checksum(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = FNV_OFFSET;
    for w in &mut words {
        let word = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        h = mix(h, word);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(last));
    }
    h
}

/// Why a snapshot failed to open or decode. Every variant is a clean,
/// typed refusal — restore paths never panic on untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob does not start with the envelope magic.
    BadMagic,
    /// The blob is shorter than its header + declared payload + checksum,
    /// or a field read ran off the end of the payload.
    Truncated,
    /// The trailing checksum does not match the content.
    Checksum,
    /// The envelope was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the envelope.
        found: u16,
        /// Version this build understands.
        expected: u16,
    },
    /// The payload encodes a different component than the caller expected
    /// (e.g. a quorum snapshot handed to `TscNtpClock::restore`).
    KindMismatch {
        /// Kind byte found in the envelope.
        found: u8,
        /// Kind the caller required.
        expected: u8,
    },
    /// The bytes parsed but violate a semantic invariant of the restored
    /// component (bad enum tag, inconsistent ring geometry, invalid
    /// configuration, trailing garbage, …).
    Invalid(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Checksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format v{found} (this build reads v{expected})")
            }
            SnapshotError::KindMismatch { found, expected } => {
                write!(f, "snapshot kind {found} (expected kind {expected})")
            }
            SnapshotError::Invalid(what) => write!(f, "snapshot invalid: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    /// Numeric code for the flight recorder (see
    /// [`tsc_telemetry::err_code`]): the recorder carries POD words, so
    /// the typed error travels as a code and the dump names the variant.
    pub fn telemetry_code(&self) -> u64 {
        match self {
            SnapshotError::BadMagic => tsc_telemetry::err_code::BAD_MAGIC,
            SnapshotError::Truncated => tsc_telemetry::err_code::TRUNCATED,
            SnapshotError::Checksum => tsc_telemetry::err_code::CHECKSUM,
            SnapshotError::VersionMismatch { .. } => tsc_telemetry::err_code::VERSION_MISMATCH,
            SnapshotError::KindMismatch { .. } => tsc_telemetry::err_code::KIND_MISMATCH,
            SnapshotError::Invalid(_) => tsc_telemetry::err_code::INVALID,
        }
    }
}

/// Records a failed restore in the telemetry plane: bumps the error
/// counter and pushes a [`tsc_telemetry::EventKind::RestoreFailed`]
/// flight-recorder event naming the typed error.
fn record_restore_failure(e: &SnapshotError, blob_len: usize) {
    tsc_telemetry::add(tsc_telemetry::Ctr::SnapshotRestoreErrors, 1);
    tsc_telemetry::event(
        tsc_telemetry::EventKind::RestoreFailed,
        0,
        e.telemetry_code(),
        blob_len as u64,
    );
}

/// Little-endian binary writer for snapshot payloads. The payload is
/// written straight after room for the envelope header, so sealing fills
/// the header in place and appends the checksum without copying.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// An empty payload writer.
    pub fn new() -> Self {
        Self {
            buf: vec![0; HEADER_LEN],
        }
    }

    /// Payload bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() - HEADER_LEN
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (sizes are platform-independent on
    /// the wire).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its raw bit pattern — NaN payloads and signed
    /// zeros survive exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends `Some(f64)` as `1 + bits`, `None` as `0`.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Seals the payload into a versioned, checksummed envelope.
    pub fn seal(mut self, kind: u8) -> Vec<u8> {
        let payload_len = self.len() as u64;
        self.buf[0..4].copy_from_slice(&MAGIC);
        self.buf[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        self.buf[6] = kind;
        self.buf[7..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Seals the payload `write` produces into a `kind` envelope: the one
/// seal path of every snapshottable component, timed and counted in the
/// telemetry plane.
pub fn seal_with(kind: u8, write: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
    let tm = tsc_telemetry::StageTimer::start(tsc_telemetry::Hist::SealNs);
    let mut w = SnapshotWriter::new();
    write(&mut w);
    let blob = w.seal(kind);
    tm.stop();
    tsc_telemetry::add(tsc_telemetry::Ctr::SnapshotSeals, 1);
    blob
}

/// Opens a `kind` envelope and decodes its payload with `read`, which
/// must consume it exactly: the one restore path of every snapshottable
/// component. Timed and counted in the telemetry plane; a failure also
/// leaves a flight-recorder event naming the typed error.
pub fn open_with<T>(
    bytes: &[u8],
    kind: u8,
    read: impl FnOnce(&mut SnapshotReader<'_>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let tm = tsc_telemetry::StageTimer::start(tsc_telemetry::Hist::RestoreNs);
    let result = open_envelope(bytes, kind).and_then(|payload| {
        let mut r = SnapshotReader::new(payload);
        let value = read(&mut r)?;
        r.finish()?;
        Ok(value)
    });
    tm.stop();
    match &result {
        Ok(_) => tsc_telemetry::add(tsc_telemetry::Ctr::SnapshotRestores, 1),
        Err(e) => record_restore_failure(e, bytes.len()),
    }
    result
}

/// Validates an envelope and returns its payload slice.
///
/// Check order: truncation → magic → version → checksum → kind. See the
/// module docs for the corruption-detection guarantees.
pub fn open_envelope(bytes: &[u8], expected_kind: u8) -> Result<&[u8], SnapshotError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(SnapshotError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let payload_len = u64::from_le_bytes(bytes[7..15].try_into().unwrap());
    let expected_total = (HEADER_LEN as u64)
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN as u64))
        .ok_or(SnapshotError::Truncated)?;
    if (bytes.len() as u64) != expected_total {
        return Err(SnapshotError::Truncated);
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let body = &bytes[..bytes.len() - TRAILER_LEN];
    let stored = u64::from_le_bytes(bytes[bytes.len() - TRAILER_LEN..].try_into().unwrap());
    if checksum(body) != stored {
        return Err(SnapshotError::Checksum);
    }
    if bytes[6] != expected_kind {
        return Err(SnapshotError::KindMismatch {
            found: bytes[6],
            expected: expected_kind,
        });
    }
    Ok(&bytes[HEADER_LEN..HEADER_LEN + payload_len as usize])
}

/// Little-endian binary reader over a snapshot payload. Every getter is
/// bounds-checked and returns [`SnapshotError::Truncated`] instead of
/// panicking.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over `data` (normally the slice [`open_envelope`] returned).
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails unless the payload was consumed exactly — trailing garbage
    /// means the payload does not encode what the caller thinks it does.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Invalid("trailing bytes in payload"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| SnapshotError::Invalid("size exceeds platform usize"))
    }

    /// Reads a `usize` meant to bound an upcoming sequence: rejects any
    /// value whose *minimum* encoding (`elem_bytes` per element) could not
    /// fit in the remaining payload, so a corrupted length can never
    /// drive a huge allocation.
    pub fn get_len(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.get_usize()?;
        if n.checked_mul(elem_bytes.max(1))
            .is_none_or(|total| total > self.remaining())
        {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool (0 or 1; anything else is [`SnapshotError::Invalid`]).
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Invalid("bool tag not 0/1")),
        }
    }

    /// Reads an `Option<f64>` written by [`SnapshotWriter::put_opt_f64`].
    pub fn get_opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_f64()?)),
            _ => Err(SnapshotError::Invalid("option tag not 0/1")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_envelope() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u64(0xdead_beef);
        w.put_f64(f64::NAN);
        w.put_f64(-0.0);
        w.put_opt_f64(None);
        w.put_opt_f64(Some(1.5e-9));
        w.put_bool(true);
        w.seal(kind::CLOCK)
    }

    #[test]
    fn round_trip_preserves_every_bit() {
        let bytes = sample_envelope();
        let payload = open_envelope(&bytes, kind::CLOCK).unwrap();
        let mut r = SnapshotReader::new(payload);
        assert_eq!(r.get_u64().unwrap(), 0xdead_beef);
        assert_eq!(r.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_opt_f64().unwrap(), None);
        assert_eq!(r.get_opt_f64().unwrap(), Some(1.5e-9));
        assert!(r.get_bool().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample_envelope();
        for n in 0..bytes.len() {
            let err = open_envelope(&bytes[..n], kind::CLOCK).unwrap_err();
            assert_eq!(err, SnapshotError::Truncated, "cut at {n}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Payload lengths 0..=16 put the end of the checksummed bytes at
        // every offset within a word, so every zero-padded tail is covered.
        for payload_len in 0..=16u8 {
            let mut w = SnapshotWriter::new();
            for b in 0..payload_len {
                w.put_u8(b.wrapping_mul(37) ^ 0x5a);
            }
            let bytes = w.seal(kind::CLOCK);
            assert!(open_envelope(&bytes, kind::CLOCK).is_ok());
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut m = bytes.clone();
                    m[i] ^= 1 << bit;
                    assert!(
                        open_envelope(&m, kind::CLOCK).is_err(),
                        "payload {payload_len}: flip of byte {i} bit {bit} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn version_and_kind_mismatches_are_typed() {
        // rebuild a valid checksum around a foreign version
        let bytes = sample_envelope();
        let other = FORMAT_VERSION + 1;
        let mut foreign = bytes[..bytes.len() - 8].to_vec();
        foreign[4..6].copy_from_slice(&other.to_le_bytes());
        let sum = checksum(&foreign);
        foreign.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            open_envelope(&foreign, kind::CLOCK).unwrap_err(),
            SnapshotError::VersionMismatch { found: other, expected: FORMAT_VERSION }
        );
        assert_eq!(
            open_envelope(&bytes, kind::QUORUM).unwrap_err(),
            SnapshotError::KindMismatch { found: kind::CLOCK, expected: kind::QUORUM }
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(open_envelope(&bad, kind::CLOCK).unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn corrupt_length_cannot_drive_allocation() {
        let mut w = SnapshotWriter::new();
        w.put_usize(usize::MAX / 2); // a "length" with no data behind it
        let bytes = w.seal(kind::CLOCK);
        let payload = open_envelope(&bytes, kind::CLOCK).unwrap();
        let mut r = SnapshotReader::new(payload);
        assert_eq!(r.get_len(8).unwrap_err(), SnapshotError::Truncated);
    }
}
