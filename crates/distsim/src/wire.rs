//! Session-layer framing of the multi-process socket runtime.
//!
//! Everything a coordinator and a worker process exchange travels as a
//! *wire frame*: a little-endian `u32` length prefix followed by a
//! self-verifying payload `[WIRE_MAGIC, kind, body (LE fields), crc32]`.
//! The length prefix lets [`FrameBuffer`] reassemble frames from the
//! arbitrary partial reads a real TCP stream produces; the [`crc32`]
//! trailer rejects bit-rot and framing desynchronization with a typed
//! [`CoreError::CorruptPayload`] instead of a panic or a garbage parse.
//! This is the crate's only byte framing: the simulated link channel
//! (`crate::fault`) checks the values it carries with the same [`crc32`].
//!
//! The payload vocabulary is deliberately small:
//!
//! * `Hello` — the connect/accept handshake: a worker announces the
//!   fleet's session id, its process index and its incarnation, and the
//!   coordinator checks the session. Under a shared key the coordinator
//!   speaks first with a `Challenge` and the worker answers `AuthHello`.
//!   The handshake admits a connection to the fleet and carries no run.
//! * `Load` — one run: the serialized `RunConfig` (instance + settings +
//!   block activation + process count), from which the worker builds its
//!   hosted node kernels exactly as the in-process engines do. A fleet
//!   outlives a run, so a worker takes one `Load` per run it serves, each
//!   with a higher sequence number; under a shared key each carries a
//!   keyed tag over its identity, its sequence number and the config's
//!   SHA-256 (`Load::verify`).
//! * `Cmd` — a node-addressed command (predict/correct/process/snapshot/
//!   membership/restore/finish): the supervisor's one command vocabulary,
//!   which inline nodes receive by call and worker processes in these
//!   frames.
//! * `Reply` — a worker reply, decoded straight into the supervisor's
//!   `Reply`, so its gather machinery (`supervision::gather_phase`) serves
//!   every fleet.
//! * `Shutdown` — orderly teardown of the fleet.
//!
//! All `f64` fields travel as exact little-endian bit patterns, so a value
//! decoded on the far side is bit-identical to the value encoded — the
//! foundation of the socket engine's bitwise-equivalence guarantee.

use std::fmt;

use ufc_core::node::NodeResiduals;
use ufc_core::CoreError;
use ufc_model::{EmissionCostFn, QueueingCost, StorageParams, UfcInstance};

use crate::supervision::Reply;
use ufc_core::{AdmgSettings, BlockKind, BlockSchedule};

/// First payload byte of every wire frame.
pub const WIRE_MAGIC: u8 = 0xFD;

/// Bytes of the little-endian length prefix in front of every payload.
pub const LENGTH_PREFIX_BYTES: usize = 4;

/// Hard upper bound on one wire-frame payload. Large enough for any
/// checkpoint blob or run configuration at the paper's scale (and far
/// beyond), small enough that a corrupted or hostile length prefix cannot
/// drive an unbounded allocation.
pub const MAX_WIRE_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// Bound on the element count of any length-prefixed vector inside a
/// payload; keeps a corrupted inner length from allocating gigabytes even
/// when the outer frame passed its size check.
const MAX_VEC_LEN: usize = MAX_WIRE_FRAME_BYTES / 8;

/// Slicing-by-8 lookup tables for the IEEE-reflected polynomial, built at
/// compile time. `CRC32_TABLES[0]` is the classic bytewise table;
/// `CRC32_TABLES[k][b]` is the register that byte `b` followed by `k` zero
/// bytes leaves, starting from zero, so one 8-byte step is eight
/// independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            n += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`,
/// std-only: slicing-by-8 (Kounavis & Berry, ISCC 2005) folds eight bytes
/// per step through eight const-built tables, and the last `len % 8` bytes
/// take the bytewise step.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        let [b0, b1, b2, b3, b4, b5, b6, b7] =
            (u64::from_le_bytes(*word) ^ u64::from(c)).to_le_bytes();
        c = t[7][usize::from(b0)]
            ^ t[6][usize::from(b1)]
            ^ t[5][usize::from(b2)]
            ^ t[4][usize::from(b3)]
            ^ t[3][usize::from(b4)]
            ^ t[2][usize::from(b5)]
            ^ t[1][usize::from(b6)]
            ^ t[0][usize::from(b7)];
    }
    for &b in tail {
        c = t[0][usize::from(c as u8 ^ b)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn corrupt(context: String) -> CoreError {
    CoreError::corrupt_payload("wire", 0, context)
}

/// Wraps a payload in the on-stream framing: `[len u32 LE][payload]`.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_WIRE_FRAME_BYTES`] — encoders in
/// this module cannot produce such a payload.
#[must_use]
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_WIRE_FRAME_BYTES,
        "wire payload of {} bytes exceeds the frame bound",
        payload.len()
    );
    let mut out = Vec::with_capacity(LENGTH_PREFIX_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental frame reassembly over partial reads: push whatever chunk the
/// socket produced, or read it straight into the buffer
/// ([`FrameBuffer::read_from`]), then take complete payloads with
/// [`FrameBuffer::next_frame`], as slices of the buffer: no copy and no
/// allocation per frame.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// Bytes `start..end` are buffered and not yet handed out; the bytes
    /// past `end` are room the next push or read fills.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// Room [`FrameBuffer::read_from`] offers one read.
const READ_CHUNK: usize = 64 * 1024;

impl FrameBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// At least `want` bytes of room past the buffered ones: the bytes
    /// already handed out are reclaimed first, then the buffer grows.
    fn room(&mut self, want: usize) -> &mut [u8] {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + want {
            self.buf.resize(self.end + want, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Appends freshly read bytes (any size, including zero).
    pub fn push(&mut self, chunk: &[u8]) {
        self.room(chunk.len())[..chunk.len()].copy_from_slice(chunk);
        self.end += chunk.len();
    }

    /// One `read` from `reader` straight into the buffer; `Ok(0)` is the
    /// reader's end of stream.
    ///
    /// # Errors
    ///
    /// Whatever the read returns.
    pub fn read_from(&mut self, reader: &mut impl std::io::Read) -> std::io::Result<usize> {
        let read = reader.read(self.room(READ_CHUNK))?;
        self.end += read;
        Ok(read)
    }

    /// The next complete payload, `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptPayload`] when the length prefix exceeds
    /// [`MAX_WIRE_FRAME_BYTES`] or is shorter than the minimum payload
    /// (magic + kind + CRC32) — the stream is desynchronized and cannot be
    /// trusted further.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, CoreError> {
        let buffered = &self.buf[self.start..self.end];
        let Some(prefix) = buffered.first_chunk::<LENGTH_PREFIX_BYTES>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_WIRE_FRAME_BYTES {
            return Err(corrupt(format!(
                "length prefix {len} exceeds the {MAX_WIRE_FRAME_BYTES}-byte frame bound"
            )));
        }
        if len < 6 {
            return Err(corrupt(format!(
                "length prefix {len} is below the minimum payload size"
            )));
        }
        if buffered.len() < LENGTH_PREFIX_BYTES + len {
            return Ok(None);
        }
        let payload = self.start + LENGTH_PREFIX_BYTES;
        self.start = payload + len;
        Ok(Some(&self.buf[payload..self.start]))
    }

    /// Bytes buffered but not yet handed out.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.end - self.start
    }
}

// ---- cursor readers (typed errors, never a panic) -----------------------

fn take<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N], CoreError> {
    let end = *pos + N;
    let slice = bytes
        .get(*pos..end)
        .ok_or_else(|| corrupt(format!("payload truncated at byte {pos}")))?;
    *pos = end;
    <[u8; N]>::try_from(slice).map_err(|_| corrupt(format!("payload truncated at byte {pos}")))
}

fn get_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, CoreError> {
    Ok(take::<1>(bytes, pos)?[0])
}

fn get_bool(bytes: &[u8], pos: &mut usize) -> Result<bool, CoreError> {
    match get_u8(bytes, pos)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(corrupt(format!("bad boolean byte {other}"))),
    }
}

fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<usize, CoreError> {
    Ok(u32::from_le_bytes(take::<4>(bytes, pos)?) as usize)
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, CoreError> {
    Ok(u64::from_le_bytes(take::<8>(bytes, pos)?))
}

fn get_f64(bytes: &[u8], pos: &mut usize) -> Result<f64, CoreError> {
    Ok(f64::from_le_bytes(take::<8>(bytes, pos)?))
}

fn get_f64s(bytes: &[u8], pos: &mut usize) -> Result<Vec<f64>, CoreError> {
    let len = get_u32(bytes, pos)?;
    if len > MAX_VEC_LEN {
        return Err(corrupt(format!("vector length {len} exceeds the bound")));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(get_f64(bytes, pos)?);
    }
    Ok(out)
}

fn get_blob(bytes: &[u8], pos: &mut usize) -> Result<Vec<u8>, CoreError> {
    let len = get_u32(bytes, pos)?;
    if len > MAX_WIRE_FRAME_BYTES {
        return Err(corrupt(format!("blob length {len} exceeds the bound")));
    }
    let end = *pos + len;
    let slice = bytes
        .get(*pos..end)
        .ok_or_else(|| corrupt(format!("blob truncated at byte {pos}")))?;
    *pos = end;
    Ok(slice.to_vec())
}

fn put_u32(buf: &mut Vec<u8>, v: usize) {
    buf.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, values: &[f64]) {
    put_u32(buf, values.len());
    for &v in values {
        put_f64(buf, v);
    }
}

fn put_blob(buf: &mut Vec<u8>, blob: &[u8]) {
    put_u32(buf, blob.len());
    buf.extend_from_slice(blob);
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

// ---- transport authentication -------------------------------------------
//
// A hand-rolled SHA-256 / HMAC-SHA256 pair (FIPS 180-4 / RFC 2104; no
// external crates) underpins the challenge–response handshake that guards
// non-loopback listeners and the tag on every authenticated `Load`. The
// primitives are deliberately boring: the security of the handshake rests
// on HMAC, not on anything clever here.

const SHA256_K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// SHA-256 of `data` (FIPS 180-4). Used for the run-config digest bound
/// into each `Load`'s tag and as the compression function under
/// [`hmac_sha256`].
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09_e667,
        0xbb67_ae85,
        0x3c6e_f372,
        0xa54f_f53a,
        0x510e_527f,
        0x9b05_688c,
        0x1f83_d9ab,
        0x5be0_cd19,
    ];
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());
    for chunk in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (t, word) in chunk.chunks_exact(4).enumerate() {
            w[t] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for t in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[t])
                .wrapping_add(w[t]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (i, v) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&v.to_be_bytes());
    }
    out
}

/// HMAC-SHA256 (RFC 2104) of `message` under `key`; keys longer than the
/// 64-byte block are hashed first, exactly per the RFC.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..32].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Vec::with_capacity(64 + message.len());
    inner.extend(k.iter().map(|b| b ^ 0x36));
    inner.extend_from_slice(message);
    let inner_hash = sha256(&inner);
    let mut outer = Vec::with_capacity(64 + 32);
    outer.extend(k.iter().map(|b| b ^ 0x5c));
    outer.extend_from_slice(&inner_hash);
    sha256(&outer)
}

/// Constant-time 32-byte comparison: a MAC check must not leak how many
/// prefix bytes matched through its timing.
#[must_use]
pub(crate) fn ct_eq(a: &[u8; 32], b: &[u8; 32]) -> bool {
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// Shared 256-bit authentication key for the socket transport. Both the
/// coordinator and every `ufc-node` worker must hold the same key; the
/// wire never carries the key itself, only HMACs over the per-connection
/// challenge and over each `Load`.
#[derive(Clone, PartialEq, Eq)]
pub struct AuthKey {
    bytes: [u8; 32],
}

impl AuthKey {
    /// Wraps raw key bytes.
    #[must_use]
    pub fn new(bytes: [u8; 32]) -> Self {
        AuthKey { bytes }
    }

    /// Parses the 64-hex-digit spelling `ufc-node --auth-key-stdin` reads.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] unless the input is exactly 64
    /// hexadecimal digits.
    pub fn from_hex(hex: &str) -> Result<Self, CoreError> {
        let hex = hex.trim();
        if hex.len() != 64 {
            return Err(CoreError::invalid_config(format!(
                "auth key must be 64 hex digits (256 bits), got {} characters",
                hex.len()
            )));
        }
        let mut bytes = [0u8; 32];
        for (i, pair) in hex.as_bytes().chunks_exact(2).enumerate() {
            let s = std::str::from_utf8(pair).map_err(|_| {
                CoreError::invalid_config("auth key contains non-ascii characters".to_owned())
            })?;
            bytes[i] = u8::from_str_radix(s, 16).map_err(|_| {
                CoreError::invalid_config(format!("auth key contains a non-hex digit in {s:?}"))
            })?;
        }
        Ok(AuthKey { bytes })
    }

    /// The 64-hex-digit spelling (what `ufc-node --auth-key-stdin` expects).
    #[must_use]
    pub fn to_hex(&self) -> String {
        self.bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    pub(crate) fn bytes(&self) -> &[u8; 32] {
        &self.bytes
    }
}

impl fmt::Debug for AuthKey {
    /// Redacted: key material must never leak through logs or error text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("AuthKey(…)")
    }
}

/// Where the coordinator's acceptor listens and what address it hands the
/// workers it spawns. The default keeps the PR-6 behaviour: an ephemeral
/// loopback port. Non-loopback listens are allowed only together with an
/// [`AuthKey`] — the engine rejects the combination otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindConfig {
    /// Address handed to `TcpListener::bind` (e.g. `127.0.0.1:0`,
    /// `0.0.0.0:7740`).
    pub listen: String,
    /// Address advertised to spawned workers; `None` derives
    /// `host:port` from the bound listener's local address.
    pub advertise: Option<String>,
}

impl Default for BindConfig {
    fn default() -> Self {
        BindConfig {
            listen: "127.0.0.1:0".to_owned(),
            advertise: None,
        }
    }
}

impl BindConfig {
    /// The default ephemeral-loopback bind.
    #[must_use]
    pub fn loopback() -> Self {
        BindConfig::default()
    }

    /// Listens on an explicit address.
    #[must_use]
    pub fn new(listen: impl Into<String>) -> Self {
        BindConfig {
            listen: listen.into(),
            advertise: None,
        }
    }

    /// Overrides the address workers are told to connect to (useful when
    /// the listen address is a wildcard or sits behind NAT).
    #[must_use]
    pub fn with_advertise(mut self, advertise: impl Into<String>) -> Self {
        self.advertise = Some(advertise.into());
        self
    }

    /// Whether the listen address stays on the loopback interface; only
    /// loopback binds may run without an [`AuthKey`].
    #[must_use]
    pub fn is_loopback(&self) -> bool {
        if let Ok(addr) = self.listen.parse::<std::net::SocketAddr>() {
            return addr.ip().is_loopback();
        }
        self.listen.starts_with("localhost:")
    }
}

/// The keyed MAC a worker presents in [`WireFrame::AuthHello`]:
/// `HMAC-SHA256(key, nonce ‖ session ‖ process ‖ incarnation)`. Binding
/// the nonce makes every recorded handshake worthless for replay; binding
/// the identity keeps a valid answer from being spliced onto another
/// process slot or incarnation. The run a worker serves is bound later,
/// by each [`Load`]'s tag.
#[must_use]
pub(crate) fn handshake_mac(
    key: &AuthKey,
    nonce: &[u8; 32],
    session: u64,
    process: usize,
    incarnation: u32,
) -> [u8; 32] {
    let mut msg = Vec::with_capacity(32 + 8 + 8 + 4);
    msg.extend_from_slice(nonce);
    msg.extend_from_slice(&session.to_le_bytes());
    msg.extend_from_slice(&(process as u64).to_le_bytes());
    msg.extend_from_slice(&incarnation.to_le_bytes());
    hmac_sha256(key.bytes(), &msg)
}

/// Verifies the frame a peer sent in answer to a [`WireFrame::Challenge`].
/// Pure so the rejection taxonomy is unit-testable without sockets.
///
/// # Errors
///
/// [`CoreError::Unauthorized`] on a plain `Hello` (downgrade), a stale
/// session id, a MAC mismatch (wrong key or replayed challenge), or any
/// other frame kind arriving mid-handshake.
pub(crate) fn verify_auth_hello(
    key: &AuthKey,
    nonce: &[u8; 32],
    session: u64,
    frame: &WireFrame,
) -> Result<(usize, u32), CoreError> {
    match frame {
        WireFrame::AuthHello {
            session: got,
            process,
            incarnation,
            mac,
        } => {
            if *got != session {
                return Err(CoreError::unauthorized(
                    format!("worker-{process}"),
                    format!("stale session id {got:#x} (expected {session:#x})"),
                ));
            }
            let expect = handshake_mac(key, nonce, session, *process, *incarnation);
            if !ct_eq(&expect, mac) {
                return Err(CoreError::unauthorized(
                    format!("worker-{process}"),
                    "handshake mac mismatch (wrong key or replayed challenge)",
                ));
            }
            Ok((*process, *incarnation))
        }
        WireFrame::Hello { process, .. } => Err(CoreError::unauthorized(
            format!("worker-{process}"),
            "downgrade: plain hello on an authenticated listener",
        )),
        other => Err(CoreError::unauthorized(
            "peer",
            format!(
                "unexpected frame kind {} during the handshake",
                other.kind_tag()
            ),
        )),
    }
}

/// One run for one worker process: the body of [`WireFrame::Load`]. A
/// fleet sends one to every process before a run's first command, and to
/// every respawned incarnation before its `Restore`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Load {
    /// The fleet's load counter. A worker accepts only loads whose `seq`
    /// exceeds the last one it took, so a recorded load cannot be played
    /// back to it.
    pub(crate) seq: u64,
    /// The encoded [`RunConfig`].
    pub(crate) config: Vec<u8>,
    /// Under a shared key, `HMAC-SHA256(key, session ‖ process ‖
    /// incarnation ‖ seq ‖ sha256(config))`; `None` on an unauthenticated
    /// loopback fleet.
    pub(crate) tag: Option<[u8; 32]>,
}

impl Load {
    /// The load of `config` for process slot `process` at `incarnation`,
    /// tagged when the fleet holds `key`.
    pub(crate) fn new(
        key: Option<&AuthKey>,
        session: u64,
        process: usize,
        incarnation: u32,
        seq: u64,
        config: Vec<u8>,
    ) -> Self {
        let tag = key.map(|key| load_tag(key, session, process, incarnation, seq, &config));
        Load { seq, config, tag }
    }

    /// The worker's check of a load addressed to it as
    /// `(session, process, incarnation)`, which last took the load
    /// numbered `last_seq`. Without a key only the sequence is checked;
    /// there is nothing to check a tag against.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unauthorized`] when `seq` does not exceed `last_seq`,
    /// or, under `key`, when the tag is missing or does not verify (another
    /// key, another identity, another `seq` or another config).
    pub(crate) fn verify(
        &self,
        key: Option<&AuthKey>,
        session: u64,
        process: usize,
        incarnation: u32,
        last_seq: Option<u64>,
    ) -> Result<(), CoreError> {
        let refuse = |why: String| CoreError::unauthorized(format!("worker-{process}"), why);
        if let Some(last) = last_seq.filter(|&last| self.seq <= last) {
            return Err(refuse(format!(
                "load {} does not follow load {last}",
                self.seq
            )));
        }
        let Some(key) = key else {
            return Ok(());
        };
        let expect = load_tag(key, session, process, incarnation, self.seq, &self.config);
        match &self.tag {
            Some(tag) if ct_eq(&expect, tag) => Ok(()),
            Some(_) => Err(refuse(format!(
                "load {} tag mismatch (wrong key, identity or config)",
                self.seq
            ))),
            None => Err(refuse(format!("load {} carries no tag", self.seq))),
        }
    }
}

/// [`Load::tag`]: binds the run configuration to the key, the worker's
/// identity and the load's sequence number.
fn load_tag(
    key: &AuthKey,
    session: u64,
    process: usize,
    incarnation: u32,
    seq: u64,
    config: &[u8],
) -> [u8; 32] {
    let mut msg = Vec::with_capacity(8 + 8 + 4 + 8 + 32);
    msg.extend_from_slice(&session.to_le_bytes());
    msg.extend_from_slice(&(process as u64).to_le_bytes());
    msg.extend_from_slice(&incarnation.to_le_bytes());
    msg.extend_from_slice(&seq.to_le_bytes());
    msg.extend_from_slice(&sha256(config));
    hmac_sha256(key.bytes(), &msg)
}

// ---- protocol frames ----------------------------------------------------

/// A node-addressed command from the supervisor to a node, over a thread's
/// channel or, framed, to a worker process. `Restore` rebuilds a respawned
/// or rolled-back node from a checkpoint blob.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NodeCmd {
    /// Run the λ prediction for `iteration` (front-end nodes).
    Predict { iteration: usize },
    /// Apply the gathered ã row and correct (front-end nodes).
    Correct { iteration: usize, a_row: Vec<f64> },
    /// Run the μ/ν/a steps on the gathered λ̃ column (datacenter nodes).
    Process { iteration: usize, column: Vec<f64> },
    /// Serialize the iterate slice for a checkpoint round.
    Snapshot { iteration: usize },
    /// Apply a membership change for `datacenter` (front-end nodes).
    Membership { datacenter: usize, evict: bool },
    /// Restore the node kernel from a serialized snapshot blob.
    Restore { blob: Vec<u8> },
    /// Ship the final iterate slice.
    Finish,
}

/// One frame of the coordinator↔worker session protocol.
#[derive(Debug, PartialEq)]
pub(crate) enum WireFrame {
    /// Worker → coordinator: connect/accept handshake announcement.
    Hello {
        /// The fleet's session id; a stale worker from an earlier fleet is
        /// rejected at accept.
        session: u64,
        /// Which process slot this worker fills.
        process: usize,
        /// Respawn generation (0 for the first spawn).
        incarnation: u32,
    },
    /// Coordinator → worker: the run to serve next. Like the handshake
    /// frames it is not a command, and the egress counters do not count
    /// it.
    Load(Load),
    /// Coordinator → worker: a command for hosted node `node` (front-ends
    /// `0..m`, datacenters `m..m+n`).
    Cmd { node: usize, cmd: NodeCmd },
    /// Worker → coordinator: a node reply.
    Reply(Reply),
    /// Coordinator → worker: orderly exit.
    Shutdown,
    /// Coordinator → worker: authentication challenge, sent immediately
    /// after accept when the listener holds an [`AuthKey`].
    Challenge {
        /// Fresh random nonce; never reused across connections, so a
        /// recorded `AuthHello` cannot be replayed.
        nonce: [u8; 32],
    },
    /// Worker → coordinator: the authenticated spelling of `Hello`,
    /// answering a [`WireFrame::Challenge`].
    AuthHello {
        /// The fleet's session id (as in `Hello`).
        session: u64,
        /// Which process slot this worker fills.
        process: usize,
        /// Respawn generation.
        incarnation: u32,
        /// [`handshake_mac`] over the challenge nonce and this identity.
        mac: [u8; 32],
    },
    /// Either direction: the last data frame failed its integrity check —
    /// retransmit it. The wire-chaos retransmit ladder's negative
    /// acknowledgement.
    Nak,
}

impl WireFrame {
    fn kind_tag(&self) -> u8 {
        match self {
            WireFrame::Hello { .. } => 0,
            WireFrame::Load(_) => 1,
            WireFrame::Cmd { .. } => 2,
            WireFrame::Reply(_) => 3,
            WireFrame::Shutdown => 4,
            WireFrame::Challenge { .. } => 5,
            WireFrame::AuthHello { .. } => 6,
            WireFrame::Nak => 7,
        }
    }

    /// Appends the frame as it goes on the socket to `buf`, after whatever
    /// it already holds: the little-endian length prefix, then the
    /// self-verifying payload `[WIRE_MAGIC, kind, body, crc32]`. The same
    /// bytes as [`WireFrame::to_wire`], encoded in place: a coordinator
    /// batches a fan-out's frames this way, and a worker its replies.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_WIRE_FRAME_BYTES`] — encoders in
    /// this module cannot produce such a payload.
    pub(crate) fn write_wire(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        let payload = start + LENGTH_PREFIX_BYTES;
        buf.extend_from_slice(&[0; LENGTH_PREFIX_BYTES]);
        buf.extend_from_slice(&[WIRE_MAGIC, self.kind_tag()]);
        match self {
            WireFrame::Hello {
                session,
                process,
                incarnation,
            } => {
                put_u64(buf, *session);
                put_u32(buf, *process);
                buf.extend_from_slice(&incarnation.to_le_bytes());
            }
            WireFrame::Load(Load { seq, config, tag }) => {
                put_u64(buf, *seq);
                put_blob(buf, config);
                put_bool(buf, tag.is_some());
                if let Some(tag) = tag {
                    buf.extend_from_slice(tag);
                }
            }
            WireFrame::Cmd { node, cmd } => {
                put_u32(buf, *node);
                match cmd {
                    NodeCmd::Predict { iteration } => {
                        buf.push(0);
                        put_u64(buf, *iteration as u64);
                    }
                    NodeCmd::Correct { iteration, a_row } => {
                        buf.push(1);
                        put_u64(buf, *iteration as u64);
                        put_f64s(buf, a_row);
                    }
                    NodeCmd::Process { iteration, column } => {
                        buf.push(2);
                        put_u64(buf, *iteration as u64);
                        put_f64s(buf, column);
                    }
                    NodeCmd::Snapshot { iteration } => {
                        buf.push(3);
                        put_u64(buf, *iteration as u64);
                    }
                    NodeCmd::Membership { datacenter, evict } => {
                        buf.push(4);
                        put_u32(buf, *datacenter);
                        put_bool(buf, *evict);
                    }
                    NodeCmd::Restore { blob } => {
                        buf.push(5);
                        put_blob(buf, blob);
                    }
                    NodeCmd::Finish => buf.push(6),
                }
            }
            WireFrame::Reply(reply) => match reply {
                Reply::Lambda { i, iteration, row } => {
                    buf.push(0);
                    put_u32(buf, *i);
                    put_u64(buf, *iteration as u64);
                    put_f64s(buf, row);
                }
                Reply::FeResidual {
                    i,
                    iteration,
                    residuals,
                } => {
                    buf.push(1);
                    put_u32(buf, *i);
                    put_u64(buf, *iteration as u64);
                    put_f64(buf, residuals.link);
                    put_f64(buf, residuals.balance);
                    put_f64(buf, residuals.movement);
                }
                Reply::DcStep {
                    j,
                    iteration,
                    a_tilde,
                    d,
                    residuals,
                } => {
                    buf.push(2);
                    put_u32(buf, *j);
                    put_u64(buf, *iteration as u64);
                    put_f64s(buf, a_tilde);
                    put_f64(buf, *d);
                    put_f64(buf, residuals.link);
                    put_f64(buf, residuals.balance);
                    put_f64(buf, residuals.movement);
                }
                Reply::FeSnapshot { i, iteration, blob } => {
                    buf.push(3);
                    put_u32(buf, *i);
                    put_u64(buf, *iteration as u64);
                    put_blob(buf, blob);
                }
                Reply::DcSnapshot { j, iteration, blob } => {
                    buf.push(4);
                    put_u32(buf, *j);
                    put_u64(buf, *iteration as u64);
                    put_blob(buf, blob);
                }
                Reply::FeFinal { i, lambda } => {
                    buf.push(5);
                    put_u32(buf, *i);
                    put_f64s(buf, lambda);
                }
                Reply::DcFinal { j, mu, d } => {
                    buf.push(6);
                    put_u32(buf, *j);
                    put_f64(buf, *mu);
                    put_f64(buf, *d);
                }
            },
            WireFrame::Shutdown => {}
            WireFrame::Challenge { nonce } => buf.extend_from_slice(nonce),
            WireFrame::AuthHello {
                session,
                process,
                incarnation,
                mac,
            } => {
                put_u64(buf, *session);
                put_u32(buf, *process);
                buf.extend_from_slice(&incarnation.to_le_bytes());
                buf.extend_from_slice(mac);
            }
            WireFrame::Nak => {}
        }
        let crc = crc32(&buf[payload..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        let len = buf.len() - payload;
        assert!(
            len <= MAX_WIRE_FRAME_BYTES,
            "wire payload of {len} bytes exceeds the frame bound"
        );
        buf[start..payload].copy_from_slice(&(len as u32).to_le_bytes());
    }

    /// Verifies and parses a payload: what follows the length prefix of a
    /// frame [`WireFrame::write_wire`] encoded.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptPayload`] on truncation, bad magic, unknown
    /// kind, trailing garbage, or CRC32 mismatch. Never panics.
    pub(crate) fn decode_payload(bytes: &[u8]) -> Result<WireFrame, CoreError> {
        if bytes.len() < 2 + 4 {
            return Err(corrupt(format!(
                "payload too short ({} bytes)",
                bytes.len()
            )));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = <[u8; 4]>::try_from(trailer)
            .map(u32::from_le_bytes)
            .map_err(|_| corrupt("payload trailer is not 4 bytes".to_owned()))?;
        let computed = crc32(body);
        if stored != computed {
            return Err(corrupt(format!(
                "crc32 mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        if body[0] != WIRE_MAGIC {
            return Err(corrupt(format!("bad wire magic {:#04x}", body[0])));
        }
        let kind = body[1];
        let mut pos = 2;
        let frame = match kind {
            0 => WireFrame::Hello {
                session: get_u64(body, &mut pos)?,
                process: get_u32(body, &mut pos)?,
                incarnation: u32::from_le_bytes(take::<4>(body, &mut pos)?),
            },
            1 => WireFrame::Load(Load {
                seq: get_u64(body, &mut pos)?,
                config: get_blob(body, &mut pos)?,
                tag: if get_bool(body, &mut pos)? {
                    Some(take::<32>(body, &mut pos)?)
                } else {
                    None
                },
            }),
            2 => {
                let node = get_u32(body, &mut pos)?;
                let cmd = match get_u8(body, &mut pos)? {
                    0 => NodeCmd::Predict {
                        iteration: get_u64(body, &mut pos)? as usize,
                    },
                    1 => NodeCmd::Correct {
                        iteration: get_u64(body, &mut pos)? as usize,
                        a_row: get_f64s(body, &mut pos)?,
                    },
                    2 => NodeCmd::Process {
                        iteration: get_u64(body, &mut pos)? as usize,
                        column: get_f64s(body, &mut pos)?,
                    },
                    3 => NodeCmd::Snapshot {
                        iteration: get_u64(body, &mut pos)? as usize,
                    },
                    4 => NodeCmd::Membership {
                        datacenter: get_u32(body, &mut pos)?,
                        evict: get_bool(body, &mut pos)?,
                    },
                    5 => NodeCmd::Restore {
                        blob: get_blob(body, &mut pos)?,
                    },
                    6 => NodeCmd::Finish,
                    other => return Err(corrupt(format!("unknown command tag {other}"))),
                };
                WireFrame::Cmd { node, cmd }
            }
            3 => {
                let reply = match get_u8(body, &mut pos)? {
                    0 => Reply::Lambda {
                        i: get_u32(body, &mut pos)?,
                        iteration: get_u64(body, &mut pos)? as usize,
                        row: get_f64s(body, &mut pos)?,
                    },
                    1 => Reply::FeResidual {
                        i: get_u32(body, &mut pos)?,
                        iteration: get_u64(body, &mut pos)? as usize,
                        residuals: NodeResiduals {
                            link: get_f64(body, &mut pos)?,
                            balance: get_f64(body, &mut pos)?,
                            movement: get_f64(body, &mut pos)?,
                        },
                    },
                    2 => Reply::DcStep {
                        j: get_u32(body, &mut pos)?,
                        iteration: get_u64(body, &mut pos)? as usize,
                        a_tilde: get_f64s(body, &mut pos)?,
                        d: get_f64(body, &mut pos)?,
                        residuals: NodeResiduals {
                            link: get_f64(body, &mut pos)?,
                            balance: get_f64(body, &mut pos)?,
                            movement: get_f64(body, &mut pos)?,
                        },
                    },
                    3 => Reply::FeSnapshot {
                        i: get_u32(body, &mut pos)?,
                        iteration: get_u64(body, &mut pos)? as usize,
                        blob: get_blob(body, &mut pos)?,
                    },
                    4 => Reply::DcSnapshot {
                        j: get_u32(body, &mut pos)?,
                        iteration: get_u64(body, &mut pos)? as usize,
                        blob: get_blob(body, &mut pos)?,
                    },
                    5 => Reply::FeFinal {
                        i: get_u32(body, &mut pos)?,
                        lambda: get_f64s(body, &mut pos)?,
                    },
                    6 => Reply::DcFinal {
                        j: get_u32(body, &mut pos)?,
                        mu: get_f64(body, &mut pos)?,
                        d: get_f64(body, &mut pos)?,
                    },
                    other => return Err(corrupt(format!("unknown reply tag {other}"))),
                };
                WireFrame::Reply(reply)
            }
            4 => WireFrame::Shutdown,
            5 => WireFrame::Challenge {
                nonce: take::<32>(body, &mut pos)?,
            },
            6 => WireFrame::AuthHello {
                session: get_u64(body, &mut pos)?,
                process: get_u32(body, &mut pos)?,
                incarnation: u32::from_le_bytes(take::<4>(body, &mut pos)?),
                mac: take::<32>(body, &mut pos)?,
            },
            7 => WireFrame::Nak,
            other => return Err(corrupt(format!("unknown frame kind {other}"))),
        };
        if pos != body.len() {
            return Err(corrupt(format!(
                "trailing garbage: payload body is {} bytes, parsed {pos}",
                body.len()
            )));
        }
        Ok(frame)
    }

    /// The payload wrapped in the on-stream length prefix — what actually
    /// goes on the socket ([`WireFrame::write_wire`] into a fresh buffer).
    pub(crate) fn to_wire(&self) -> Vec<u8> {
        let mut wire = Vec::new();
        self.write_wire(&mut wire);
        wire
    }
}

// ---- run configuration --------------------------------------------------

/// Everything a worker process needs to rebuild its node kernels exactly
/// as the in-process engines do: the problem instance, the solver
/// settings, the strategy's block activation, and the process count (from
/// which each worker derives its hosted node set).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RunConfig {
    pub(crate) instance: UfcInstance,
    pub(crate) settings: AdmgSettings,
    pub(crate) active_mu: bool,
    pub(crate) active_nu: bool,
    pub(crate) processes: usize,
}

impl RunConfig {
    /// Serializes the configuration; every `f64` as its exact LE bit
    /// pattern.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let inst = &self.instance;
        let s = &self.settings;
        let mut buf = Vec::new();
        put_u32(&mut buf, inst.m_frontends());
        put_u32(&mut buf, inst.n_datacenters());
        put_f64s(&mut buf, &inst.arrivals);
        put_f64s(&mut buf, &inst.capacities);
        put_f64s(&mut buf, &inst.alpha);
        put_f64s(&mut buf, &inst.beta);
        put_f64s(&mut buf, &inst.mu_max);
        put_f64s(&mut buf, &inst.grid_price);
        put_f64(&mut buf, inst.fuel_cell_price);
        put_f64s(&mut buf, &inst.carbon_t_per_mwh);
        for row in &inst.latency_s {
            put_f64s(&mut buf, row);
        }
        put_f64(&mut buf, inst.weight_per_server);
        put_f64(&mut buf, inst.slot_hours);
        for cost in &inst.emission_cost {
            match cost {
                EmissionCostFn::Linear { rate } => {
                    buf.push(0);
                    put_f64(&mut buf, *rate);
                }
                EmissionCostFn::Quadratic { linear, quad } => {
                    buf.push(1);
                    put_f64(&mut buf, *linear);
                    put_f64(&mut buf, *quad);
                }
                EmissionCostFn::Stepped { thresholds, rates } => {
                    buf.push(2);
                    put_f64s(&mut buf, thresholds);
                    put_f64s(&mut buf, rates);
                }
            }
        }
        match &inst.queueing {
            None => buf.push(0),
            Some(q) => {
                buf.push(1);
                put_f64(&mut buf, q.base_delay_s);
                put_f64(&mut buf, q.weight);
                put_f64(&mut buf, q.max_utilization);
            }
        }
        match &inst.storage {
            None => buf.push(0),
            Some(sp) => {
                buf.push(1);
                put_f64s(&mut buf, &sp.capacity_mwh);
                put_f64s(&mut buf, &sp.charge_mwh);
                put_f64s(&mut buf, &sp.charge_rate_mw);
                put_f64s(&mut buf, &sp.discharge_rate_mw);
                put_f64s(&mut buf, &sp.value_per_mwh);
                put_f64(&mut buf, sp.degradation_per_mwh);
                put_f64s(&mut buf, &sp.ramp_mw);
                put_f64s(&mut buf, &sp.mu_prev_mw);
            }
        }
        // Schedule echo: the block kinds the coordinator will drive, in
        // order. The worker cross-checks this against the schedule its
        // decoded instance implies, so a coordinator/worker version skew
        // (one side scheduling a block the other does not know) is a typed
        // handshake error instead of a silent numeric divergence.
        let schedule = BlockSchedule::for_instance(inst);
        buf.push(schedule.len() as u8);
        for block in schedule.blocks() {
            buf.push(block.kind.wire_id());
        }
        put_f64(&mut buf, s.rho);
        put_f64(&mut buf, s.epsilon);
        put_u64(&mut buf, s.max_iterations as u64);
        put_f64(&mut buf, s.eps_link);
        put_f64(&mut buf, s.eps_balance);
        put_f64(&mut buf, s.eps_dual);
        put_u64(&mut buf, s.num_threads as u64);
        put_bool(&mut buf, s.telemetry);
        put_f64(&mut buf, s.divergence_kappa);
        put_u64(&mut buf, s.divergence_window as u64);
        put_bool(&mut buf, s.divergence_rollback);
        put_bool(&mut buf, self.active_mu);
        put_bool(&mut buf, self.active_nu);
        put_u32(&mut buf, self.processes);
        buf
    }

    /// Rebuilds the configuration; the instance is re-validated through
    /// [`UfcInstance::new`], so a worker can never run on a garbled
    /// problem.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptPayload`] on truncation and
    /// [`CoreError::Model`] when the decoded instance fails validation.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut pos = 0;
        let m = get_u32(bytes, &mut pos)?;
        let n = get_u32(bytes, &mut pos)?;
        if m == 0 || n == 0 || m > MAX_VEC_LEN || n > MAX_VEC_LEN {
            return Err(corrupt(format!("implausible dimensions {m}x{n}")));
        }
        let arrivals = get_f64s(bytes, &mut pos)?;
        let capacities = get_f64s(bytes, &mut pos)?;
        let alpha = get_f64s(bytes, &mut pos)?;
        let beta = get_f64s(bytes, &mut pos)?;
        let mu_max = get_f64s(bytes, &mut pos)?;
        let grid_price = get_f64s(bytes, &mut pos)?;
        let fuel_cell_price = get_f64(bytes, &mut pos)?;
        let carbon_t_per_mwh = get_f64s(bytes, &mut pos)?;
        let mut latency_s = Vec::with_capacity(m);
        for _ in 0..m {
            latency_s.push(get_f64s(bytes, &mut pos)?);
        }
        let weight_per_server = get_f64(bytes, &mut pos)?;
        let slot_hours = get_f64(bytes, &mut pos)?;
        let mut emission_cost = Vec::with_capacity(n);
        for _ in 0..n {
            emission_cost.push(match get_u8(bytes, &mut pos)? {
                0 => EmissionCostFn::Linear {
                    rate: get_f64(bytes, &mut pos)?,
                },
                1 => EmissionCostFn::Quadratic {
                    linear: get_f64(bytes, &mut pos)?,
                    quad: get_f64(bytes, &mut pos)?,
                },
                2 => EmissionCostFn::Stepped {
                    thresholds: get_f64s(bytes, &mut pos)?,
                    rates: get_f64s(bytes, &mut pos)?,
                },
                other => return Err(corrupt(format!("unknown emission-cost tag {other}"))),
            });
        }
        let queueing = match get_u8(bytes, &mut pos)? {
            0 => None,
            1 => Some(QueueingCost {
                base_delay_s: get_f64(bytes, &mut pos)?,
                weight: get_f64(bytes, &mut pos)?,
                max_utilization: get_f64(bytes, &mut pos)?,
            }),
            other => return Err(corrupt(format!("unknown queueing tag {other}"))),
        };
        let storage = match get_u8(bytes, &mut pos)? {
            0 => None,
            1 => Some(StorageParams {
                capacity_mwh: get_f64s(bytes, &mut pos)?,
                charge_mwh: get_f64s(bytes, &mut pos)?,
                charge_rate_mw: get_f64s(bytes, &mut pos)?,
                discharge_rate_mw: get_f64s(bytes, &mut pos)?,
                value_per_mwh: get_f64s(bytes, &mut pos)?,
                degradation_per_mwh: get_f64(bytes, &mut pos)?,
                ramp_mw: get_f64s(bytes, &mut pos)?,
                mu_prev_mw: get_f64s(bytes, &mut pos)?,
            }),
            other => return Err(corrupt(format!("unknown storage tag {other}"))),
        };
        let echo_len = get_u8(bytes, &mut pos)? as usize;
        let mut echoed_kinds = Vec::with_capacity(echo_len.min(16));
        for _ in 0..echo_len {
            let id = get_u8(bytes, &mut pos)?;
            let kind = BlockKind::from_wire_id(id)
                .ok_or_else(|| corrupt(format!("unknown block wire id {id} in schedule echo")))?;
            echoed_kinds.push(kind);
        }
        let settings = AdmgSettings {
            rho: get_f64(bytes, &mut pos)?,
            epsilon: get_f64(bytes, &mut pos)?,
            max_iterations: get_u64(bytes, &mut pos)? as usize,
            eps_link: get_f64(bytes, &mut pos)?,
            eps_balance: get_f64(bytes, &mut pos)?,
            eps_dual: get_f64(bytes, &mut pos)?,
            num_threads: get_u64(bytes, &mut pos)? as usize,
            telemetry: get_bool(bytes, &mut pos)?,
            divergence_kappa: get_f64(bytes, &mut pos)?,
            divergence_window: get_u64(bytes, &mut pos)? as usize,
            divergence_rollback: get_bool(bytes, &mut pos)?,
        };
        let active_mu = get_bool(bytes, &mut pos)?;
        let active_nu = get_bool(bytes, &mut pos)?;
        let processes = get_u32(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(corrupt(format!(
                "trailing garbage: config is {} bytes, parsed {pos}",
                bytes.len()
            )));
        }
        let mut instance = UfcInstance::new(
            arrivals,
            capacities,
            alpha,
            beta,
            mu_max,
            grid_price,
            fuel_cell_price,
            carbon_t_per_mwh,
            latency_s,
            weight_per_server,
            emission_cost,
            slot_hours,
        )
        .map_err(CoreError::Model)?;
        instance.queueing = queueing;
        if let Some(sp) = storage {
            instance = instance.with_storage(sp).map_err(CoreError::Model)?;
        }
        // The echoed schedule must match what this instance implies — a
        // mismatch means the two ends would drive different block
        // pipelines.
        let local: Vec<BlockKind> = BlockSchedule::for_instance(&instance)
            .blocks()
            .iter()
            .map(|b| b.kind)
            .collect();
        if echoed_kinds != local {
            return Err(corrupt(format!(
                "schedule echo {echoed_kinds:?} disagrees with the instance's schedule {local:?}"
            )));
        }
        Ok(RunConfig {
            instance,
            settings,
            active_mu,
            active_nu,
            processes,
        })
    }
}

/// The node ids (front-ends `0..m`, datacenters `m..m+n`) hosted by
/// process `p` of `processes`: a round-robin split, so one process per
/// node when `processes == m + n` and everything on process 0 when
/// `processes == 1`.
#[must_use]
pub fn hosted_nodes(p: usize, processes: usize, m: usize, n: usize) -> Vec<usize> {
    (0..m + n).filter(|id| id % processes == p).collect()
}

/// Which process hosts node `id` under the round-robin split.
#[must_use]
pub fn process_of(id: usize, processes: usize) -> usize {
    id % processes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<WireFrame> {
        vec![
            WireFrame::Hello {
                session: 0xDEAD_BEEF_0042,
                process: 3,
                incarnation: 2,
            },
            WireFrame::Load(Load {
                seq: 7,
                config: vec![1, 2, 3, 4, 5],
                tag: None,
            }),
            WireFrame::Load(Load {
                seq: 8,
                config: vec![6, 7],
                tag: Some([0x5C; 32]),
            }),
            WireFrame::Cmd {
                node: 7,
                cmd: NodeCmd::Correct {
                    iteration: 19,
                    a_row: vec![0.25, -1.5, 3.75e-3],
                },
            },
            WireFrame::Cmd {
                node: 11,
                cmd: NodeCmd::Membership {
                    datacenter: 1,
                    evict: true,
                },
            },
            WireFrame::Cmd {
                node: 0,
                cmd: NodeCmd::Restore {
                    blob: vec![9, 8, 7],
                },
            },
            WireFrame::Reply(Reply::DcStep {
                j: 2,
                iteration: 5,
                a_tilde: vec![1.0, 2.0],
                d: -0.75,
                residuals: NodeResiduals {
                    link: 0.1,
                    balance: 0.2,
                    movement: 0.3,
                },
            }),
            WireFrame::Reply(Reply::FeFinal {
                i: 4,
                lambda: vec![0.5; 4],
            }),
            WireFrame::Reply(Reply::DcFinal {
                j: 1,
                mu: 0.42,
                d: 0.125,
            }),
            WireFrame::Shutdown,
            WireFrame::Challenge { nonce: [0xA5; 32] },
            WireFrame::AuthHello {
                session: 0x0123_4567_89AB_CDEF,
                process: 2,
                incarnation: 1,
                mac: [0x77; 32],
            },
            WireFrame::Nak,
        ]
    }

    /// The payload of `frame`'s wire bytes: what follows the length prefix.
    fn payload_of(frame: &WireFrame) -> Vec<u8> {
        frame.to_wire()[LENGTH_PREFIX_BYTES..].to_vec()
    }

    fn unhex(s: &str) -> Vec<u8> {
        s.as_bytes()
            .chunks_exact(2)
            .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        // FIPS 180-4 / NIST CAVP known-answer vectors.
        assert_eq!(
            sha256(b"").to_vec(),
            unhex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        );
        assert_eq!(
            sha256(b"abc").to_vec(),
            unhex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        );
        // Two-block message exercises the chaining.
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_vec(),
            unhex("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        );
    }

    #[test]
    fn hmac_sha256_matches_rfc4231_vectors() {
        // RFC 4231 test case 1.
        assert_eq!(
            hmac_sha256(&[0x0b; 20], b"Hi There").to_vec(),
            unhex("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
        );
        // Test case 2: short ascii key.
        assert_eq!(
            hmac_sha256(b"Jefe", b"what do ya want for nothing?").to_vec(),
            unhex("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
        );
        // Test case 6: 131-byte key exercises the hash-the-key path.
        assert_eq!(
            hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )
            .to_vec(),
            unhex("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54")
        );
    }

    #[test]
    fn auth_key_parses_hex_and_redacts_debug() {
        let hex = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f";
        let key = AuthKey::from_hex(hex).unwrap();
        assert_eq!(key.to_hex(), hex);
        assert_eq!(key.bytes()[1], 0x01);
        assert!(!format!("{key:?}").contains("0102"), "debug must redact");

        for bad in ["deadbeef", &format!("{hex}00"), &hex.replace('0', "g")] {
            let err = AuthKey::from_hex(bad).unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidConfig { .. }),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn bind_config_distinguishes_loopback() {
        assert!(BindConfig::default().is_loopback());
        assert!(BindConfig::new("127.0.0.1:7740").is_loopback());
        assert!(BindConfig::new("[::1]:7740").is_loopback());
        assert!(BindConfig::new("localhost:7740").is_loopback());
        assert!(!BindConfig::new("0.0.0.0:7740").is_loopback());
        assert!(!BindConfig::new("10.1.2.3:7740").is_loopback());
        assert_eq!(
            BindConfig::new("0.0.0.0:7740")
                .with_advertise("203.0.113.9:7740")
                .advertise
                .as_deref(),
            Some("203.0.113.9:7740")
        );
    }

    #[test]
    fn auth_hello_verification_accepts_honest_and_rejects_hostile() {
        let key = AuthKey::new([0x42; 32]);
        let nonce = [0x11; 32];
        let session = 0xFEED_F00D;
        let mac = handshake_mac(&key, &nonce, session, 3, 1);
        let honest = WireFrame::AuthHello {
            session,
            process: 3,
            incarnation: 1,
            mac,
        };
        assert_eq!(
            verify_auth_hello(&key, &nonce, session, &honest).unwrap(),
            (3, 1)
        );

        // Wrong key.
        let wrong_key = WireFrame::AuthHello {
            session,
            process: 3,
            incarnation: 1,
            mac: handshake_mac(&AuthKey::new([0x43; 32]), &nonce, session, 3, 1),
        };
        let err = verify_auth_hello(&key, &nonce, session, &wrong_key).unwrap_err();
        assert!(matches!(err, CoreError::Unauthorized { .. }), "{err}");
        assert!(err.to_string().contains("mac mismatch"), "{err}");

        // Replay: a MAC recorded under an earlier nonce fails under the
        // fresh one.
        let replayed = WireFrame::AuthHello {
            session,
            process: 3,
            incarnation: 1,
            mac: handshake_mac(&key, &[0x22; 32], session, 3, 1),
        };
        assert!(matches!(
            verify_auth_hello(&key, &nonce, session, &replayed),
            Err(CoreError::Unauthorized { .. })
        ));

        // Downgrade to the unauthenticated hello.
        let downgrade = WireFrame::Hello {
            session,
            process: 3,
            incarnation: 1,
        };
        let err = verify_auth_hello(&key, &nonce, session, &downgrade).unwrap_err();
        assert!(err.to_string().contains("downgrade"), "{err}");

        // Stale session id.
        let stale = WireFrame::AuthHello {
            session: session ^ 1,
            process: 3,
            incarnation: 1,
            mac: handshake_mac(&key, &nonce, session ^ 1, 3, 1),
        };
        let err = verify_auth_hello(&key, &nonce, session, &stale).unwrap_err();
        assert!(err.to_string().contains("stale session"), "{err}");

        // Identity fields are bound into the MAC: flipping the process
        // index after the fact invalidates it.
        let spliced = WireFrame::AuthHello {
            session,
            process: 2,
            incarnation: 1,
            mac,
        };
        assert!(matches!(
            verify_auth_hello(&key, &nonce, session, &spliced),
            Err(CoreError::Unauthorized { .. })
        ));

        // A non-handshake frame mid-handshake is rejected too.
        let err = verify_auth_hello(&key, &nonce, session, &WireFrame::Shutdown).unwrap_err();
        assert!(matches!(err, CoreError::Unauthorized { .. }), "{err}");
    }

    #[test]
    fn load_verification_binds_key_sequence_and_config() {
        let key = AuthKey::new([0x42; 32]);
        let session = 0xFEED_F00D;
        let config = b"run config bytes".to_vec();
        let load = Load::new(Some(&key), session, 3, 1, 5, config.clone());
        load.verify(Some(&key), session, 3, 1, None).unwrap();
        load.verify(Some(&key), session, 3, 1, Some(4)).unwrap();
        let refused = |load: &Load, last: Option<u64>| {
            let err = load.verify(Some(&key), session, 3, 1, last).unwrap_err();
            assert!(matches!(err, CoreError::Unauthorized { .. }), "{err}");
            err.to_string()
        };

        // Tagged under another key.
        let other_key = Load::new(Some(&AuthKey::new([0x43; 32])), session, 3, 1, 5, config);
        assert!(refused(&other_key, Some(4)).contains("tag mismatch"));

        // A reused (or older) sequence number, even with a valid tag.
        assert!(refused(&load, Some(5)).contains("does not follow"));
        assert!(refused(&load, Some(9)).contains("does not follow"));

        // Another config under the tag of this one.
        let swapped = Load {
            config: b"another run".to_vec(),
            ..load.clone()
        };
        assert!(refused(&swapped, Some(4)).contains("tag mismatch"));

        // Another identity: the tag binds the process and incarnation.
        assert!(load.verify(Some(&key), session, 2, 1, None).is_err());
        assert!(load.verify(Some(&key), session, 3, 2, None).is_err());

        // A keyed worker refuses an untagged load; a keyless worker checks
        // only the sequence.
        let untagged = Load::new(None, session, 3, 1, 6, b"run".to_vec());
        assert!(refused(&untagged, Some(5)).contains("no tag"));
        untagged.verify(None, session, 3, 1, Some(5)).unwrap();
        assert!(untagged.verify(None, session, 3, 1, Some(6)).is_err());
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC32: one lookup in the classic table per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Every length up to 1 KiB at every start offset modulo 8, so the
    /// 8-byte steps meet every remainder and every alignment.
    #[test]
    fn crc32_matches_the_bytewise_reference_at_every_length_and_offset() {
        let bytes: Vec<u8> = (0..1024 + 8u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn payloads_round_trip() {
        for frame in sample_frames() {
            let payload = payload_of(&frame);
            assert_eq!(WireFrame::decode_payload(&payload).unwrap(), frame);
        }
    }

    #[test]
    fn tampered_payloads_fail_typed() {
        let payload = payload_of(&WireFrame::Cmd {
            node: 1,
            cmd: NodeCmd::Predict { iteration: 3 },
        });
        for pos in 0..payload.len() {
            let mut bad = payload.clone();
            bad[pos] ^= 0x20;
            let err = WireFrame::decode_payload(&bad).unwrap_err();
            assert!(
                matches!(err, CoreError::CorruptPayload { .. }),
                "byte {pos}: {err}"
            );
        }
        for len in 0..payload.len() {
            assert!(WireFrame::decode_payload(&payload[..len]).is_err());
        }
    }

    #[test]
    fn frame_buffer_reassembles_over_partial_reads() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.to_wire());
        }
        // Feed the concatenated stream in awkward 3-byte chunks.
        let mut buf = FrameBuffer::new();
        let mut decoded = Vec::new();
        for chunk in stream.chunks(3) {
            buf.push(chunk);
            while let Some(payload) = buf.next_frame().unwrap() {
                decoded.push(WireFrame::decode_payload(payload).unwrap());
            }
        }
        assert_eq!(decoded, frames);
        assert_eq!(buf.pending_bytes(), 0);
    }

    /// `write_wire` encodes in place: after any prior content it appends
    /// exactly the bytes `to_wire` returns, which are `frame` of the
    /// payload, and leaves the content before them untouched.
    #[test]
    fn write_wire_appends_exactly_the_to_wire_bytes() {
        let frames = sample_frames();
        let priors: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![0xAB],
            (0..=255u8).collect(),
            frames[3].to_wire(),
        ];
        for frame_ in &frames {
            let wire = frame_.to_wire();
            assert_eq!(wire, frame(&payload_of(frame_)), "{frame_:?}");
            for prior in &priors {
                let mut out = prior.clone();
                frame_.write_wire(&mut out);
                assert_eq!(&out[..prior.len()], &prior[..], "{frame_:?}");
                assert_eq!(&out[prior.len()..], &wire[..], "{frame_:?}");
            }
        }
    }

    /// Every split of the sample stream reassembles to the sample frames:
    /// the head pushed, the tail read through `read_from`, with
    /// `pending_bytes` exactly the bytes of the frame left incomplete.
    #[test]
    fn frame_buffer_reassembles_at_every_split_point() {
        let frames = sample_frames();
        let wires: Vec<Vec<u8>> = frames.iter().map(WireFrame::to_wire).collect();
        let stream = wires.concat();
        for split in 0..=stream.len() {
            let mut buf = FrameBuffer::new();
            let mut decoded = Vec::new();
            buf.push(&stream[..split]);
            while let Some(payload) = buf.next_frame().unwrap() {
                decoded.push(WireFrame::decode_payload(payload).unwrap());
            }
            let whole: usize = wires[..decoded.len()].iter().map(Vec::len).sum();
            assert_eq!(buf.pending_bytes(), split - whole, "split {split}");
            let mut tail = &stream[split..];
            while buf.read_from(&mut tail).unwrap() > 0 {
                while let Some(payload) = buf.next_frame().unwrap() {
                    decoded.push(WireFrame::decode_payload(payload).unwrap());
                }
            }
            assert_eq!(decoded, frames, "split {split}");
            assert_eq!(buf.pending_bytes(), 0, "split {split}");
        }
    }

    #[test]
    fn frame_buffer_rejects_hostile_length_prefixes() {
        let mut buf = FrameBuffer::new();
        buf.push(&u32::MAX.to_le_bytes());
        assert!(buf.next_frame().is_err(), "oversized prefix must fail");

        let mut buf = FrameBuffer::new();
        buf.push(&2u32.to_le_bytes());
        assert!(buf.next_frame().is_err(), "undersized prefix must fail");
    }

    #[test]
    fn run_config_round_trips_bit_exactly() {
        use ufc_model::EmissionCostFn;
        let mut instance = UfcInstance::new(
            vec![1.0, 2.0],
            vec![2.0, 2.0],
            vec![0.24, 0.24],
            vec![0.12, 0.12],
            vec![0.48, 0.48],
            vec![30.0, 70.0],
            80.0,
            vec![0.5, 0.3],
            vec![vec![0.01, 0.02], vec![0.02, 0.01]],
            10.0,
            vec![
                EmissionCostFn::linear(25.0).unwrap(),
                EmissionCostFn::Quadratic {
                    linear: 20.0,
                    quad: 0.5,
                },
            ],
            1.0,
        )
        .unwrap();
        instance.queueing = Some(QueueingCost::default_interactive());
        let config = RunConfig {
            instance,
            settings: AdmgSettings::default().with_threads(3).with_telemetry(true),
            active_mu: true,
            active_nu: false,
            processes: 4,
        };
        let back = RunConfig::decode(&config.encode()).unwrap();
        assert_eq!(back, config);
        assert!(RunConfig::decode(&config.encode()[..40]).is_err());
    }

    #[test]
    fn run_config_round_trips_storage_and_checks_the_schedule_echo() {
        use ufc_model::StorageFleet;
        let instance = UfcInstance::new(
            vec![1.0, 2.0],
            vec![2.0, 2.0],
            vec![0.24, 0.24],
            vec![0.12, 0.12],
            vec![0.48, 0.48],
            vec![30.0, 70.0],
            80.0,
            vec![0.5, 0.3],
            vec![vec![0.01, 0.02], vec![0.02, 0.01]],
            10.0,
            vec![
                EmissionCostFn::linear(25.0).unwrap(),
                EmissionCostFn::linear(25.0).unwrap(),
            ],
            1.0,
        )
        .unwrap()
        .with_storage(
            StorageFleet::new(2.0, 1.0)
                .initial_charge_frac(0.5)
                .value_per_mwh(40.0)
                .degradation(2.0)
                .ramp_mw(0.3)
                .initial_params(2),
        )
        .unwrap();
        let config = RunConfig {
            instance,
            settings: AdmgSettings::default(),
            active_mu: true,
            active_nu: true,
            processes: 2,
        };
        let bytes = config.encode();
        let back = RunConfig::decode(&bytes).unwrap();
        assert_eq!(back, config);
        // Bit-exact f64 round trip of the charge state.
        let sp = back.instance.storage.as_ref().unwrap();
        assert_eq!(sp.charge_mwh[0].to_bits(), 1.0f64.to_bits());

        // The 5-block schedule echo is the byte run [5, 0, 1, 2, 3, 4]
        // (count, then Routing/FuelCell/Grid/Storage/Auxiliary wire ids).
        let echo = [5u8, 0, 1, 2, 3, 4];
        let at = (0..bytes.len() - echo.len())
            .find(|&p| bytes[p..p + echo.len()] == echo)
            .expect("schedule echo not found in the encoded config");
        // Dropping the storage block from the echo must fail the
        // cross-check even though every field still parses.
        let mut skewed = bytes.clone();
        skewed[at + 4] = 4; // Storage -> Auxiliary
        let err = RunConfig::decode(&skewed).unwrap_err();
        assert!(err.to_string().contains("schedule echo"), "{err}");
        // An unregistered block id is rejected before the cross-check.
        let mut unknown = bytes.clone();
        unknown[at + 4] = 9;
        let err = RunConfig::decode(&unknown).unwrap_err();
        assert!(err.to_string().contains("unknown block wire id"), "{err}");
        // Truncating inside the storage section is a typed error.
        assert!(RunConfig::decode(&bytes[..at - 3]).is_err());
    }

    #[test]
    fn node_partition_is_total_and_disjoint() {
        let (m, n) = (10, 4);
        for processes in [1, 2, 4, 14] {
            let mut seen = vec![false; m + n];
            for p in 0..processes {
                for id in hosted_nodes(p, processes, m, n) {
                    assert!(!seen[id], "node {id} hosted twice");
                    seen[id] = true;
                    assert_eq!(process_of(id, processes), p);
                }
            }
            assert!(seen.iter().all(|&s| s), "every node must be hosted");
        }
    }
}
