//! Property tests of the session-layer frame reassembly
//! (`ufc_distsim::wire`). Whatever a hostile or flaky peer feeds the
//! decoder — random garbage, truncated frames, arbitrary chunk
//! boundaries — it must return typed errors or complete payloads, never
//! panic, and honest round trips must always survive. The frames'
//! checksum, [`crc32`], must equal a bitwise reference on any buffer.

use proptest::prelude::*;
use ufc_distsim::wire::{crc32, frame, FrameBuffer, LENGTH_PREFIX_BYTES, MAX_WIRE_FRAME_BYTES};

/// CRC32 one bit at a time, straight from the reflected polynomial: no
/// table shared with the implementation under test.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

proptest! {
    /// The table-driven CRC32 of any buffer up to 64 KiB, at any start
    /// offset, is the bitwise one.
    #[test]
    fn crc32_matches_the_bitwise_reference(
        bytes in proptest::collection::vec(0u8..=255, 0..64 * 1024),
        offset in 0usize..8,
    ) {
        let slice = &bytes[offset.min(bytes.len())..];
        prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
    }

    /// Arbitrary byte soup never panics the reassembler: every
    /// `next_frame` call returns `Ok` or a typed error, regardless of
    /// chunking.
    #[test]
    fn random_bytes_never_panic_the_frame_buffer(
        bytes in proptest::collection::vec(0u8..=255, 0..4096),
        chunk in 1usize..64,
    ) {
        let mut buffer = FrameBuffer::new();
        let mut rejected = false;
        for piece in bytes.chunks(chunk) {
            buffer.push(piece);
            // Drain until the buffer wants more bytes or rejects the
            // stream; either way it must not panic or loop forever.
            loop {
                match buffer.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        rejected = true;
                        break;
                    }
                }
            }
            if rejected {
                break;
            }
        }
    }

    /// Honest framed payloads round-trip through any chunking of the
    /// byte stream, back-to-back frames included.
    #[test]
    fn framed_payloads_round_trip_under_any_chunking(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 6..128),
            1..8,
        ),
        chunk in 1usize..32,
    ) {
        let mut stream = Vec::new();
        for payload in &payloads {
            stream.extend_from_slice(&frame(payload));
        }
        let mut buffer = FrameBuffer::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            buffer.push(piece);
            while let Some(payload) = buffer.next_frame().expect("honest frames decode") {
                decoded.push(payload.to_vec());
            }
        }
        prop_assert_eq!(decoded, payloads);
        prop_assert_eq!(buffer.pending_bytes(), 0);
    }

    /// Truncating an honest frame anywhere mid-payload leaves the
    /// reassembler waiting for more bytes — it must never hand out a
    /// partial payload.
    #[test]
    fn truncated_frames_never_yield_partial_payloads(
        payload in proptest::collection::vec(0u8..=255, 6..256),
        cut in 0usize..256,
    ) {
        let full = frame(&payload);
        let cut = LENGTH_PREFIX_BYTES + (cut % payload.len()).max(1);
        let mut buffer = FrameBuffer::new();
        buffer.push(&full[..cut.min(full.len() - 1)]);
        prop_assert_eq!(buffer.next_frame().expect("a truncated frame is not an error"), None);
        prop_assert!(buffer.pending_bytes() > 0);
    }

    /// A hostile length prefix — over the frame bound or under the
    /// minimum payload — is rejected with a typed error before any
    /// payload bytes arrive.
    #[test]
    fn hostile_length_prefixes_fail_typed(raw in 0u32..u32::MAX) {
        let max = u32::try_from(MAX_WIRE_FRAME_BYTES).expect("bound fits in u32");
        let undersized = raw % 6;
        let oversized = max + 1 + raw % (u32::MAX - max);
        for len in [undersized, oversized] {
            let mut buffer = FrameBuffer::new();
            buffer.push(&len.to_le_bytes());
            prop_assert!(
                buffer.next_frame().is_err(),
                "length prefix {len} must be rejected"
            );
        }
    }
}
